import itertools
import math

import mpmath
import numpy as np
import pytest

from ordersafe import chibar
from ordersafe.errors import InfeasibleLevelError, InternalInvariantError, NumericError
from ordersafe.geometry import ZERO_TOL, _activity_tol


def random_spd(rng, dim, lam_low=0.5, lam_high=2.0):
    """Random SPD matrix with eigenvalues in [lam_low, lam_high].

    Keeps the condition number small so projection tolerances near 1e-8
    are meaningful.
    """
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(lam_low, lam_high, size=dim)
    return (q * lam) @ q.T


def mp_chi2_sf(t, df):
    """Independent oracle: regularized upper incomplete gamma via mpmath."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(df / 2.0, a=t / 2.0, regularized=True))


def mp_chi2_cdf(t, df):
    """Independent oracle: regularized lower incomplete gamma via mpmath.

    Evaluated directly on [0, t/2], never as 1 - mp_chi2_sf: that
    difference loses every digit once the lower tail falls below 1e-40.
    """
    with mpmath.workdps(40):
        return float(mpmath.gammainc(df / 2.0, 0, t / 2.0, regularized=True))


def random_full_rank(rng, p, m):
    """Random p x m matrix of full row rank (resampled until comfortably so)."""
    while True:
        r = rng.standard_normal((p, m))
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            return r


def enumerate_cone_oracle(x, r, metric):
    """Independent oracle: metric projection onto {theta : R theta >= 0}
    by enumerating all 2^p - 1 active sets.

    Each candidate solves its equality-constrained problem exactly; the
    feasible candidate of least metric distance is the unique KKT point.
    Cost grows like 2^p, so keep p small (p = 13 takes about 0.4 s).
    """
    x = np.asarray(x, dtype=float)
    tol = activity_tol_oracle(x[:, None])[0]
    if np.all(r @ x >= -tol):
        return x.copy()
    sigma_rt = metric.sigma @ r.T
    best, best_obj = None, np.inf
    for size in range(1, r.shape[0] + 1):
        for active in itertools.combinations(range(r.shape[0]), size):
            idx = list(active)
            z = np.linalg.solve(r[idx] @ sigma_rt[:, idx], r[idx] @ x)
            cand = x - sigma_rt[:, idx] @ z
            if np.all(r @ cand >= -tol):
                obj = metric.norm_sq(x - cand)
                if obj < best_obj:
                    best_obj, best = obj, cand
    assert best is not None, "no feasible active-set candidate"
    return best


def dual_active_set_oracle(x, r, metric):
    """Reference form of geometry._dual_active_set: the Lawson-Hanson loop
    written with np.all, np.argmin, np.ix_ and np.flatnonzero. The library's
    loop must return the same bits of (theta, lam) after the same
    np.linalg.solve calls."""
    tol = _activity_tol(x[:, None])[0]
    rx = r @ x
    if np.all(rx >= -tol):
        return x.copy(), np.zeros(r.shape[0])
    p = r.shape[0]
    sigma_rt = metric.sigma @ r.T  # columns sigma r_i
    gram = r @ sigma_rt
    lam = np.zeros(p)
    passive = np.zeros(p, dtype=bool)
    w = rx  # gradient G lam + R x, which equals R theta
    max_iter = 3 * p
    n_iter = 0
    while not passive.all():
        j = int(np.argmin(np.where(passive, np.inf, w)))
        if w[j] >= -tol:
            break
        passive[j] = True
        while True:
            n_iter += 1
            if n_iter > max_iter:
                raise NumericError(
                    f"cone projection did not converge within {max_iter} active-set steps"
                )
            idx = np.flatnonzero(passive)
            z = np.zeros(p)
            z[idx] = np.linalg.solve(gram[np.ix_(idx, idx)], -rx[idx])
            if np.all(z[idx] > 0):
                lam = z
                break
            # step from lam towards z until the first passive multiplier hits
            # zero, then drop that row and every row roundoff left at zero
            blocking = idx[z[idx] <= 0]
            ratios = lam[blocking] / (lam[blocking] - z[blocking])
            k = int(np.argmin(ratios))
            lam = lam + ratios[k] * (z - lam)
            lam[blocking[k]] = 0.0
            passive &= lam > 0
            lam[~passive] = 0.0
        w = gram @ lam + rx
    theta = x + sigma_rt @ lam
    r_theta = r @ theta
    if np.any(r_theta < -tol) or np.any(lam < 0):
        raise InternalInvariantError(
            "cone projection breaks its KKT conditions: "
            f"min R theta = {r_theta.min():.3e}, min lambda = {lam.min():.3e}"
        )
    return theta, lam


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def orthant_batch_oracle(points, metric):
    """Independent oracle: the orthant batch projection by least objective.

    Enumerates every coordinate support for every row, smallest support
    first, and keeps the tolerance-feasible candidate (no coordinate below
    -1e-10 ||x||) of least metric distance, ties going to the earlier
    support. Returns an (n, p) array; rows with no feasible candidate are
    NaN.
    """
    xt = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    p, n = xt.shape
    minv = metric.inverse()
    neg_tol = -activity_tol_oracle(xt)
    best_obj = np.full(n, np.inf)
    best = np.full_like(xt, np.nan)
    for size in range(p + 1):
        for support in itertools.combinations(range(p), size):
            sup = list(support)
            comp = [i for i in range(p) if i not in support]
            # theta_S = x_S + (Sinv_SS)^{-1} Sinv_SC x_C and theta_C = 0
            a = np.zeros((p, p))
            a[sup, sup] = 1.0
            if sup and comp:
                a[np.ix_(sup, comp)] = np.linalg.solve(minv[np.ix_(sup, sup)],
                                                       minv[np.ix_(sup, comp)])
            theta = a @ xt
            feasible = theta.min(axis=0) >= neg_tol
            diff = xt - theta
            obj = (diff * (minv @ diff)).sum(axis=0)
            take = feasible & (obj < best_obj)
            best_obj = np.where(take, obj, best_obj)
            best = np.where(take, theta, best)
    return best.T


# ---------------------------------------------------------------------------
# Reference forms of the orthant pass and the power chunk. These are the
# implementations the in-place pass of ordersafe.geometry replaced: every
# support gathers fresh arrays, the blocks are put back into row order by an
# inverse permutation, and the power statistics are computed over the whole
# reordered chunk. The library must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def activity_tol_oracle(xt):
    """ZERO_TOL * max(||x||, tiny) per column, rescaling by max|x| the nonzero
    columns whose norm lies outside [1e-150, 1e150]."""
    norm = np.sqrt(np.einsum("ij,ij->j", xt, xt))
    far = np.flatnonzero((norm < 1e-150) | (norm > 1e150))
    if far.size:
        scale = np.abs(xt[:, far]).max(axis=0)
        far, scale = far[scale > 0], scale[scale > 0]
        with np.errstate(invalid="ignore"):
            norm[far] = scale * np.sqrt(((xt[:, far] / scale) ** 2).sum(axis=0))
    return ZERO_TOL * np.maximum(norm, np.finfo(float).tiny)


def project_orthant_t_oracle(xt, table):
    """The orthant pass on a (p, n) array: the (p, n) projections in row
    order and counts[j], the number of rows certified at support size j."""
    p, n = xt.shape
    counts = np.zeros(p + 1, dtype=np.int64)
    if n == 0:
        return xt.copy(), counts
    rows = np.arange(n)
    neg_tol = -activity_tol_oracle(xt)
    blocks, order = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, comp in table:
            cand = xt if k is None else k @ xt
            done = cand.min(axis=0) >= neg_tol
            hit = np.flatnonzero(done)
            if hit.size:
                theta = cand.take(hit, axis=1)
                theta[comp] = 0.0
                blocks.append(theta)
                order.append(rows.take(hit))
                counts[p - len(comp)] += hit.size
                if hit.size == rows.size:
                    break
                keep = np.flatnonzero(~done)
                xt, rows, neg_tol = xt.take(keep, axis=1), rows.take(keep), neg_tol.take(keep)
        else:
            raise NumericError("batch projection found rows with no feasible candidate")
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.concatenate(order)] = np.arange(n)
    return np.concatenate(blocks, axis=1).take(inverse, axis=1), counts


def power_chunk_oracle(xbar, minv, n, table, c_alpha, c_gamma):
    """(plain count, composite count, t, t') of one power chunk of (2, size)
    means: project, reorder, then t and t' as n * (v * (M @ v)).sum(axis=0)
    over the whole chunk, with v the projection and the residual. The atoms
    follow the p-value rule: t = 0 (alpha* = 1) never rejects and t' = 0
    (gamma* = 1) always certifies."""
    proj = project_orthant_t_oracle(xbar, table)[0]
    diff = xbar - proj
    t = n * (proj * (minv @ proj)).sum(axis=0)
    t_aux = n * (diff * (minv @ diff)).sum(axis=0)
    reject_dt = t >= c_alpha
    reject_dt &= t > 0
    certified = t_aux < c_gamma
    certified |= t_aux == 0
    return int(reject_dt.sum()), int((reject_dt & certified).sum()), t, t_aux


def in_polar_orthant(theta, restriction, metric):
    """Independent oracle: theta lies in the polar of {R theta >= 0} iff every
    component of (R sigma R')^{-1} R theta is at most 1e-10.

    The library decides the polar region only through project_cone (its
    projection is 0 there); this check never projects. It refuses a gram
    matrix of condition number above 1e14 rather than answer from it.
    """
    r = np.asarray(restriction, dtype=float)
    gram = r @ metric.sigma @ r.T
    if not np.linalg.cond(gram) <= 1e14:
        raise np.linalg.LinAlgError("R sigma R' is singular or near-singular")
    return bool(np.all(np.linalg.solve(gram, r @ np.asarray(theta, dtype=float)) <= 1e-10))


def face_dimension(x):
    """Independent oracle of the certified face counts: the number of
    coordinates of a projected point above 1e-10 ||x||."""
    x = np.asarray(x, dtype=float)
    return int(np.sum(x > activity_tol_oracle(x[:, None])[0]))


def cumulative_differences(problem):
    """(w_n, v_n) of a StochasticOrderProblem: the cumulative differences
    R theta_hat and their covariance R sigma_n R' on the root-n scale."""
    r = problem.restriction
    return r @ problem.theta_hat, r @ problem.sigma_n.sigma @ r.T


def minmax_project(series):
    """Independent oracle of pava: coordinate i of the weighted isotonic fit
    is the min over t >= i of the max over s <= i of the block average
    Av(s, t). O(K^2) block averages from cumulative sums."""
    values, weights = series.values, series.weights
    k = len(series)
    cw = np.concatenate(([0.0], np.cumsum(weights)))
    cwv = np.concatenate(([0.0], np.cumsum(weights * values)))

    def block_av(s, t):  # inclusive endpoints
        return (cwv[t + 1] - cwv[s]) / (cw[t + 1] - cw[s])

    out = np.empty(k)
    for i in range(k):
        out[i] = min(max(block_av(s, t) for s in range(i + 1)) for t in range(i, k))
    return out


def av(series, u, v):
    """Weighted average of values[u..v] of a WeightedSeries, endpoints
    included (0-based): the block value of the partition oracle."""
    w = series.weights[u:v + 1]
    return float(w @ series.values[u:v + 1] / w.sum())


def level_sets(fitted):
    """The maximal constant runs of a fit as half-open (start, stop) index
    ranges. pava pools on >=, so its blocks have strictly increasing means
    and are exactly these runs."""
    bounds = [0, *(np.flatnonzero(np.diff(fitted)) + 1).tolist(), len(fitted)]
    return tuple(zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Reference forms of the exact weights and the tails. These are the
# implementations the table-driven engine in ordersafe.chibar replaced: a
# fresh Gauss-Legendre rule and fresh index lists on every call, one np.ix_
# gather per subset, and one series per df. The engine must reproduce them
# bit for bit.
# ---------------------------------------------------------------------------

def orthant_probabilities_oracle(corr, nodes):
    """P(X >= 0) for X ~ N(0, C) over an (m, d, d) stack, by Sheppard's forms
    up to d = 3 and Plackett's reduction above, building every index list.

    This is also the plain broadcast form of the in-place kernel: every
    node-dependent term is one (m, d-1, ..., n) broadcast, the arcsines are
    summed by np.sum over the pair axis, the conditioned matrices are built
    node-last and moved, and t is a masked divide, 0 where c_0k = 0."""
    m, d = corr.shape[0], corr.shape[1]
    if d <= 3:
        i, j = np.triu_indices(d, 1)
        return 0.5 ** d + np.arcsin(corr[:, i, j]).sum(axis=-1) / (2.0 ** (d - 1) * np.pi)
    x, g = nodes
    step = max(1, (1 << 14) // ((d - 1) * x.size))
    if m > step:
        return np.concatenate([orthant_probabilities_oracle(corr[i:i + step], nodes)
                               for i in range(0, m, step)])
    r = d - 2
    rest = np.array([[i for i in range(1, d) if i != k] for k in range(1, d)])
    c0 = corr[:, 0, 1:]
    ck = corr[:, 1:][:, np.arange(d - 1)[:, None], rest]
    base = corr[:, rest[:, :, None], rest[:, None, :]] - ck[..., :, None] * ck[..., None, :]
    f = corr[:, 0, rest] - c0[..., None] * ck
    top = np.arcsin(c0)
    s = np.sin(0.5 * top[..., None] * (x + 1.0))
    t = np.divide(s, c0[..., None], out=np.zeros_like(s), where=c0[..., None] != 0.0)
    q = (t * t / (1.0 - s * s))[:, :, None, :]
    diag = np.diagonal(base, axis1=-2, axis2=-1)[..., None] - q * (f * f)[..., None]
    if r <= 3:
        i, j = np.triu_indices(r, 1)
        off = base[..., i, j][..., None] - q * (f[..., i] * f[..., j])[..., None]
        rho = off / np.sqrt(diag[:, :, i] * diag[:, :, j])
        inner = 0.5 ** r + np.arcsin(rho).sum(axis=2) / (2.0 ** (r - 1) * np.pi)
    else:
        cond = base[..., None] - q[:, :, None] * (f[..., :, None] * f[..., None, :])[..., None]
        sd = np.sqrt(diag)
        cond /= sd[:, :, :, None] * sd[:, :, None, :]
        cond = np.moveaxis(cond, -1, 2).reshape(-1, r, r)
        inner = orthant_probabilities_oracle(cond, nodes).reshape(m, d - 1, x.size)
    integral = 0.5 * top * (inner @ g)
    return (0.5 * orthant_probabilities_oracle(corr[:, 1:, 1:], nodes)
            + integral.sum(axis=1) / (2.0 * np.pi))


def kudo_weights_oracle(corr, prec, nodes):
    """Kudô's face decomposition with one np.ix_ gather per subset."""
    p = corr.shape[0]
    subsets = [list(itertools.combinations(range(p), j)) for j in range(p + 1)]
    first, second = {}, {}
    for d in range(p + 1):
        blocks = [prec[np.ix_(s, s)] for s in subsets[d]]
        for s in subsets[p - d]:
            c = [i for i in range(p) if i not in s]
            blocks.append(corr[np.ix_(c, c)])
        blocks = np.array(blocks, dtype=float).reshape(len(blocks), d, d)
        if d >= 2:
            inv = np.linalg.inv(blocks)
            sd = np.sqrt(np.diagonal(inv, axis1=1, axis2=2))
            blocks = inv / (sd[:, :, None] * sd[:, None, :])
        probs = orthant_probabilities_oracle(blocks, nodes)
        first[d], second[p - d] = np.split(probs, [len(subsets[d])])
    return np.array([first[j] @ second[j] for j in range(p + 1)])


def weights_exact_oracle(psi):
    """The weights weights_exact returns for an SPD psi (p <= 8), by the
    same node doubling with a fresh leggauss rule per pass; None where the
    identities still fail at 128 nodes or the weights are not finite."""
    psi = 0.5 * psi + 0.5 * psi.T  # as Metric stores it
    sd = np.sqrt(np.diag(psi))
    corr = psi / np.outer(sd, sd)
    prec = np.linalg.inv(corr)
    signs = np.where(np.arange(psi.shape[0] + 1) % 2 == 0, 1.0, -1.0)
    n_nodes = 16
    while n_nodes <= 128:
        w = kudo_weights_oracle(corr, prec, np.polynomial.legendre.leggauss(n_nodes))
        residual = float(np.max(np.abs([w.sum() - 1.0, signs @ w])))
        if not np.isfinite(residual):
            return None
        if residual <= 1e-13:
            return w
        n_nodes *= 2
    return None


def lower_gamma_series_oracle(x, a):
    if x <= 0.0:
        return 0.0
    term = total = 1.0
    n = a
    while term > 1e-17 * total:
        n += 1.0
        term *= x / n
        total += term
    return total * x ** a * math.exp(-x) / math.gamma(a + 1.0)


def upper_series_oracle(x, df):
    """P(chi2_df >= 2x) by A&S 26.4.4 / 26.4.5, summed afresh for this df."""
    if math.isinf(x):
        return 0.0
    if df % 2:
        total = math.erfc(math.sqrt(x))
        term = 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
        for r in range(1, (df + 1) // 2):
            total += term
            term *= x / (r + 0.5)
        return total
    total, term = 0.0, math.exp(-x)
    for r in range(1, df // 2 + 1):
        total += term
        term *= x / r
    return total


def chi2_sf_oracle(t, df):
    x = 0.5 * t
    if x <= 0.5 * df + 1.0:
        return 1.0 - lower_gamma_series_oracle(x, 0.5 * df)
    return upper_series_oracle(x, df)


def chi2_cdf_oracle(t, df):
    x = 0.5 * t
    if x <= 0.5 * df + 1.0:
        return lower_gamma_series_oracle(x, 0.5 * df)
    return 1.0 - upper_series_oracle(x, df)


def chi2_cdf(t, df):
    """P(chi2_df < t) from the cdf half of chibar's one tail evaluator, the
    half that joint_tail's pre-test factors read."""
    return chibar._chi2_tails(float(t), df)[1][df]


def mixture_lower_tail(weights, t):
    """P(mixture < t) = sum_j w_j P(chi2_j < t) from the same cdf half, summed
    as every weighted chi-bar sum is; it complements mixture_upper_tail,
    the atom at 0 included."""
    cdf = chibar._chi2_tails(float(t), weights.p)[1]
    return chibar._joint_sum(weights.w.tolist(), cdf, [1.0] * len(cdf))


def mixture_upper_tail_oracle(w, t):
    if t == 0:
        return 1.0
    total = 0.0
    for j in range(1, w.size):
        total += w[j] * chi2_sf_oracle(t, j)
    return float(total)


def mixture_lower_tail_oracle(w, t):
    total = w[0] * (1.0 if t > 0 else 0.0)
    for j in range(1, w.size):
        total += w[j] * chi2_cdf_oracle(t, j)
    return float(total)


def joint_tail_oracle(w, c1, c2):
    p = w.size - 1
    total = 0.0
    for j in range(p + 1):
        sf = (1.0 if c1 <= 0 else 0.0) if j == 0 else chi2_sf_oracle(c1, j)
        k = p - j
        cdf = 1.0 if k == 0 else chi2_cdf_oracle(c2, k)  # a zero residual is certified
        total += w[j] * sf * cdf
    return float(total)


# ---------------------------------------------------------------------------
# Reference form of the critical-value solver: the plain bisection that
# ordersafe.chibar.solve_critical replays from certified band edges. Every
# tail it tries goes through the library's evaluator, so the two solvers
# compare the same computed tails and must return the same floats.
# ---------------------------------------------------------------------------

def solve_critical_oracle(weights, alpha, mode="marginal", c2=None):
    """Double the bracket from 1 while the tail exceeds alpha, then bisect
    from 0 until the tail is within min(1e-10, 1e-8 alpha) of alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if mode == "marginal":
        if alpha >= 1.0 - weights.w[0]:
            return 0.0
        func = lambda c: chibar.mixture_upper_tail(weights, c)
    else:
        w = weights.w.tolist()
        cdf2 = chibar._chi2_tails(c2, weights.p)[1]
        cdf2[0] = 1.0  # a zero residual is certified at every c2
        sup = chibar._joint_sum(w, [1.0] * (weights.p + 1), cdf2)  # P(chi2_df >= 0) = 1
        if alpha > sup + min(1e-9, 1e-7 * alpha):
            # the region's level as c -> 0+: every face but the apex, P(chi2_j > 0+) = 1
            reached = math.fsum(w[j] * cdf2[weights.p - j] for j in range(1, weights.p + 1))
            raise InfeasibleLevelError("infeasible", attainable=reached)
        limit_above_zero = sup - weights.w[0] * (1.0 if weights.p == 0 else cdf2[weights.p])
        if alpha >= limit_above_zero:
            return 0.0
        func = lambda c: chibar._joint_sum(w, chibar._chi2_tails(c, weights.p)[0], cdf2)

    tol = min(1e-10, 1e-8 * alpha)
    hi = 1.0
    while func(hi) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise NumericError("bisection bracket grew without bound")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = func(mid)
        if abs(val - alpha) <= tol:
            return mid
        if val > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def safe_level_2d(alpha, gamma):
    """The published two-dimensional tabulation of the composite level:
    alpha - 2 phibar(c_alpha) phibar(c_gamma), with c_alpha and c_gamma the
    critical values of the (1/4, 1/2, 1/4) mixture and phibar the standard
    normal upper tail evaluated at the critical values themselves. It gives
    0.0999 at alpha = gamma = 0.1 and 0.0988 at alpha = 0.1, gamma = 0.5.
    This is a formula of the reference, not the region's probability: the
    library's attained level, chibar.attained_level, evaluates the tail on
    the square-root scale and gives 0.0963 and 0.0754 there."""
    wq = chibar.weights_closed_form_2d(0.0)
    c_alpha = chibar.solve_critical(wq, alpha)
    c_gamma = chibar.solve_critical(wq, gamma)
    # phi-bar(c) = erfc(c / sqrt 2) / 2
    root2 = math.sqrt(2.0)
    return float(alpha - 0.5 * math.erfc(c_alpha / root2) * math.erfc(c_gamma / root2))


#: A 4 x 4 Psi of cond 1.2e16: a face block of weights_exact is singular in
#: floating point, and Monte Carlo's projection misreads nearly every draw, so
#: its weights read a parity sum_j (-1)^j w_j of about -0.99.
PARITY_PSI = [
    [0.8087129717681796, -0.2864401107391496, -0.2694826565597921, 0.005240404114182768],
    [-0.2864401107391496, 0.5710742239101406, -0.40353307122174475, 0.007847170551289442],
    [-0.2694826565597921, -0.40353307122174475, 0.6203563678216922, 0.007382612585864613],
    [0.005240404114182768, 0.007847170551289442, 0.007382612585864613, 0.9998564364999875],
]

#: Three orthant problems at n = 10 on which roundoff decides, as (s_n, sigma_n).
ROUNDOFF_CASES = {
    # Cholesky accepts sigma, but the correlation of Psi = sigma rounds to -1
    "rho": ([-0.3634260488797557, -0.10591112305144375],
            [[0.0396463741094641, -0.19512698206408177],
             [-0.19512698206408177, 0.9603536258905353]]),
    # cond(sigma) = 2.0e7: the projection is the apex, but theta is roundoff
    # of x + sigma lambda and the drop reads -0.152, within u cond(sigma) (1 + n ||x||^2)
    "apex": ([-0.5731292157665655, -0.6077406304422468],
             [[0.8351906894929751, -0.37100834671375466],
              [-0.37100834671375466, 0.16480936114706835]]),
    # cond(sigma) = 1.4e16: a passive block of G is singular in floating point
    "singular": ([-1.6183674582291454, 1.4314317534265486],
                 [[0.23860394129114867, -0.42623010275141143],
                  [-0.42623010275141143, 0.7613960587088514]]),
}
