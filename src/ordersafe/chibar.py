"""Chi-bar-square mixtures: weights, tail probabilities, critical values.

The squared metric norm of a Gaussian vector projected onto a convex cone
is distributed as a mixture of chi-square laws whose weights are the
probabilities of landing on a face of each dimension. This module provides
the closed-form weights for one- and two-dimensional orthants, exact
weights up to p = EXACT_MAX_DIM = 8 by Kudô's face decomposition with
Plackett's orthant reduction (weights_exact, deterministic, the
weights of the safe test for 3 <= p <= 8), Monte Carlo weight
estimation by face counting (the estimator beyond p = 8, where the exact
quadrature fails, on request at any p, and the oracle the exact weights are
tested against), upper/joint tail evaluation, and bisection solvers for
critical values.

Conventions for the zero-degree-of-freedom component (point mass at 0):
P(chi2_0 >= t) = 1 if t <= 0 else 0, and P(chi2_0 < t) = 1 if t > 0 else 0.

The chi-square tails of integer df use only the standard library. With
x = t/2 and a = df/2, the lower tail is the regularized lower incomplete
gamma by its power series P(a, x) = x^a e^-x / Gamma(a + 1) *
sum_n x^n / ((a + 1) ... (a + n)) where x <= a + 1, so that a small t does
not cancel, and the upper tail is 1 - P(a, x) there. For x > a + 1 the
upper tail is the finite series of Abramowitz & Stegun 26.4.4 (odd df,
erfc(sqrt x) plus df // 2 terms) and 26.4.5 (even df, e^-x times df / 2
terms), and the lower tail is its complement. Both tails are therefore
complementary to the rounding of one subtraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ContractViolationError,
    InfeasibleLevelError,
    InternalInvariantError,
    NumericError,
)
from .geometry import Metric, _orthant_operators, _project_orthant_t

#: Documented default seed used by every stochastic entry point.
DEFAULT_SEED = 1729

#: Default number of Monte Carlo replications for weight estimation.
DEFAULT_MC_DRAWS = 1_000_000

#: Largest dimension weights_exact accepts; one 16-node pass takes 0.15 s at p = 8.
EXACT_MAX_DIM = 8

#: Gauss-Legendre nodes per Plackett integral on the first pass of weights_exact.
EXACT_NODES = 16

_EXACT_MAX_NODES = 128
_EXACT_TOL = 1e-13
# conditioned correlation matrices built at once by one orthant reduction step
_ORTHANT_CHUNK = 1 << 14
_MC_CHUNK = 1 << 15
_BISECT_TOL = 1e-10
_BISECT_MAX_ITER = 200


def chi2_sf(t: float, df: int) -> float:
    """Upper tail P(chi2_df >= t) for integer df >= 1 (df = 0 handled by mixtures)."""
    x = 0.5 * t
    if x <= 0.5 * df + 1.0:
        return 1.0 - _lower_gamma_series(x, 0.5 * df)
    return _upper_series(x, df)


def chi2_cdf(t: float, df: int) -> float:
    """Lower tail P(chi2_df < t) for integer df >= 1."""
    x = 0.5 * t
    if x <= 0.5 * df + 1.0:
        return _lower_gamma_series(x, 0.5 * df)
    return 1.0 - _upper_series(x, df)


def _lower_gamma_series(x: float, a: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series (x <= a + 1)."""
    if x <= 0.0:
        return 0.0
    term = total = 1.0
    n = a
    while term > 1e-17 * total:
        n += 1.0
        term *= x / n
        total += term
    return total * x ** a * math.exp(-x) / math.gamma(a + 1.0)


def _upper_series(x: float, df: int) -> float:
    """P(chi2_df >= 2x) by Abramowitz & Stegun 26.4.4 (odd df) and 26.4.5 (even df)."""
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


@dataclass(frozen=True)
class ChiBarWeights:
    """Nonnegative mixture weights (w_0, ..., w_p) summing to one.

    w_j is the probability that the metric projection of a centered Gaussian
    vector onto the nonnegative orthant lands on a face of dimension j.
    """

    w: np.ndarray
    source: str = "closed_form"
    n_draws: int | None = None
    seed: int | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ContractViolationError("weights must be a 1-d vector of length p+1")
        if np.any(w < -1e-12):
            raise ContractViolationError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ContractViolationError(f"weights sum to {w.sum()}, not 1")
        if self.source not in ("closed_form", "exact", "monte_carlo"):
            raise ContractViolationError(f"unknown weight source {self.source!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def p(self) -> int:
        return self.w.shape[0] - 1

    def complement(self) -> "ChiBarWeights":
        """Weights of the polar cone: the reversed vector (w_p, ..., w_0).

        The residual of an orthant projection is the projection onto the
        polar cone, whose face-dimension distribution is the mirror image.
        """
        return ChiBarWeights(
            w=self.w[::-1].copy(), source=self.source, n_draws=self.n_draws, seed=self.seed
        )


def correlation_2x2(psi) -> float:
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (2, 2):
        raise ContractViolationError("expected a 2 x 2 covariance")
    # dividing by a power of two is exact and keeps psi_00 psi_11 in range
    psi = np.ldexp(psi, -np.frexp(np.abs(psi).max())[1])
    return float(psi[0, 1] / np.sqrt(psi[0, 0] * psi[1, 1]))


def weights_closed_form_2d(rho: float) -> ChiBarWeights:
    """Exact orthant weights in two dimensions for correlation rho.

    (w_0, w_1, w_2) = (arccos(rho) / 2pi, 1/2, 1/2 - arccos(rho) / 2pi).
    With rho = 0 this is the familiar (1/4, 1/2, 1/4) quadrant mixture.
    """
    if not -1.0 < rho < 1.0:
        raise ContractViolationError(f"correlation must lie in (-1, 1), got {rho}")
    w0 = float(np.arccos(rho) / (2.0 * np.pi))
    return ChiBarWeights(w=np.array([w0, 0.5, 0.5 - w0]))


def weights_closed_form_1d() -> ChiBarWeights:
    """One-dimensional weights (1/2, 1/2), exact by symmetry."""
    return ChiBarWeights(w=np.array([0.5, 0.5]))


def _orthant_probabilities(corr: np.ndarray, nodes) -> np.ndarray:
    """P(X >= 0) for X ~ N(0, C), for each correlation matrix C of an (m, d, d) stack.

    Dimensions up to three have closed forms. From four on, Plackett's
    reduction (1954) follows the path C(t), t from 0 to 1, that scales the
    off-diagonal entries of row and column 0 by t: at t = 0 variable 0 is
    independent of the rest, so P_d = P_{d-1}(C_{-0}) / 2, and along the path
    dP/dc_0k is the bivariate density at zero times the orthant probability
    of the other d - 2 variables given X_0 = X_k = 0. The substitution
    sin u = t c_0k removes the 1 / sqrt(1 - t^2 c_0k^2) singularity, leaving
    (1 / 2pi) sum_k int_0^{asin c_0k} P_{d-2}(conditional correlation) du,
    evaluated with the Gauss-Legendre rule nodes = (points, weights).
    """
    m, d = corr.shape[0], corr.shape[1]
    if d <= 3:
        i, j = np.triu_indices(d, 1)
        return _orthant_small(corr[:, i, j], d)
    x, g = nodes
    step = max(1, _ORTHANT_CHUNK // ((d - 1) * x.size))
    if m > step:
        return np.concatenate([_orthant_probabilities(corr[i:i + step], nodes)
                               for i in range(0, m, step)])
    r = d - 2
    # row k - 1 of rest lists the variables other than X_0 and X_k
    rest = np.array([[i for i in range(1, d) if i != k] for k in range(1, d)])
    c0 = corr[:, 0, 1:]                                      # (m, d-1): c_0k
    ck = corr[:, 1:][:, np.arange(d - 1)[:, None], rest]     # (m, d-1, r): c_kR
    # Given X_k, then X_0 under C(t): the first step leaves base, the second
    # subtracts q f f' with f = c_0R - c_0k c_kR and q = t^2 / (1 - t^2 c_0k^2).
    # The nodes run along the last axis, which keeps numpy's inner loops long.
    base = corr[:, rest[:, :, None], rest[:, None, :]] - ck[..., :, None] * ck[..., None, :]
    f = corr[:, 0, rest] - c0[..., None] * ck
    top = np.arcsin(c0)
    s = np.sin(0.5 * top[..., None] * (x + 1.0))             # (m, d-1, n): t c_0k
    t = np.divide(s, c0[..., None], out=np.zeros_like(s), where=c0[..., None] != 0.0)
    q = (t * t / (1.0 - s * s))[:, :, None, :]
    diag = np.diagonal(base, axis1=-2, axis2=-1)[..., None] - q * (f * f)[..., None]
    if r <= 3:
        i, j = np.triu_indices(r, 1)
        off = base[..., i, j][..., None] - q * (f[..., i] * f[..., j])[..., None]
        inner = _orthant_small(off / np.sqrt(diag[:, :, i] * diag[:, :, j]), r, axis=2)
    else:
        cond = base[..., None] - q[:, :, None] * (f[..., :, None] * f[..., None, :])[..., None]
        sd = np.sqrt(diag)
        cond /= sd[:, :, :, None] * sd[:, :, None, :]
        cond = np.moveaxis(cond, -1, 2).reshape(-1, r, r)
        inner = _orthant_probabilities(cond, nodes).reshape(m, d - 1, x.size)
    integral = 0.5 * top * (inner @ g)
    return 0.5 * _orthant_probabilities(corr[:, 1:, 1:], nodes) + integral.sum(axis=1) / (2.0 * np.pi)


def _orthant_small(rho: np.ndarray, d: int, axis: int = -1) -> np.ndarray:
    """Closed-form orthant probability for d <= 3 from the pairwise correlations
    along axis: 2^-d + sum of asin(rho_ij) / (2^(d-1) pi), after Sheppard."""
    return 0.5 ** d + np.arcsin(rho).sum(axis=axis) / (2.0 ** (d - 1) * np.pi)


def _kudo_weights(corr: np.ndarray, prec: np.ndarray, nodes) -> np.ndarray:
    """Face decomposition (Kudô 1963) of the orthant weights of a correlation matrix.

    w_j = sum over |J| = j of P(N(0, ((C^-1)_JJ)^-1) >= 0) P(N(0, (C_J'J')^-1) >= 0),
    J' the complement of J; prec is C^-1. Every orthant probability of one
    dimension d, from either factor, is evaluated in one batch.
    """
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
        probs = _orthant_probabilities(blocks, nodes)
        first[d], second[p - d] = np.split(probs, [len(subsets[d])])
    return np.array([first[j] @ second[j] for j in range(p + 1)])


def weights_exact(psi) -> ChiBarWeights:
    """Orthant weights by Kudô's face decomposition, deterministic and exact.

    Only the correlation of psi matters. Orthant probabilities of dimension
    four and up are Plackett integrals evaluated by Gauss-Legendre
    quadrature, starting from EXACT_NODES nodes and doubling the count until
    the identities sum_j w_j = 1 and sum_j (-1)^j w_j = 0 both hold to 1e-13.
    The weights are never renormalised: a psi that still misses the
    identities at _EXACT_MAX_NODES nodes (correlations very near +-1), or
    whose weights are not finite, raises NumericError, and its weights are
    left to Monte Carlo. A breach of the identities by more than 1e-12 in
    the weights returned raises InternalInvariantError. p above
    EXACT_MAX_DIM raises CapabilityError: one 16-node pass takes 1.2 s at
    p = 9 and 18 s at p = 10, and each doubling multiplies that by about 12.

    One pass costs about 2 ms at p = 3, 4 ms at p = 5, 20 ms at p = 7 and
    0.15 s at p = 8 with 16 nodes.

    Parameters
    ----------
    psi : Metric or array_like
        SPD covariance of the Gaussian vector projected onto the orthant.
    """
    metric = psi if isinstance(psi, Metric) else Metric(np.asarray(psi, dtype=float))
    if metric.dim > EXACT_MAX_DIM:
        raise CapabilityError(f"exact weights support p <= {EXACT_MAX_DIM}, not {metric.dim}")
    sd = np.sqrt(np.diag(metric.sigma))
    corr = metric.sigma / np.outer(sd, sd)
    prec = np.linalg.inv(corr)
    n_nodes = EXACT_NODES
    while True:
        nodes = np.polynomial.legendre.leggauss(n_nodes)
        w = _kudo_weights(corr, prec, nodes)
        residual = _identity_residual(w)
        if not np.isfinite(residual):
            raise NumericError(
                f"exact weights are not finite at {n_nodes} quadrature nodes; "
                "use weights_monte_carlo"
            )
        if residual <= _EXACT_TOL:
            break
        if n_nodes >= _EXACT_MAX_NODES:
            raise NumericError(
                f"exact weights missed the sum and parity identities by {residual:.3g} "
                f"at {n_nodes} quadrature nodes; use weights_monte_carlo"
            )
        n_nodes *= 2
    if residual > 1e-12:
        raise InternalInvariantError(
            f"exact weights break the sum and parity identities by {residual!r}"
        )
    return ChiBarWeights(w=w, source="exact")


def _identity_residual(w: np.ndarray) -> float:
    """Largest breach of sum_j w_j = 1 and sum_j (-1)^j w_j = 0 (NaN propagates)."""
    signs = np.where(np.arange(w.size) % 2 == 0, 1.0, -1.0)
    return float(np.max(np.abs([w.sum() - 1.0, signs @ w])))


def weights_monte_carlo(psi, n_draws: int = DEFAULT_MC_DRAWS, seed: int = DEFAULT_SEED) -> ChiBarWeights:
    """Estimate orthant weights by projecting Gaussian draws and counting faces.

    Draws are generated in fixed-size chunks, each from its own stream
    spawned from the seed by _seeded_chunks (which seeds the power harness
    too), and the face counts are merged in chunk order, so the result is
    reproducible bit-for-bit for a given (psi, n_draws, seed). The draws
    are projected by the KKT-certified pass of project_orthant_batch, with
    its 2^p support operators built once per call; the certificate decides
    each face, counting a draw towards w_j when a support of size j does.

    Parameters
    ----------
    psi : Metric or array_like
        SPD covariance of the Gaussian draws; also the projection metric.
    n_draws : int
        Number of replications N; the estimates are exact counts / N.
    seed : int
        Root seed for the chunk streams.
    """
    metric = psi if isinstance(psi, Metric) else Metric(np.asarray(psi, dtype=float))
    if n_draws < 1:
        raise ContractViolationError("n_draws must be at least 1")
    if seed < 0:
        raise ContractViolationError(f"seed must be nonnegative, not {seed}")
    p = metric.dim
    chol = metric.chol_lower
    table = _orthant_operators(metric)
    counts = np.zeros(p + 1, dtype=np.int64)
    for child, size in _seeded_chunks(seed, n_draws, _MC_CHUNK):
        rng = np.random.default_rng(child)
        counts += _project_orthant_t(chol @ rng.standard_normal((size, p)).T, table)[1]
    return ChiBarWeights(
        w=counts / float(n_draws), source="monte_carlo", n_draws=n_draws, seed=seed
    )


def _seeded_chunks(seed: int, total: int, chunk: int):
    """(SeedSequence child, size) of each fixed-size chunk of total draws, in
    order; child i is the i-th spawn of SeedSequence(seed), whoever draws it."""
    n_chunks = (total + chunk - 1) // chunk
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield child, min(chunk, total - i * chunk)


def mixture_upper_tail(weights: ChiBarWeights, t: float) -> float:
    """P(mixture >= t) = sum_j w_j P(chi2_j >= t) with the chi2_0 convention.

    At t = 0 this is the total mass, returned as exactly 1.0 rather than
    a rounded sum of the weights; just above 0 it drops to 1 - w_0.
    """
    if t < 0:
        raise ContractViolationError("t must be nonnegative")
    if t == 0:
        return 1.0
    total = 0.0
    for j in range(1, weights.p + 1):
        total += weights.w[j] * chi2_sf(t, j)
    return float(total)


def mixture_lower_tail(weights: ChiBarWeights, t: float) -> float:
    """P(mixture < t); complements mixture_upper_tail including the atom at 0."""
    if t < 0:
        raise ContractViolationError("t must be nonnegative")
    total = weights.w[0] * (1.0 if t > 0 else 0.0)
    for j in range(1, weights.p + 1):
        total += weights.w[j] * chi2_cdf(t, j)
    return float(total)


def joint_tail(weights: ChiBarWeights, c1: float, c2: float) -> float:
    """P(T >= c1, T' < c2) for the projection statistic and its residual.

    T is the squared norm of the orthant projection, T' the squared norm of
    the polar residual; under the apex null the pair factorizes over the
    face dimension j, giving sum_j w_j P(chi2_j >= c1) P(chi2_{p-j} < c2).
    """
    if c1 < 0 or c2 < 0:
        raise ContractViolationError("c1 and c2 must be nonnegative")
    p = weights.p
    total = 0.0
    for j in range(p + 1):
        sf = (1.0 if c1 <= 0 else 0.0) if j == 0 else chi2_sf(c1, j)
        k = p - j
        cdf = (1.0 if c2 > 0 else 0.0) if k == 0 else chi2_cdf(c2, k)
        total += weights.w[j] * sf * cdf
    return float(total)


def solve_critical(weights: ChiBarWeights, alpha: float, mode: str = "marginal",
                   c2: float | None = None) -> float:
    """Critical value by bisection.

    mode="marginal" returns c with mixture_upper_tail(c) = alpha; when alpha
    is at or above the tail's limit from the right at zero (1 - w_0) the
    solution region collapses and 0 is returned. mode="joint" returns c with
    joint_tail(c, c2) = alpha and raises InfeasibleLevelError, naming the
    attainable supremum, when alpha exceeds joint_tail(0, c2).
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolationError("alpha must lie in (0, 1)")
    if mode == "marginal":
        if alpha >= 1.0 - weights.w[0]:
            return 0.0
        func = lambda c: mixture_upper_tail(weights, c)
    elif mode == "joint":
        if c2 is None or c2 < 0:
            raise ContractViolationError("joint mode needs a nonnegative c2")
        sup = joint_tail(weights, 0.0, c2)
        # c2 itself usually comes from a bisection accurate to _BISECT_TOL, so
        # requests within that residual of the supremum count as feasible
        if alpha > sup + 1e-9:
            raise InfeasibleLevelError(
                f"requested level {alpha} exceeds the attainable supremum {sup:.12g}",
                attainable=sup,
            )
        limit_above_zero = sup - weights.w[0] * (
            1.0 if weights.p == 0 else chi2_cdf(c2, weights.p)
        )
        if alpha >= limit_above_zero:
            return 0.0
        func = lambda c: joint_tail(weights, c, c2)
    else:
        raise ContractViolationError(f"unknown mode {mode!r}")

    hi = 1.0
    while func(hi) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise NumericError("bisection bracket grew without bound")
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = func(mid)
        if abs(val - alpha) <= _BISECT_TOL:
            return mid
        if val > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_nominal_level(weights: ChiBarWeights, target_level: float, c2: float) -> float:
    """Nominal alpha whose composite region attains a prechosen level.

    Finds alpha such that joint_tail(solve_critical(weights, alpha), c2)
    equals target_level; the attained level is increasing in alpha, so the
    search is a plain bisection on (target_level, 1).
    """
    if not 0.0 < target_level < 1.0:
        raise ContractViolationError("target_level must lie in (0, 1)")
    sup = joint_tail(weights, 0.0, c2)
    if target_level > sup:
        raise InfeasibleLevelError(
            f"target level {target_level} exceeds the attainable supremum {sup:.12g}",
            attainable=sup,
        )

    def attained(alpha):
        return joint_tail(weights, solve_critical(weights, alpha, "marginal"), c2)

    lo, hi = target_level, 1.0 - 1e-12
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        level = attained(mid)
        if abs(level - target_level) <= 1e-9:
            return mid
        if level < target_level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def safe_level_2d(alpha: float, gamma: float) -> float:
    """Attained level of the two-dimensional composite test, closed form.

    For the identity-covariance quadrant problem the composite rejection
    region discards the two corner regions where both base tests reject;
    this routine returns alpha - 2 * phi-bar(c_alpha) * phi-bar(c_gamma)
    where c_alpha and c_gamma solve the (1/4, 1/2, 1/4) mixture tail
    equations and phi-bar is the standard normal upper tail evaluated at the
    critical values themselves. This reproduces the reference tabulation of
    the attained level (0.0999 at alpha = gamma = 0.1; 0.0988 at alpha =
    0.1, gamma = 0.5). The exact probability of the composite region is
    available as joint_tail(weights, c_alpha, c_gamma), which evaluates the
    Gaussian tail on the square-root scale instead.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < gamma < 1.0):
        raise ContractViolationError("alpha and gamma must lie in (0, 1)")
    wq = weights_closed_form_2d(0.0)
    c_alpha = solve_critical(wq, alpha)
    c_gamma = solve_critical(wq, gamma)
    # phi-bar(c) = erfc(c / sqrt 2) / 2
    root2 = math.sqrt(2.0)
    return float(alpha - 0.5 * math.erfc(c_alpha / root2) * math.erfc(c_gamma / root2))
