import itertools

import mpmath
import numpy as np
import pytest


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
    tol = 1e-10 * (1.0 + np.linalg.norm(x))
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def orthant_batch_oracle(points, metric):
    """Independent oracle: the orthant batch projection by least objective.

    Enumerates every coordinate support for every row, smallest support
    first, and keeps the tolerance-feasible candidate (no coordinate below
    -1e-10 (1 + ||x||)) of least metric distance, ties going to the earlier
    support. Returns an (n, p) array; rows with no feasible candidate are
    NaN.
    """
    xt = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    p, n = xt.shape
    minv = metric.inverse()
    neg_tol = -1e-10 * (1.0 + np.sqrt((xt * xt).sum(axis=0)))
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
