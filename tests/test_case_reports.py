"""Every numeric field of the built-in case reports against mpmath.

The float inputs of each case (s_n, sigma_n, n and R) are taken as exact,
and everything downstream of them is evaluated at 40 digits: the reduced
problem w = R s_n, V = R sigma_n R', the squared distances by an
mp.cholesky solve on each face of the orthant, the closed-form weights,
the chi-square tails, and the critical values. The bisections use the
library's bracket and stopping rule, so where every comparison agrees they
stop at the same dyadic midpoint.
"""

import itertools
import json

import mpmath
import numpy as np
import pytest

from ordersafe.cli import EXIT_OK, main
from ordersafe.studies import (
    CS_TABLE5,
    CS_TABLE6,
    build_stochastic_order,
    doubled_table,
    silvapulle_case,
)

CASES = ("silvapulle", "cs-table5", "cs-table6", "cs-table5-doubled")
ALPHA = GAMMA = 0.05
_BISECT_TOL = 1e-10


def case_inputs(name):
    """(s_n, sigma_n, n, R) exactly as the library builds them for a case."""
    if name == "silvapulle":
        stat, _ = silvapulle_case()
        return stat.s_n, stat.sigma_n.sigma, stat.n, np.eye(2)
    table = {"cs-table5": CS_TABLE5, "cs-table6": CS_TABLE6,
             "cs-table5-doubled": doubled_table(CS_TABLE5)}[name]
    problem = build_stochastic_order(table)
    stat = problem.statistic()
    return stat.s_n, stat.sigma_n.sigma, stat.n, problem.restriction


def _sf(t, df):
    if df == 0:
        return mpmath.mpf(t <= 0)
    return mpmath.gammainc(mpmath.mpf(df) / 2, t / 2, mpmath.inf, regularized=True)


def _cdf(t, df):
    if df == 0:
        return mpmath.mpf(t > 0)
    return mpmath.gammainc(mpmath.mpf(df) / 2, 0, t / 2, regularized=True)


def _upper(w, t):
    return sum(w[j] * _sf(t, j) for j in range(len(w)))


def _joint(w, c1, c2):
    p = len(w) - 1
    return sum(w[j] * _sf(c1, j) * _cdf(c2, p - j) for j in range(p + 1))


def _bisect(func, level):
    """The library's solve_critical loop: double the bracket from 1, then halve
    to within min(1e-10, 1e-8 level) of the level."""
    tol = min(_BISECT_TOL, 1e-8 * level)
    hi = mpmath.mpf(1)
    while func(hi) > level:
        hi *= 2
    lo = mpmath.mpf(0)
    for _ in range(200):
        mid = (lo + hi) / 2
        val = func(mid)
        if abs(val - level) <= tol:
            return mid
        if val > level:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _quad(v, w):
    """w' V^-1 w by an mp.cholesky solve."""
    return (w.T * mpmath.cholesky_solve(v, w))[0]


def reference_statistics(s, sigma, n, r):
    """(t_n, t'_n, V) at 40 digits for the subspace ker R and the cone R theta >= 0."""
    rm = mpmath.matrix(r.tolist())
    w = rm * mpmath.matrix(s.tolist())
    v = rm * mpmath.matrix(sigma.tolist()) * rm.T
    p = v.rows
    # distance to {eta >= 0}: on the face with coordinates F free and C at 0,
    # d^2 = w_C' V_CC^-1 w_C and eta_F = w_F - V_FC V_CC^-1 w_C must be >= 0
    dist = None
    for size in range(p + 1):
        for zero in itertools.combinations(range(p), size):
            free = [i for i in range(p) if i not in zero]
            if zero:
                vcc = mpmath.matrix([[v[i, j] for j in zero] for i in zero])
                wc = mpmath.matrix([w[i] for i in zero])
                y = mpmath.cholesky_solve(vcc, wc)
                obj = (wc.T * y)[0]
                eta = [w[i] - sum(v[i, zero[k]] * y[k] for k in range(size)) for i in free]
            else:
                obj, eta = mpmath.mpf(0), [w[i] for i in free]
            if all(e >= 0 for e in eta) and (dist is None or obj < dist):
                dist = obj
    return n * (_quad(v, w) - dist), n * dist, v


def reference_fields(name):
    """The numeric report fields of a case, at 40 digits, as mpf values."""
    with mpmath.workdps(40):
        t_n, t_prime, v = reference_statistics(*case_inputs(name))
        p = v.rows
        assert p == 2, "the built-in cases reduce to the quadrant"
        w0 = mpmath.acos(v[0, 1] / mpmath.sqrt(v[0, 0] * v[1, 1])) / (2 * mpmath.pi)
        weights = [w0, mpmath.mpf(1) / 2, mpmath.mpf(1) / 2 - w0]
        polar = weights[::-1]
        c_alpha = _bisect(lambda c: _upper(weights, c), ALPHA)
        c_gamma = _bisect(lambda c: _upper(polar, c), GAMMA)
        return {
            "t_n": t_n,
            "t_prime": t_prime,
            "t_safe": t_n if t_prime < c_gamma else mpmath.mpf(0),
            "alpha_star": _upper(weights, t_n),
            "gamma_star": _upper(polar, t_prime),
            "c_alpha": c_alpha,
            "c_gamma_prime": c_gamma,
            "c_alpha_safe": _bisect(lambda c: _joint(weights, c, c_gamma), ALPHA),
            "alpha_safe": _joint(weights, c_alpha, c_gamma),
            "w0": weights[0],
            "w2": weights[2],
        }


def report_fields(report):
    fields = {k: v for k, v in report.items() if isinstance(v, float)}
    fields["w0"], fields["w2"] = report["weights"]["w"][0], report["weights"]["w"][2]
    return fields


def relative_distance(got, want):
    """|got - want| / |want| at 40 digits; 0 only for an exact match of a zero."""
    with mpmath.workdps(40):
        if want == 0:
            return float(abs(mpmath.mpf(got)))
        return float(abs((mpmath.mpf(got) - want) / want))


@pytest.mark.parametrize("name", CASES)
def test_every_numeric_field_matches_mpmath(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["case", name, "--out", str(out)]) == EXIT_OK
    got = report_fields(json.loads(out.read_text()))
    want = reference_fields(name)
    assert set(got) == set(want) | {"alpha", "gamma"}
    for key, value in want.items():
        assert relative_distance(got[key], value) <= 1e-13, (key, got[key], value)
