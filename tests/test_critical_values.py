"""solve_critical against the plain bisection it replays.

solve_critical finds the band edges of the bisection by Newton steps,
certifies them, and evaluates the tail only where its certificates do not
decide a step. Its results must equal those of solve_critical_oracle, the
bisection itself, bit for bit: on random mixtures, at the levels of the
golden reports and the power grid, and at levels built so that a point the
bisection tries sits on the edge of its stopping band.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordersafe import chibar
from ordersafe.chibar import (
    ChiBarWeights,
    attained_level,
    joint_tail,
    mixture_upper_tail,
    solve_critical,
    weights_closed_form_2d,
    weights_exact,
)
from ordersafe.errors import InfeasibleLevelError
from ordersafe.studies import CS_TABLE5, build_stochastic_order
from ordersafe.testing import resolve_weights

from conftest import solve_critical_oracle

SUITE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
QUADRANT = weights_closed_form_2d(0.0)


def random_weights(seed, p):
    rng = np.random.default_rng(seed)
    return ChiBarWeights(w=rng.dirichlet(np.full(p + 1, rng.choice([0.3, 1.0, 5.0]))))


def simple_order_weights(k):
    d = np.diff(np.eye(k), axis=0)
    return weights_exact(d @ d.T)


def outcome(solver, weights, alpha, mode, c2):
    """The solver's value, or the type of the error it raised."""
    try:
        return solver(weights, alpha, mode, c2)
    except InfeasibleLevelError:
        return InfeasibleLevelError


def assert_same(weights, alpha, mode="marginal", c2=None):
    got = outcome(solve_critical, weights, alpha, mode, c2)
    want = outcome(solve_critical_oracle, weights, alpha, mode, c2)
    assert got == want, (weights.w.tolist(), alpha, mode, c2, got, want)


def tail(weights, c, mode, c2):
    return mixture_upper_tail(weights, c) if mode == "marginal" else joint_tail(weights, c, c2)


@contextlib.contextmanager
def counted_tails():
    """Record the t of every chibar._chi2_tails pass made inside the block."""
    calls = []
    plain = chibar._chi2_tails

    def counting(t, p):
        calls.append(t)
        return plain(t, p)

    chibar._chi2_tails = counting
    try:
        yield calls
    finally:
        chibar._chi2_tails = plain


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 10)
MODES = st.sampled_from(["marginal", "joint"])
GAMMAS = st.sampled_from([0.01, 0.05, 0.1, 0.5])


@SUITE
@given(SEEDS, DIMS, st.floats(0.0, 1.0), MODES, GAMMAS)
def test_equals_the_bisection_on_random_mixtures(seed, p, u, mode, gamma):
    """alpha log-uniform in (1e-6, 1 - w_0); c2 from the complement solve."""
    weights = random_weights(seed, p)
    top = 1.0 - weights.w[0]
    assume(top > 1e-6)
    alpha = min(math.exp(math.log(1e-6) + u * math.log(top / 1e-6)), math.nextafter(top, 0.0))
    c2 = solve_critical(weights.complement(), gamma) if mode == "joint" else None
    assert_same(weights, alpha, mode, c2)


@pytest.mark.parametrize("alpha, gamma", [(0.05, 0.05), (0.1, 0.05), (0.05, 0.1), (0.05, 0.01)])
@pytest.mark.parametrize("seed", range(40))
def test_equals_the_bisection_at_the_report_and_grid_levels(seed, alpha, gamma):
    weights = QUADRANT if seed == 0 else random_weights(seed, 1 + seed % 10)
    c2 = solve_critical(weights.complement(), gamma)
    assert c2 == solve_critical_oracle(weights.complement(), gamma)
    assert_same(weights, alpha)
    assert_same(weights, alpha, "joint", c2)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 20])
@pytest.mark.parametrize("alpha", [math.nextafter(0.5, 0.0), 0.5 - 1e-12, 0.4999])
def test_equals_the_bisection_next_to_the_limit_at_zero(k, alpha):
    """(w_0, w_k) = (1/2, 1/2): the tail falls from 1/2 just above zero like
    c^(k/2), so the solution sits near zero and the density there is tiny
    for k > 2 and unbounded for k = 1."""
    w = np.zeros(k + 1)
    w[0] = w[k] = 0.5
    weights = ChiBarWeights(w=w)
    assert_same(weights, alpha)
    assert_same(weights, alpha, "joint", solve_critical(weights.complement(), 0.05))


@SUITE
@given(SEEDS, DIMS, st.floats(math.log(1e-6), math.log(0.3)), MODES, st.integers(0, 10**6),
       st.sampled_from([-1, 1]))
def test_equals_the_bisection_on_a_band_edge(seed, p, log_alpha, mode, pick, side):
    """Move alpha so that a point the bisection tried sits on an edge of the
    stopping band, then also one ulp either side of that alpha."""
    weights = random_weights(seed, p)
    c2 = solve_critical(weights.complement(), 0.05) if mode == "joint" else None
    alpha = math.exp(log_alpha)
    with counted_tails() as calls:
        start = outcome(solve_critical_oracle, weights, alpha, mode, c2)
    points = [t for t in calls if t != c2 and t > 0.0]
    assume(start is not InfeasibleLevelError and points)
    v = tail(weights, points[pick % len(points)], mode, c2)
    edge = v + side * min(1e-10, 1e-8 * v)
    edge = v + side * min(1e-10, 1e-8 * edge)
    assume(0.0 < edge < 1.0)
    for level in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)):
        assert_same(weights, level, mode, c2)


@pytest.mark.parametrize("w, alpha", [
    ([0.5 + 1e-13, 0.5, -1e-13], 0.05),     # a negative weight
    ([0.5 + 1e-13, 0.5, -1e-13], 0.3),
    ([1.0 / 121] * 121, 0.05),              # p above _CERT_MAX_DIM
    ([0.25, 0.5, 0.25], 1e-250),            # alpha below _CERT_MIN_LEVEL
], ids=["negative-weight-0.05", "negative-weight-0.3", "p120", "alpha-1e-250"])
@pytest.mark.parametrize("mode", ["marginal", "joint"])
def test_uncertified_solves_are_the_bisection_itself(w, alpha, mode):
    """Without a certificate every point is evaluated, as in the bisection."""
    weights = ChiBarWeights(w=np.array(w))
    c2 = solve_critical(weights.complement(), 0.05) if mode == "joint" else None
    with counted_tails() as new:
        got = outcome(solve_critical, weights, alpha, mode, c2)
    with counted_tails() as old:
        want = outcome(solve_critical_oracle, weights, alpha, mode, c2)
    assert got == want and new == old


#: Tail passes of solve_critical for a fixed list of solves: the marginal
#: c'_gamma of the complement, the marginal c_alpha and the joint c_alpha,safe of the
#: quadrant, the rho = 0.9 mixture and simple orders at K = 4, 6 and 8, at
#: (alpha, gamma) = (0.05, 0.05), (0.1, 0.05) and (0.01, 0.1). The bisection
#: makes 32.9 passes per solve on this list. Neither counts a pass for the
#: tails at c1 = 0 of a joint solve: they are all exactly 1.
PINNED_PASSES = [
    6, 6, 7, 6, 6, 7, 6, 5, 7,  # quadrant
    6, 7, 7, 6, 6, 8, 6, 5, 6,  # rho = 0.9
    5, 6, 7, 5, 7, 7, 5, 5, 6,  # K = 4
    6, 5, 6, 6, 5, 6, 6, 5, 6,  # K = 6
    6, 6, 7, 6, 5, 6, 7, 6, 7,  # K = 8
]


def test_tail_passes_per_solve():
    mixtures = [QUADRANT, weights_closed_form_2d(0.9)] + [simple_order_weights(k)
                                                         for k in (4, 6, 8)]
    new, old = [], []
    for weights in mixtures:
        for alpha, gamma in ((0.05, 0.05), (0.1, 0.05), (0.01, 0.1)):
            polar = weights.complement()
            c2 = solve_critical(polar, gamma)
            for args in ((polar, gamma, "marginal", None), (weights, alpha, "marginal", None),
                         (weights, alpha, "joint", c2)):
                with counted_tails() as calls:
                    got = solve_critical(*args)
                new.append(len(calls))
                with counted_tails() as calls:
                    assert got == solve_critical_oracle(*args)
                old.append(len(calls))
    assert new == PINNED_PASSES
    assert 3 * sum(new) <= sum(old)
    # a level far below 1e-20 is still certified: without the certificate
    # the same value takes 41 passes
    with counted_tails() as calls:
        got = solve_critical(QUADRANT, 1e-30)
    assert len(calls) == 5
    assert got == solve_critical_oracle(QUADRANT, 1e-30)


def test_upper_tails_at_zero_are_exactly_one():
    """The joint solve reads its tails at c1 = 0 as [1.0] * (p + 1), not from a pass."""
    for p in range(130):
        assert chibar._chi2_tails(0.0, p)[0] == [1.0] * (p + 1)


@pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("weights", [QUADRANT, weights_closed_form_2d(-0.6),
                                     ChiBarWeights(w=np.array([0.1, 0.2, 0.3, 0.25, 0.15]))],
                         ids=["quadrant", "rho-0.6", "p4"])
def test_small_levels_are_solved_to_a_relative_tolerance(weights, alpha):
    """The stopping band is min(1e-10, 1e-8 alpha) wide on each side."""
    c = solve_critical(weights, alpha)
    assert abs(mixture_upper_tail(weights, c) - alpha) <= 1e-8 * alpha
    c2 = solve_critical(weights.complement(), 0.05)
    c_joint = solve_critical(weights, alpha, "joint", c2)
    assert abs(joint_tail(weights, c_joint, c2) - alpha) <= 1e-8 * alpha


def test_the_quadrant_at_1e_13():
    """An absolute band of 1e-10 returned 48.0 here, whose tail is 116 alpha."""
    c = solve_critical(QUADRANT, 1e-13)
    assert c == pytest.approx(57.4709, abs=1e-4)
    assert abs(mixture_upper_tail(QUADRANT, c) - 1e-13) <= 1e-21


def attainable(solver, *args):
    with pytest.raises(InfeasibleLevelError) as err:
        solver(*args)
    return err.value.attainable


def test_infeasible_levels_name_the_oracle_attainable_on_cs_table5():
    """The oracle sums the faces but the apex itself; solve_critical names
    chibar's one c -> 0+ limit, attained_level at 0."""
    problem = build_stochastic_order(CS_TABLE5)
    weights = resolve_weights(problem.statistic(), problem.subspace(), problem.cone())
    c2 = solve_critical(weights.complement(), 0.05)
    got = attainable(solve_critical, weights, 0.97, "joint", c2)
    assert f"{got:.12g}" == "0.767782741206"
    assert got == pytest.approx(attainable(solve_critical_oracle, weights, 0.97, "joint", c2),
                                rel=1e-15, abs=0.0)
    assert attained_level(weights, 0.0, c2) == got


@pytest.mark.parametrize("seed", range(1, 21))
def test_infeasible_levels_name_the_oracle_attainable(seed):
    weights = random_weights(seed, 1 + seed % 10)
    c2 = solve_critical(weights.complement(), 0.05)
    alpha = 0.5 * (joint_tail(weights, 0.0, c2) + 1.0)
    assert attainable(solve_critical, weights, alpha, "joint", c2) == pytest.approx(
        attainable(solve_critical_oracle, weights, alpha, "joint", c2), rel=1e-15, abs=0.0)
