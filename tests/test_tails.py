"""Property suite for the chi-square and chi-bar-square tails.

The tails feed every p-value, critical value and attained level, so they
are checked as black boxes: monotone in t, complementary, and equal to an
independent mpmath evaluation to 1e-13 relative over df 1..12 and t in
[1e-8, 200], and to 1e-12 relative (or below 1e-290 with the true value)
over df 1..2000, where x^(df/2), Gamma(df/2 + 1) and e^(-t/2) leave the
doubles. The lower tails are read from the cdf half of chibar's one
evaluator (conftest.chi2_cdf), which joint_tail's pre-test factors use.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe.chibar import (
    ChiBarWeights,
    attained_level,
    chi2_sf,
    joint_tail,
    mixture_upper_tail,
    solve_critical,
)
from ordersafe.errors import ContractViolationError
from ordersafe.testing import p_value

from conftest import (
    chi2_cdf,
    chi2_cdf_oracle,
    chi2_sf_oracle,
    joint_tail_oracle,
    mixture_lower_tail,
    mixture_lower_tail_oracle,
    mixture_upper_tail_oracle,
    mp_chi2_cdf,
    mp_chi2_sf,
)

DFS = st.integers(1, 12)
TS = st.floats(1e-8, 200.0)
SUITE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _rel(got, want):
    return abs(got - want) / want


@SUITE
@given(DFS, TS, TS)
def test_chi2_tails_monotone(df, a, b):
    lo, hi = min(a, b), max(a, b)
    assert chi2_sf(lo, df) >= chi2_sf(hi, df)
    assert chi2_cdf(lo, df) <= chi2_cdf(hi, df)


@SUITE
@given(DFS, TS)
def test_chi2_tails_complement(df, t):
    assert abs(chi2_sf(t, df) + chi2_cdf(t, df) - 1.0) <= 1e-15


@SUITE
@given(DFS, TS)
def test_chi2_tails_match_mpmath(df, t):
    assert _rel(chi2_sf(t, df), mp_chi2_sf(t, df)) <= 1e-13
    assert _rel(chi2_cdf(t, df), mp_chi2_cdf(t, df)) <= 1e-13


def test_chi2_tails_match_mpmath_on_a_grid():
    """Every df on a log grid that reaches both ends of the range."""
    for df in range(1, 13):
        for t in np.geomspace(1e-8, 200.0, 61):
            assert _rel(chi2_sf(t, df), mp_chi2_sf(t, df)) <= 1e-13, (df, t)
            assert _rel(chi2_cdf(t, df), mp_chi2_cdf(t, df)) <= 1e-13, (df, t)


def _close_or_tiny(got, want):
    """Within 1e-12 relative, or below 1e-290 where the true value is."""
    return abs(got - want) <= 1e-12 * want if want >= 1e-290 else 0.0 <= got <= 1e-290


@st.composite
def _large_df_points(draw):
    """df up to 2000 and t around df, or anywhere up to 6000 (x = t/2 up to
    3000, past the e^-x underflow at 745)."""
    df = draw(st.integers(1, 2000))
    return df, draw(st.one_of(st.floats(0.0, 3.0).map(lambda u: u * df), st.floats(0.0, 6000.0)))


@SUITE
@given(_large_df_points())
def test_chi2_tails_match_mpmath_at_large_df(point):
    df, t = point
    assert _close_or_tiny(chi2_sf(t, df), mp_chi2_sf(t, df)), point
    assert _close_or_tiny(chi2_cdf(t, df), mp_chi2_cdf(t, df)), point


@pytest.mark.parametrize("t, df", [(286.0, 285), (288.0, 286), (0.1, 342), (1504.0, 1500),
                                   (1460.0, 1440), (1416.8, 1400), (1e6, 2000), (5e-324, 2000)])
def test_chi2_tails_where_the_direct_form_leaves_the_doubles(t, df):
    """x^a past the doubles (df 285 and 286), Gamma(a + 1) past them (from df
    342), e^-x zero or subnormal (x = 752 and 730); these read -inf, raised
    OverflowError, or read 0.0 or off by 1.8e-7 relative."""
    assert _close_or_tiny(chi2_sf(t, df), mp_chi2_sf(t, df))
    assert _close_or_tiny(chi2_cdf(t, df), mp_chi2_cdf(t, df))


def test_mixtures_of_287_components_are_probabilities():
    weights = ChiBarWeights(w=np.full(287, 1.0 / 287))
    for value in (mixture_upper_tail(weights, 286.0), mixture_lower_tail(weights, 286.0),
                  joint_tail(weights, 286.0, 2.0), attained_level(weights, 0.0, 2.0),
                  p_value(286.0, weights, "type_b")):
        assert 0.0 < value < 1.0
    c2 = solve_critical(weights.complement(), 0.05)
    c_joint = solve_critical(weights, 0.05, "joint", c2)
    assert abs(joint_tail(weights, c_joint, c2) - 0.05) <= 1e-10
    assert 0.05 < mixture_upper_tail(weights, c_joint) < 1.0


def test_a_level_of_1e_300_is_solved_to_the_true_tail():
    """At p = 50 the solve used to return c = 1490.27, whose true tail is 8.4e-281."""
    weights = ChiBarWeights(w=np.full(51, 1.0 / 51))
    c = solve_critical(weights, 1e-300)
    true_tail = math.fsum(mp_chi2_sf(c, df) for df in range(1, 51)) / 51
    assert abs(true_tail - 1e-300) <= 1e-7 * 1e-300


@st.composite
def _mixtures(draw):
    p = draw(st.integers(1, 12))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=p + 1, max_size=p + 1)))
    if raw.sum() <= 0.0:
        raw[-1] = 1.0
    return ChiBarWeights(w=raw / raw.sum())


@SUITE
@given(_mixtures(), st.one_of(st.just(0.0), TS), TS)
def test_mixture_tails_monotone_and_complementary(weights, a, b):
    lo, hi = min(a, b), max(a, b)
    assert mixture_upper_tail(weights, lo) >= mixture_upper_tail(weights, hi)
    assert mixture_lower_tail(weights, lo) <= mixture_lower_tail(weights, hi)
    for t in (lo, hi):
        total = mixture_upper_tail(weights, t) + mixture_lower_tail(weights, t)
        assert abs(total - 1.0) <= 1e-14


#: Edge points of the tails: zero, subnormals, x = t/2 exactly at the series
#: switch df/2 + 1 (t = df + 2) for every df, huge and infinite arguments.
EDGE_TS = [0.0, 5e-324, 1e-310, 2.2e-308] + [float(df + 2) for df in range(1, 13)] + [
    1e300, math.inf]
ANY_TS = st.one_of(st.sampled_from(EDGE_TS), st.floats(0.0, 1e3), st.floats(0.0, 1e308))


def _same(got, want):
    return np.array_equal(np.float64(got), np.float64(want))


@SUITE
@given(DFS, ANY_TS)
def test_chi2_tails_match_the_per_df_reference_bit_for_bit(df, t):
    assert _same(chi2_sf(t, df), chi2_sf_oracle(t, df))
    assert _same(chi2_cdf(t, df), chi2_cdf_oracle(t, df))


def test_chi2_tails_match_the_per_df_reference_at_the_edges():
    for df in range(1, 13):
        for t in EDGE_TS:
            assert _same(chi2_sf(t, df), chi2_sf_oracle(t, df)), (df, t)
            assert _same(chi2_cdf(t, df), chi2_cdf_oracle(t, df)), (df, t)


@SUITE
@given(_mixtures(), ANY_TS, ANY_TS)
def test_mixture_tails_match_the_per_df_reference_bit_for_bit(weights, a, b):
    w = weights.w
    assert _same(mixture_upper_tail(weights, a), mixture_upper_tail_oracle(w, a))
    assert _same(mixture_lower_tail(weights, a), mixture_lower_tail_oracle(w, a))
    assert _same(joint_tail(weights, a, b), joint_tail_oracle(w, a, b))


QUARTER = ChiBarWeights(w=np.array([0.25, 0.5, 0.25]))


@pytest.mark.parametrize("call", [
    lambda: chi2_sf(math.nan, 3),
    lambda: mixture_upper_tail(QUARTER, math.nan),
    lambda: joint_tail(QUARTER, math.nan, 1.0),
    lambda: joint_tail(QUARTER, 1.0, math.nan),
], ids=["chi2_sf", "upper", "joint_c1", "joint_c2"])
def test_nan_arguments_are_rejected(call):
    with pytest.raises(ContractViolationError, match="number, not nan"):
        call()


def test_an_int_beyond_the_float_range_is_rejected():
    """float(10**400) overflows; the real-number rule refuses it by name."""
    with pytest.raises(ContractViolationError, match="t must be a real number, not 1000"):
        chi2_sf(10**400, 1)


@pytest.mark.parametrize("df", [0, -1, 2.5, True])
def test_degrees_of_freedom_must_be_positive_integers(df):
    with pytest.raises(ContractViolationError, match="df must be an integer"):
        chi2_sf(1.0, df)


@pytest.mark.parametrize("c", [1e-8, 0.5, 3.0, 40.0])
@pytest.mark.parametrize("w", [[0.25, 0.5, 0.25], [0.1, 0.2, 0.3, 0.25, 0.15]],
                         ids=["quadrant", "p4"])
def test_joint_tail_at_c2_zero_is_the_full_support(w, c):
    """A zero residual is certified at every c2, so at c2 = 0 the full
    support is all that is left; every other term is exactly 0.0."""
    weights = ChiBarWeights(w=np.array(w))
    assert joint_tail(weights, c, 0.0) == weights.w[-1] * chi2_sf(c, weights.p)


def test_infinite_arguments_stay_valid():
    assert mixture_upper_tail(QUARTER, math.inf) == 0.0
    assert mixture_lower_tail(QUARTER, math.inf) == 1.0
    assert joint_tail(QUARTER, 0.0, math.inf) == 1.0
    assert joint_tail(QUARTER, math.inf, 1.0) == 0.0
    assert chi2_sf(math.inf, 4) == 0.0 and chi2_cdf(math.inf, 4) == 1.0
