"""Property suite for the chi-square and chi-bar-square tails.

The tails feed every p-value, critical value and attained level, so they
are checked as black boxes: monotone in t, complementary, and equal to an
independent mpmath evaluation to 1e-13 relative over df 1..12 and t in
[1e-8, 200].
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe.chibar import (
    ChiBarWeights,
    chi2_cdf,
    chi2_sf,
    mixture_lower_tail,
    mixture_upper_tail,
)

from conftest import mp_chi2_cdf, mp_chi2_sf

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
