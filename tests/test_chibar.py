import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe import chibar
from ordersafe.chibar import (
    EXACT_MAX_DIM,
    ChiBarWeights,
    _orthant_probabilities,
    correlation_2x2,
    joint_tail,
    mixture_lower_tail,
    mixture_upper_tail,
    safe_level_2d,
    solve_critical,
    solve_nominal_level,
    weights_closed_form_1d,
    weights_closed_form_2d,
    weights_exact,
    weights_monte_carlo,
)
from ordersafe.errors import (
    CapabilityError,
    ContractViolationError,
    InfeasibleLevelError,
    NumericError,
)
from ordersafe.geometry import ConeSpec

from conftest import mp_chi2_sf, random_spd

QUADRANT = weights_closed_form_2d(0.0)


class TestClosedFormWeights:
    def test_independent_case_is_quarter_half_quarter(self):
        np.testing.assert_allclose(QUADRANT.w, [0.25, 0.5, 0.25], atol=1e-15)

    def test_interclass_09(self):
        w = weights_closed_form_2d(0.9)
        assert w.w[2] == pytest.approx(0.5 - np.arccos(0.9) / (2 * np.pi), abs=1e-15)
        assert w.w[2] == pytest.approx(0.4282, abs=5e-5)
        # the 5% critical value of this mixture is the documented 4.915
        assert solve_critical(w, 0.05) == pytest.approx(4.915, abs=1e-3)

    def test_perfect_correlation_limit(self):
        w = weights_closed_form_2d(1.0 - 1e-12)
        np.testing.assert_allclose(w.w, [0.0, 0.5, 0.5], atol=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            weights_closed_form_2d(1.0)

    def test_weights_normalized_and_nonnegative(self, rng):
        for _ in range(25):
            w = weights_closed_form_2d(rng.uniform(-0.99, 0.99))
            assert np.all(w.w >= 0)
            assert w.w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**1023, 2.0**-565, 2.0**-1020])
    def test_correlation_is_scale_free(self, scale):
        """psi_00 psi_11 would leave double range; the correlation must not."""
        psi = np.array([[1.0, 0.9], [0.9, 0.5]])
        assert correlation_2x2(scale * psi) == correlation_2x2(psi)

    def test_complement_reverses(self):
        w = weights_closed_form_2d(0.3)
        np.testing.assert_allclose(w.complement().w, w.w[::-1])
        np.testing.assert_allclose(w.complement().complement().w, w.w)


class TestMonteCarloWeights:
    def test_identity_2d(self):
        w = weights_monte_carlo(np.eye(2), n_draws=200_000, seed=7)
        np.testing.assert_allclose(w.w, [0.25, 0.5, 0.25], atol=0.005)
        assert w.w.sum() == pytest.approx(1.0, abs=0.0)  # counts / N is exact

    def test_matches_closed_form_under_correlation(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        w = weights_monte_carlo(sigma, n_draws=200_000, seed=11)
        expected = weights_closed_form_2d(0.9)
        np.testing.assert_allclose(w.w, expected.w, atol=0.005)

    def test_one_dimensional_symmetry(self):
        w = weights_monte_carlo(np.eye(1), n_draws=100_000, seed=3)
        np.testing.assert_allclose(w.w, [0.5, 0.5], atol=0.006)

    def test_deterministic_given_seed(self):
        a = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=42)
        b = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=42)
        np.testing.assert_array_equal(a.w, b.w)
        c = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=43)
        assert not np.array_equal(a.w, c.w)

    @pytest.mark.parametrize("p, counts", [
        (3, (10035, 18419, 9926, 1620)),
        (5, (6664, 15174, 12627, 4663, 827, 45)),
        (9, (4062, 11227, 12872, 8101, 2961, 665, 98, 14, 0, 0)),
        (7, (5026, 12921, 13059, 6747, 1926, 297, 23, 1)),
    ])
    def test_pinned_face_counts(self, p, counts):
        """Seeded face counts on simple-order R R' are fixed to the bit."""
        r = ConeSpec.simple_order(p + 1).as_polyhedral()
        w = weights_monte_carlo(r @ r.T, n_draws=40_000, seed=11)
        assert w.w.tolist() == [c / 40_000 for c in counts]

    @pytest.mark.parametrize("p, counts", [
        (3, (5019, 14963, 15049, 4969)),
        (5, (1283, 6183, 12497, 12428, 6328, 1281)),
        (7, (308, 2242, 6407, 10928, 10968, 6592, 2214, 341)),
        (9, (77, 692, 2841, 6534, 9759, 9821, 6658, 2881, 652, 85)),
    ])
    def test_pinned_identity_face_counts(self, p, counts):
        """Seeded face counts under an identity psi are fixed to the bit,
        the values of the least-objective projector this one replaced."""
        w = weights_monte_carlo(np.eye(p), n_draws=40_000, seed=11)
        assert w.w.tolist() == [c / 40_000 for c in counts]

    @pytest.mark.parametrize("scale", [2.0**1000, 1e308])
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("order", ["identity", "simple"])
    def test_face_counts_do_not_depend_on_scale(self, order, p, scale):
        """Draws of scale * psi square past double range; their faces are
        those of psi (simple-order R R' / 2 keeps the scaled diagonal finite)."""
        r = ConeSpec.simple_order(p + 1).as_polyhedral()
        psi = np.eye(p) if order == "identity" else 0.5 * (r @ r.T)
        want = weights_monte_carlo(psi, n_draws=40_000, seed=11).w
        np.testing.assert_array_equal(
            weights_monte_carlo(scale * psi, n_draws=40_000, seed=11).w, want)

    def test_three_dimensional_weights_sum_to_one(self, rng):
        sigma = random_spd(rng, 3)
        w = weights_monte_carlo(sigma, n_draws=50_000, seed=5)
        assert w.p == 3
        assert w.w.sum() == pytest.approx(1.0, abs=0.0)


def equicorrelation(d, rho):
    c = np.full((d, d), float(rho))
    np.fill_diagonal(c, 1.0)
    return c


def mp_equicorrelated_orthant(d, rho):
    """Independent oracle: P(X >= 0) for d equicorrelated N(0, 1), rho >= 0.

    X_i = sqrt(rho) Z + sqrt(1 - rho) Y_i, so conditioning on Z leaves a
    product: P = int phi(z) Phi(z sqrt(rho / (1 - rho)))^d dz.
    """
    a = mpmath.sqrt(mpmath.mpf(rho) / (1 - mpmath.mpf(rho)))
    f = lambda z: mpmath.npdf(z) * mpmath.ncdf(a * z) ** d
    return float(mpmath.quad(f, [-mpmath.inf, -1, 0, 1, mpmath.inf]))


class TestExactWeights:
    def test_low_dimensions_match_closed_forms(self):
        np.testing.assert_allclose(weights_exact(np.eye(1)).w, weights_closed_form_1d().w,
                                   rtol=0, atol=1e-15)
        for rho in (-0.95, -0.3, 0.0, 0.45, 0.9, 0.99):
            psi = np.array([[4.0, 2.0 * rho * 0.7], [2.0 * rho * 0.7, 0.49]])
            np.testing.assert_allclose(weights_exact(psi).w, weights_closed_form_2d(rho).w,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_identity_gives_binomial_weights(self, p):
        w = weights_exact(np.eye(p))
        expected = [math.comb(p, j) / 2**p for j in range(p + 1)]
        np.testing.assert_allclose(w.w, expected, rtol=0, atol=1e-14)
        assert (w.source, w.n_draws, w.seed) == ("exact", None, None)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orthant_helper_at_equicorrelation_half(self, d):
        nodes = np.polynomial.legendre.leggauss(16)
        prob = _orthant_probabilities(equicorrelation(d, 0.5)[None], nodes)[0]
        assert prob == pytest.approx(1.0 / (d + 1), abs=1e-15)

    def test_near_singular_equicorrelation(self):
        """rho = 0.99 at p = 5 needs more than the first pass's nodes.

        For equicorrelated psi every face term of one size is equal: the
        first factor is equicorrelated with rho / (1 + m rho), m = p - j,
        the second with -rho / (1 + (m - 2) rho) in dimension m. For j >= 2
        that dimension is at most 3, where the orthant law is Sheppard's.
        """
        p, rho = 5, 0.99
        w = weights_exact(equicorrelation(p, rho))
        assert abs(w.w.sum() - 1.0) <= 1e-12
        assert abs(w.w @ (-1.0) ** np.arange(p + 1)) <= 1e-12
        for j in range(2, p + 1):
            m = p - j
            s = math.asin(-rho / (1.0 + (m - 2) * rho)) if m >= 2 else 0.0
            second = [1.0, 0.5, 0.25 + s / (2 * math.pi), 0.125 + 3 * s / (4 * math.pi)][m]
            expected = math.comb(p, j) * mp_equicorrelated_orthant(j, rho / (1 + m * rho)) * second
            assert w.w[j] == pytest.approx(expected, rel=0, abs=1e-12), j

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            weights_exact(np.eye(EXACT_MAX_DIM + 1))

    def test_non_finite_weights_are_numeric_errors(self, monkeypatch):
        monkeypatch.setattr(chibar, "_kudo_weights", lambda corr, prec, nodes: np.full(5, np.nan))
        with pytest.raises(NumericError, match="not finite"):
            weights_exact(np.eye(4))

    @pytest.mark.parametrize("p", range(3, 8))
    @pytest.mark.parametrize("order", ["simple", "tree"])
    def test_monte_carlo_oracle(self, order, p):
        """Face counts at N = 2e5 lie within 4 binomial standard errors."""
        rng = np.random.default_rng(100 + p)
        r = getattr(ConeSpec, f"{order}_order")(p + 1).as_polyhedral()
        psi = r @ random_spd(rng, p + 1) @ r.T
        exact = weights_exact(psi).w
        n = 200_000
        mc = weights_monte_carlo(psi, n_draws=n, seed=p).w
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(mc - exact) <= 4.0 * se), (mc, exact)


@st.composite
def _spd_matrices(draw):
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_spd(rng, p, 0.1, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_spd_matrices())
def test_exact_weights_identities_and_polar_duality(psi):
    """Sum and parity identities, nonnegativity, and w(psi^-1) = reversed w(psi)."""
    w = weights_exact(psi).w
    assert np.all(w >= -1e-15)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(w @ (-1.0) ** np.arange(w.size)) <= 1e-12
    np.testing.assert_allclose(weights_exact(np.linalg.inv(psi)).w, w[::-1], rtol=0, atol=1e-12)


class TestMixtureTails:
    def test_total_mass_at_zero(self):
        assert mixture_upper_tail(QUADRANT, 0.0) == pytest.approx(1.0)

    def test_total_mass_is_exactly_one(self):
        """At t = 0 the tail is 1.0 even where the exact weights sum above 1."""
        r = ConeSpec.simple_order(6).as_polyhedral()
        w = weights_exact(r @ r.T)
        assert w.w.sum() > 1.0
        assert mixture_upper_tail(w, 0.0) == 1.0
        assert mixture_upper_tail(w, -0.0) == 1.0
        assert mixture_upper_tail(w, 1e-300) == pytest.approx(1.0 - w.w[0], abs=1e-15)

    def test_value_against_mpmath(self):
        t = 4.915
        expected = 0.5 * mp_chi2_sf(t, 1) + 0.25 * mp_chi2_sf(t, 2)
        assert mixture_upper_tail(QUADRANT, t) == pytest.approx(expected, abs=1e-12)
        assert mixture_upper_tail(QUADRANT, t) == pytest.approx(0.03472, abs=5e-5)

    def test_vanishes_at_infinity(self):
        assert mixture_upper_tail(QUADRANT, 1e6) == pytest.approx(0.0, abs=1e-300)

    def test_strictly_decreasing_beyond_zero(self):
        ts = np.linspace(0.01, 20.0, 200)
        vals = [mixture_upper_tail(QUADRANT, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ContractViolationError):
            mixture_upper_tail(QUADRANT, -0.5)

    def test_lower_tail_complements_upper(self):
        """P(mix >= t) + P(mix < t) = 1; the atom at zero is counted once."""
        for t in (0.0, 0.5, 3.0):
            total = mixture_upper_tail(QUADRANT, t) + mixture_lower_tail(QUADRANT, t)
            assert total == pytest.approx(1.0, abs=1e-12)
        # at t just above zero the atom has moved to the lower tail
        assert mixture_lower_tail(QUADRANT, 1e-300) == pytest.approx(
            QUADRANT.w[0], abs=1e-12
        )


class TestJointTail:
    def test_whole_space(self):
        assert joint_tail(QUADRANT, 0.0, 1e9) == pytest.approx(1.0)

    def test_marginalizes_to_lower_tail_at_c1_zero(self):
        for c in (0.5, 2.0, 5.0):
            expected = sum(
                QUADRANT.w[j] * mixture_lower_tail(weights_for_df(2 - j), c)
                for j in range(3)
            )
            # compare against the direct complementary-dimension sum instead
            direct = (
                QUADRANT.w[0] * (1 - mp_chi2_sf(c, 2))
                + QUADRANT.w[1] * (1 - mp_chi2_sf(c, 1))
                + QUADRANT.w[2] * 1.0
            )
            assert joint_tail(QUADRANT, 0.0, c) == pytest.approx(direct, abs=1e-12)

    def test_monotone_in_both_arguments(self):
        base = joint_tail(QUADRANT, 2.0, 3.0)
        assert joint_tail(QUADRANT, 2.5, 3.0) <= base
        assert joint_tail(QUADRANT, 2.0, 3.5) >= base

    def test_agrees_with_gaussian_corner_formula(self):
        """Independent route: the two rejected corners have product form.

        P(T >= c1, T' < c2) = P(T >= c1) - 2 phibar(sqrt(c1)) phibar(sqrt(c2))
        for the independent quadrant problem, by classifying the four sign
        quadrants of the underlying Gaussian directly.
        """
        def phibar(z):
            return 0.5 * math.erfc(z / math.sqrt(2.0))

        c1 = solve_critical(QUADRANT, 0.05)
        c2 = solve_critical(QUADRANT, 0.1)
        lhs = joint_tail(QUADRANT, c1, c2)
        rhs = mixture_upper_tail(QUADRANT, c1) - 2.0 * phibar(math.sqrt(c1)) * phibar(math.sqrt(c2))
        assert lhs == pytest.approx(rhs, abs=1e-6)


def weights_for_df(p):
    w = np.zeros(p + 1)
    w[-1] = 1.0
    return ChiBarWeights(w=w)


class TestSolveCritical:
    def test_documented_interclass_anchor(self):
        w = weights_closed_form_2d(0.9)
        assert solve_critical(w, 0.05) == pytest.approx(4.915, abs=1e-3)

    def test_round_trip_median(self):
        c = solve_critical(QUADRANT, 0.5)
        assert mixture_upper_tail(QUADRANT, c) == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_high_alpha_returns_zero(self):
        # tail drops to 1 - w0 = 0.75 just above zero
        assert solve_critical(QUADRANT, 0.80) == 0.0
        assert solve_critical(QUADRANT, 0.7499) > 0.0

    def test_joint_mode_round_trip(self):
        c2 = solve_critical(QUADRANT.complement(), 0.1)
        c = solve_critical(QUADRANT, 0.05, mode="joint", c2=c2)
        assert joint_tail(QUADRANT, c, c2) == pytest.approx(0.05, abs=1e-9)
        assert c <= solve_critical(QUADRANT, 0.05)

    def test_joint_mode_infeasible_names_supremum(self):
        c2 = solve_critical(QUADRANT.complement(), 0.1)
        sup = joint_tail(QUADRANT, 0.0, c2)
        with pytest.raises(InfeasibleLevelError) as err:
            solve_critical(QUADRANT, sup + 0.01, mode="joint", c2=c2)
        assert err.value.attainable == pytest.approx(sup)

    def test_alpha_range_validated(self):
        with pytest.raises(ContractViolationError):
            solve_critical(QUADRANT, 0.0)


class TestSafeLevel2d:
    def test_reference_values(self):
        assert safe_level_2d(0.1, 0.1) == pytest.approx(0.0999, abs=1e-4)
        assert safe_level_2d(0.1, 0.5) == pytest.approx(0.0988, abs=1e-4)

    def test_frozen_regression_values(self):
        assert safe_level_2d(0.1, 0.1) == pytest.approx(0.09999502952196, abs=1e-12)
        assert safe_level_2d(0.1, 0.5) == pytest.approx(0.09881587806904, abs=1e-12)

    def test_loose_certificate_costs_nothing(self):
        assert safe_level_2d(0.05, 1e-12) == pytest.approx(0.05, abs=1e-13)

    def test_never_exceeds_alpha_on_grid(self):
        for alpha in np.linspace(0.02, 0.5, 10):
            for gamma in np.linspace(0.02, 0.9, 10):
                assert safe_level_2d(alpha, gamma) <= alpha


class TestNominalLevelAdjustment:
    def test_round_trip(self):
        c2 = solve_critical(QUADRANT.complement(), 0.1)
        nominal = solve_nominal_level(QUADRANT, 0.05, c2)
        attained = joint_tail(QUADRANT, solve_critical(QUADRANT, nominal), c2)
        assert attained == pytest.approx(0.05, abs=1e-8)
        assert nominal >= 0.05

    @pytest.mark.parametrize("rho, gamma, target, expected", [
        (0.0, 0.1, 0.05, 0.051768578588960695),
        (0.0, 0.05, 0.05, 0.050802026409654984),
        (0.9, 0.05, 0.01, 0.010061492491513429),
        (-0.5, 0.1, 0.05, 0.05291480533778361),
    ])
    def test_frozen_values(self, rho, gamma, target, expected):
        """Bit-identical to the bisection that evaluated the attained level twice per step."""
        w = weights_closed_form_2d(rho)
        assert solve_nominal_level(w, target, solve_critical(w, gamma)) == expected
