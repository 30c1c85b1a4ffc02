import numpy as np
import pytest

from ordersafe.chibar import EXACT_MAX_DIM, solve_critical, weights_closed_form_2d, weights_exact
from ordersafe.errors import ContractViolationError, InfeasibleLevelError, NumericError
from ordersafe.geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    in_polar_orthant,
    project_orthant_batch,
)
from ordersafe.isotonic import WeightedSeries, simple_order_consistency
from ordersafe.studies import silvapulle_case
from ordersafe.testing import (
    FULL_SPACE,
    Conclusion,
    Statistic,
    WeightConfig,
    consistency_region,
    delta,
    dt_type_a,
    dt_type_b,
    p_value,
    resolve_weights,
    safe_test,
)

from conftest import random_spd

ORTHANT2 = ConeSpec.orthant(2)
ZERO2 = LinearSubspace.zero(2)


def gaussian_stat(s, sigma, n):
    return Statistic(s_n=np.asarray(s, dtype=float), sigma_n=Metric(sigma), n=n)


class TestDistanceStatistics:
    @pytest.mark.parametrize("n", [0, True, 2**53 + 1, 10**400],
                             ids=["zero", "bool", "above-2**53", "beyond-float"])
    def test_sample_size_must_be_a_float_exact_positive_integer(self, n):
        with pytest.raises(ContractViolationError, match="n must be"):
            Statistic(s_n=np.zeros(2), sigma_n=Metric(np.eye(2)), n=n)
        Statistic(s_n=np.zeros(2), sigma_n=Metric(np.eye(2)), n=2**53)

    def test_type_a_vanishes_on_null(self, rng):
        sigma = random_spd(rng, 3)
        sub = LinearSubspace.span_of_ones(3)
        cone = ConeSpec.simple_order(3)
        stat = gaussian_stat([2.0, 2.0, 2.0], sigma, 12)
        assert dt_type_a(stat, sub, cone) == pytest.approx(0.0, abs=1e-10)

    def test_type_b_vanishes_on_cone(self):
        stat = gaussian_stat([1.0, 2.0], np.eye(2), 9)
        assert dt_type_b(stat, ORTHANT2) == pytest.approx(0.0, abs=1e-12)

    def test_negative_mean_interclass_example(self):
        stat, anchors = silvapulle_case()
        t = dt_type_a(stat, ZERO2, ORTHANT2)
        assert t == pytest.approx(anchors["t_n"], abs=anchors["t_n_tol"])
        # exact value from the hand-solved face projection (0, 0.7)
        assert t == pytest.approx(5 * 0.7**2 / 0.19, abs=1e-9)
        t_aux = dt_type_b(stat, ORTHANT2)
        assert t_aux == pytest.approx(45.0, abs=1e-9)

    def test_apex_projection_equals_full_norm(self):
        """A point in the polar cone is projected to the apex."""
        stat = gaussian_stat([-3.0, -2.0], np.eye(2), 5)
        expected = 5 * (9.0 + 4.0)
        assert dt_type_b(stat, ORTHANT2) == pytest.approx(expected, abs=1e-9)

    def test_null_not_inside_cone_rejected(self):
        sub = LinearSubspace.from_basis(np.array([[1.0], [0.0]]))
        with pytest.raises(ContractViolationError):
            dt_type_a(gaussian_stat([1.0, 1.0], np.eye(2), 4), sub, ORTHANT2)

    @pytest.mark.parametrize("s_n,n", [([np.nan, 1.0], 4), ([1.0, np.inf], 4),
                                       ([1.0, 1.0], True), ([1.0, 1.0], 0)])
    def test_statistic_rejects_invalid_values(self, s_n, n):
        with pytest.raises(ContractViolationError):
            gaussian_stat(s_n, np.eye(2), n)


class TestPValues:
    def test_conventions_at_zero(self):
        w = weights_closed_form_2d(0.3)
        assert p_value(0.0, w, "type_b") == pytest.approx(1.0)
        assert p_value(0.0, w, "type_a") == pytest.approx(1.0)
        assert p_value(1e-12, w, "type_a") == pytest.approx(1.0 - w.w[0], abs=1e-6)

    def test_negative_mean_example_pvalues(self):
        stat, anchors = silvapulle_case()
        w = weights_closed_form_2d(0.9)
        alpha_star = p_value(dt_type_a(stat, ZERO2, ORTHANT2), w, "type_a")
        gamma_star = p_value(dt_type_b(stat, ORTHANT2), w, "type_b")
        assert alpha_star < anchors["alpha_star_below"]
        assert gamma_star < anchors["gamma_star_below"]

    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            p_value(1.0, weights_closed_form_2d(0.0), "type_c")


class TestWeightResolution:
    def test_closed_form_for_2d(self):
        stat = gaussian_stat([0.0, 0.0], np.array([[1.0, 0.9], [0.9, 1.0]]), 5)
        w = resolve_weights(stat, ZERO2, ORTHANT2)
        assert w.source == "closed_form"
        assert w.w[2] == pytest.approx(0.4282, abs=5e-5)

    def test_exact_for_3d(self):
        stat = gaussian_stat([0.0, 0.0, 0.0], np.eye(3), 5)
        cfg = WeightConfig(n_draws=20_000, seed=5)
        w = resolve_weights(stat, LinearSubspace.zero(3), ConeSpec.orthant(3), cfg)
        assert (w.source, w.n_draws, w.seed) == ("exact", None, None)
        np.testing.assert_allclose(w.w, np.array([1, 3, 3, 1]) / 8, rtol=0, atol=1e-15)

    def test_monte_carlo_beyond_exact_range(self):
        p = EXACT_MAX_DIM + 1
        stat = gaussian_stat(np.zeros(p), np.eye(p), 5)
        cfg = WeightConfig(n_draws=100, seed=5)
        w = resolve_weights(stat, LinearSubspace.zero(p), ConeSpec.orthant(p), cfg)
        assert (w.source, w.n_draws, w.seed) == ("monte_carlo", 100, 5)

    def test_monte_carlo_where_exact_quadrature_fails(self):
        # correlation 1 - 1e-6 misses the identities at the node cap even at p = 4
        p, rho = 4, 1.0 - 1e-6
        sigma = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
        stat = gaussian_stat(np.zeros(p), sigma, 5)
        cfg = WeightConfig(n_draws=1000, seed=5)
        with pytest.raises(NumericError):
            weights_exact(sigma)
        w = resolve_weights(stat, LinearSubspace.zero(p), ConeSpec.orthant(p), cfg)
        assert (w.source, w.n_draws, w.seed) == ("monte_carlo", 1000, 5)

    @pytest.mark.parametrize("kwargs", [{"n_draws": True}, {"n_draws": 0}, {"n_draws": 2.5},
                                        {"seed": False}, {"seed": "1"}, {"seed": -1}])
    def test_config_rejects_invalid_values(self, kwargs):
        with pytest.raises(ContractViolationError):
            WeightConfig(**kwargs)

    def test_subspace_must_be_restriction_kernel(self):
        # one equality direction too few: dim L = 0 but kernel has dim 1
        stat = gaussian_stat([1.0, 1.0, 1.0], np.eye(3), 5)
        cone = ConeSpec.simple_order(3)
        with pytest.raises(ContractViolationError):
            resolve_weights(stat, LinearSubspace.zero(3), cone)


class TestSafeTest:
    def test_negative_mean_example_conclusion(self):
        stat, _ = silvapulle_case()
        for gamma in (0.1, 0.05, 0.01):
            out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=gamma)
            assert out.conclusion is Conclusion.LIKELY_TYPE_III
            assert (out.d1, out.d2) == (0, 1)
            assert out.t_safe == 0.0
            assert out.auxiliary.statistic > out.auxiliary.critical_value

    def test_gated_statistic_never_exceeds_original(self, rng):
        sigma = random_spd(rng, 2)
        for _ in range(25):
            stat = gaussian_stat(rng.standard_normal(2) * 2, sigma, 20)
            out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.1)
            assert out.t_safe <= out.original.statistic
            assert out.c_alpha_safe <= out.original.critical_value + 1e-12

    def test_attained_level_below_nominal(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 2)
            stat = gaussian_stat(rng.standard_normal(2), sigma, 10)
            out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.2)
            assert out.alpha_safe <= 0.05 + 1e-12

    def test_conclusion_table_mapping(self):
        # interior positive mean, strongly ordered: certificate plus rejection
        stat = gaussian_stat([2.0, 2.0], np.eye(2), 50)
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.1)
        assert out.conclusion is Conclusion.SAFE_REJECT
        assert (out.d1, out.d2) == (1, 1)
        # near the apex: certificate but no rejection
        stat = gaussian_stat([0.01, 0.01], np.eye(2), 10)
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.1)
        assert out.conclusion is Conclusion.DO_NOT_REJECT
        assert (out.d1, out.d2) == (1, 0)

    def test_do_not_reject_revisit_row(self):
        # moderately outside the cone: neither strong rejection nor certificate
        stat = gaussian_stat([0.05, -0.75], np.eye(2), 50)
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.3)
        assert (out.d1, out.d2) == (0, 0)
        assert out.conclusion is Conclusion.DO_NOT_REJECT_REVISIT

    def test_decision_bits_match_pvalue_comparisons(self, rng):
        for _ in range(20):
            stat = gaussian_stat(rng.standard_normal(2), np.eye(2), 25)
            out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.07, gamma=0.13)
            assert out.d1 == int(out.auxiliary.p_value >= 0.13)
            assert out.d2 == int(out.original.p_value <= 0.07)

    def test_result_fields_are_mutually_consistent(self, rng):
        """reject, statistic >= critical, and p <= alpha agree away from the
        knife edge (comparisons can only disagree within 1e-9 of it)."""
        for _ in range(40):
            stat = gaussian_stat(rng.standard_normal(2) * 1.5, np.eye(2), 30)
            out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=0.1)
            for res in (out.original, out.auxiliary):
                if abs(res.statistic - res.critical_value) < 1e-9:
                    continue
                assert res.reject == (res.statistic >= res.critical_value)
                assert res.reject == (res.p_value <= res.alpha + 1e-9)

    def test_infeasible_level_propagates(self):
        stat = gaussian_stat([1.0, 1.0], np.eye(2), 5)
        with pytest.raises(InfeasibleLevelError):
            safe_test(stat, ZERO2, ORTHANT2, alpha=0.97, gamma=0.05)

    def test_level_validation(self):
        stat = gaussian_stat([1.0, 1.0], np.eye(2), 5)
        with pytest.raises(ContractViolationError):
            safe_test(stat, ZERO2, ORTHANT2, alpha=0.0, gamma=0.05)


class TestDelta:
    def test_zero_on_null_subspace(self, rng):
        metric = Metric(random_spd(rng, 3))
        sub = LinearSubspace.span_of_ones(3)
        cone = ConeSpec.simple_order(3)
        assert delta([1.5, 1.5, 1.5], sub, cone, metric) == pytest.approx(0.0, abs=1e-12)

    def test_zero_on_cone_for_type_b_pairing(self):
        metric = Metric(np.eye(2))
        assert delta([1.0, 2.0], ORTHANT2, FULL_SPACE, metric) == pytest.approx(0.0)

    def test_positive_for_up_down_mean_pattern(self):
        """Equal-weights three-group case with a high middle mean drifts."""
        metric = Metric(np.eye(3))
        sub = LinearSubspace.span_of_ones(3)
        cone = ConeSpec.simple_order(3)
        drift = delta([0.0, 2.0, 1.0], sub, cone, metric)
        assert drift > 1e-8
        # oracle: fitted (0, 1.5, 1.5) vs the grand mean 1
        expected = (0 - 1) ** 2 + 2 * (1.5 - 1) ** 2
        assert drift == pytest.approx(expected, abs=1e-10)


class TestConsistencyRegion:
    def test_negative_quadrant_is_blind_spot(self):
        metric = Metric(np.eye(2))
        check = consistency_region([-1.0, -1.0], ZERO2, ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (False, False)

    def test_mixed_quadrant_risks_wrong_rejection(self):
        metric = Metric(np.eye(2))
        check = consistency_region([1.0, -1.0], ZERO2, ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (True, True)

    def test_inside_cone_consistent_without_risk(self):
        metric = Metric(np.eye(2))
        check = consistency_region([1.0, 2.0], ZERO2, ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (True, False)

    def test_agrees_with_polar_membership(self, rng):
        for _ in range(40):
            sigma = random_spd(rng, 2)
            metric = Metric(sigma)
            theta = rng.standard_normal(2) * 1.5
            check = consistency_region(theta, ZERO2, ORTHANT2, metric)
            assert check.consistent == (not in_polar_orthant(theta, np.eye(2), metric))

    def test_polar_points_are_not_consistent_seeded_sweep(self):
        """6 000 seeded draws over orthants at p = 2..4, about 900 of them polar.

        A drift formed as a difference of squared distances carries the full
        ||theta||^2 in both terms, so projector roundoff alone can push
        sqrt(drift) past 1e-8 at a point of the polar cone.
        """
        rng = np.random.default_rng(60002)
        n_polar = 0
        for p in (2, 3, 4):
            sub, cone = LinearSubspace.zero(p), ConeSpec.orthant(p)
            for _ in range(2000):
                metric = Metric(random_spd(rng, p))
                theta = rng.standard_normal(p) * 1.5
                polar = in_polar_orthant(theta, np.eye(p), metric)
                n_polar += polar
                check = consistency_region(theta, sub, cone, metric)
                assert check.consistent == (not polar), (p, theta.tolist())
        assert n_polar > 600

    def test_matches_split_checker_through_drift(self, rng):
        """Simple-order split fires exactly when the drift is positive."""
        sub = LinearSubspace.span_of_ones(4)
        cone = ConeSpec.simple_order(4)
        for _ in range(60):
            k = 4
            w = rng.uniform(0.3, 2.0, size=k)
            theta = rng.standard_normal(k) * 2
            metric = Metric(np.diag(1.0 / w))
            drift = delta(theta, sub, cone, metric)
            split = simple_order_consistency(WeightedSeries(theta, w))
            assert split.consistent == (drift > 1e-8)


class TestAsymptoticBehavior:
    """Simulation checks of the level and the two power regimes."""

    def _simulate(self, theta, n, reps, alpha, gamma, seed, mode="recal"):
        w = weights_closed_form_2d(0.0)
        c_alpha = solve_critical(w, alpha)
        c_gamma = solve_critical(w.complement(), gamma)
        c_safe = solve_critical(w, alpha, mode="joint", c2=c_gamma)
        rng = np.random.default_rng(seed)
        metric = Metric(np.eye(2))
        xbar = np.asarray(theta) + rng.standard_normal((reps, 2)) / np.sqrt(n)
        proj = project_orthant_batch(xbar, metric)
        diff = xbar - proj
        t = n * (proj**2).sum(axis=1)
        t_aux = n * (diff**2).sum(axis=1)
        threshold = c_safe if mode == "recal" else c_alpha
        return {
            "dt": float((t >= c_alpha).mean()),
            "safe": float(((t >= threshold) & (t_aux < c_gamma)).mean()),
        }

    def test_null_level_of_recalibrated_composite(self):
        """With the joint critical value the composite attains alpha exactly."""
        res = self._simulate([0.0, 0.0], 50, 100_000, 0.05, 0.1, seed=2024)
        band = 3 * np.sqrt(0.05 * 0.95 / 100_000)
        assert abs(res["safe"] - 0.05) <= band

    def test_no_power_inside_polar_cone(self):
        res = self._simulate([-1.0, -1.0], 2000, 4000, 0.05, 0.1, seed=7)
        assert res["dt"] <= 0.05 + 0.02

    def test_wrong_direction_rejections_at_large_n(self):
        """Outside both hypothesis sets the plain test still rejects."""
        res = self._simulate([1.0, -1.0], 2000, 4000, 0.05, 0.1, seed=8)
        assert res["dt"] > 0.95
        assert res["safe"] < 0.01

    def test_interior_power_matches_plain_test(self):
        res = self._simulate(
            [0.53033, 0.53033], 50, 50_000, 0.05, 0.01, seed=10, mode="plain"
        )
        assert abs(res["dt"] - res["safe"]) <= 0.01
