import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

import ordersafe.geometry as geometry_module
import ordersafe.testing as testing_module
from ordersafe.chibar import (
    EXACT_MAX_DIM,
    ChiBarWeights,
    chi2_sf,
    joint_tail,
    solve_critical,
    weights_closed_form_2d,
    weights_exact,
)
from ordersafe.errors import (
    ContractViolationError,
    InfeasibleLevelError,
    InternalInvariantError,
    NumericError,
    OrderSafeError,
)
from ordersafe.geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    project_cone,
    project_orthant_batch,
    project_subspace,
)
from ordersafe.isotonic import WeightedSeries, simple_order_consistency
from ordersafe.studies import PowerScenario, run_power_scenario, silvapulle_case
from ordersafe.testing import (
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

from conftest import ROUNDOFF_CASES, dual_active_set_oracle, in_polar_orthant, random_spd

ORTHANT2 = ConeSpec.orthant(2)
ZERO2 = LinearSubspace.zero(2)


def gaussian_stat(s, sigma, n):
    return Statistic(s_n=np.asarray(s, dtype=float), sigma_n=Metric(sigma), n=n)


def counted_projections(monkeypatch, fail_first=False):
    """Count the calls testing makes to delta, each one cone projection;
    optionally make the first one raise NumericError."""
    calls = []

    def wrapper(*args):
        calls.append(args[1])
        if fail_first and len(calls) == 1:
            raise NumericError("cone projection did not converge")
        return delta(*args)

    monkeypatch.setattr(testing_module, "delta", wrapper)
    return calls


_S3, _METRIC3 = np.array([1.0, 0.0, 2.0]), Metric(np.eye(3))
_SUB3, _CONE3 = LinearSubspace.span_of_ones(3), ConeSpec.simple_order(3)
_STAT3 = Statistic(s_n=_S3, sigma_n=_METRIC3, n=5)


@pytest.mark.parametrize("call", [
    lambda: Statistic([1, 2, 3], np.eye(3), 5),
    lambda: dt_type_a(None, _SUB3, _CONE3),
    lambda: dt_type_a(_STAT3, None, _CONE3),
    lambda: dt_type_a(_STAT3, _SUB3, _CONE3.restriction),
    lambda: dt_type_b(_STAT3, None),
    lambda: project_cone(_S3, _CONE3, np.eye(3)),
    lambda: project_cone(_S3, [[1, 0, 0]], _METRIC3),
    lambda: safe_test((_S3, _METRIC3, 5), _SUB3, _CONE3, 0.05, 0.05),
    lambda: project_subspace(_S3, _SUB3.basis, _METRIC3),
    lambda: resolve_weights(_STAT3, _SUB3, _CONE3, {"seed": 1}),
], ids=["statistic-sigma-array", "type-a-stat-none", "type-a-sub-none", "type-a-cone-array",
        "type-b-cone-none", "project-metric-array", "project-cone-list", "safe-test-tuple",
        "subspace-basis-array", "weights-config-dict"])
def test_mistyped_objects_are_contract_violations(call):
    """A wrong type at the distance-test boundary is the caller's error,
    named as such, not an AttributeError from deep inside."""
    with pytest.raises(ContractViolationError, match="must be a"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: dt_type_a(_STAT3, _SUB3, ConeSpec.simple_order(4)), "cone and statistic"),
    (lambda: dt_type_a(_STAT3, LinearSubspace.span_of_ones(4), _CONE3), "subspace and statistic"),
    (lambda: resolve_weights(_STAT3, _SUB3, ConeSpec.simple_order(4)), "cone and statistic"),
    (lambda: resolve_weights(_STAT3, LinearSubspace.span_of_ones(4), _CONE3),
     "subspace and statistic"),
    (lambda: dt_type_b(_STAT3, ConeSpec.orthant(2)), "cone and statistic"),
    (lambda: delta(_S3, ConeSpec.simple_order(4), _METRIC3, "type_a"), "cone and metric"),
], ids=["type-a-cone", "type-a-subspace", "weights-cone", "weights-subspace", "type-b-cone",
        "delta-cone"])
def test_dimension_mismatches_are_contract_violations(call, message):
    with pytest.raises(ContractViolationError, match=f"{message} dimensions disagree"):
        call()


class TestConeMemo:
    """One cone projection per Statistic and cone (see Statistic)."""

    def test_threads_alternating_two_cones_see_whole_pairs(self):
        sigma = random_spd(np.random.default_rng(11), 6)
        s = [0.4, -0.3, 0.2, -0.5, 0.1, -0.2]
        cones = (ConeSpec.simple_order(6), ConeSpec.tree_order(6))
        serial = [dt_type_b(gaussian_stat(s, sigma, 40), cone) for cone in cones]
        assert serial[0] != serial[1]
        stat = gaussian_stat(s, sigma, 40)
        start, results = threading.Barrier(2), [None, None]

        def run(k):
            start.wait(timeout=60)
            results[k] = [dt_type_b(stat, cones[(i + k) % 2]) == serial[(i + k) % 2]
                          for i in range(200)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(all(ok) and len(ok) == 200 for ok in results)

    def test_an_equal_but_distinct_cone_projects_again(self, monkeypatch):
        calls = counted_projections(monkeypatch)
        stat = gaussian_stat([0.3, -0.2, 0.1], np.eye(3), 20)
        first = dt_type_b(stat, _CONE3)
        assert dt_type_b(stat, _CONE3) == first and len(calls) == 1
        again = ConeSpec.simple_order(3)
        assert dt_type_b(stat, again) == first and calls == [_CONE3, again]
        assert dt_type_a(stat, _SUB3, again) >= 0.0 and len(calls) == 2

    def test_a_numeric_error_is_not_remembered(self, monkeypatch):
        stat = gaussian_stat([0.3, -0.2, 0.1], np.eye(3), 20)
        want = dt_type_b(gaussian_stat([0.3, -0.2, 0.1], np.eye(3), 20), _CONE3)
        tree = ConeSpec.tree_order(3)
        calls = counted_projections(monkeypatch, fail_first=True)
        with pytest.raises(NumericError):
            dt_type_b(stat, _CONE3)
        assert stat._cone_memo is None
        assert dt_type_b(stat, _CONE3) == want and len(calls) == 2
        # a later failure leaves the last good pair in place
        calls.clear()
        with pytest.raises(NumericError):
            dt_type_b(stat, tree)
        assert dt_type_b(stat, _CONE3) == want and calls == [tree]

    def test_equality_repr_and_replace_ignore_the_memo(self):
        metric, cone = Metric(np.eye(1)), ConeSpec.orthant(1)
        stat = Statistic(s_n=[-2.0], sigma_n=metric, n=3)
        fresh = Statistic(s_n=[-2.0], sigma_n=metric, n=3)
        before = repr(stat)
        assert dt_type_b(stat, cone) == 12.0
        assert stat._cone_memo == (cone, 4.0) and fresh._cone_memo is None
        assert stat == fresh and repr(stat) == before == repr(fresh)
        assert [f.name for f in dataclasses.fields(Statistic)] == ["s_n", "sigma_n", "n"]
        moved = dataclasses.replace(stat, s_n=[3.0])
        assert moved._cone_memo is None and dt_type_b(moved, cone) == 0.0


class TestDistanceStatistics:
    @pytest.mark.parametrize("n", [0, True, 2**53 + 1, 10**400, 7.9, "5", 5.0, np.int64(0)],
                             ids=["zero", "bool", "above-2**53", "beyond-float", "fraction",
                                  "str", "float", "numpy-zero"])
    def test_sample_size_must_be_a_float_exact_positive_integer(self, n):
        with pytest.raises(ContractViolationError, match="n must be"):
            Statistic(s_n=np.zeros(2), sigma_n=Metric(np.eye(2)), n=n)
        Statistic(s_n=np.zeros(2), sigma_n=Metric(np.eye(2)), n=2**53)
        stat = Statistic(s_n=np.zeros(2), sigma_n=Metric(np.eye(2)), n=np.int64(7))
        assert stat.n == 7 and type(stat.n) is int

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

    def test_null_must_be_the_whole_kernel(self, rng):
        """{0} lies inside ker R of the simple order, the span of ones, but
        is not ker R: the chi-bar law of the weights does not hold for it,
        so every type A entry point refuses it and names the kernel."""
        metric = Metric(random_spd(rng, 3))
        sub, cone = LinearSubspace.zero(3), ConeSpec.simple_order(3)
        theta = [0.3, -0.2, 1.0]
        stat = Statistic(s_n=theta, sigma_n=metric, n=20)
        for call in (lambda: dt_type_a(stat, sub, cone),
                     lambda: resolve_weights(stat, sub, cone)):
            with pytest.raises(ContractViolationError, match=r"kernel .*\(dim 1, got 0\)"):
                call()

    def test_null_not_inside_cone_rejected(self):
        sub = LinearSubspace(np.array([[1.0], [0.0]]))
        with pytest.raises(ContractViolationError):
            dt_type_a(gaussian_stat([1.0, 1.0], np.eye(2), 4), sub, ORTHANT2)

    def test_null_check_reads_the_scales_of_r_and_the_basis(self):
        """ConeSpec(c R) is one cone for every c > 0, and a basis spans one
        subspace at any scale: over R 2^k and B 2^j, k in -500..500 and j in
        -500..500, the null check refuses span(e_1), which is not ker R of the
        simple order, and accepts the span of ones, with the weights of scale
        1, on all 231 pairs (a bound of 1e-8 (1 + max|R|) took span(e_1) for
        ker R on 135 of them)."""
        r = ConeSpec.simple_order(4).restriction
        stat = gaussian_stat([0.3, -0.2, 0.1, 0.4], np.eye(4), 5)
        e_1, ones = np.eye(4)[:, :1], np.ones((4, 1))
        want = resolve_weights(stat, LinearSubspace(ones), ConeSpec(r)).w
        for k in range(-500, 501, 50):
            cone = ConeSpec(r * 2.0**k)
            for j in range(-500, 501, 100):
                with pytest.raises(ContractViolationError, match="not contained in the cone"):
                    resolve_weights(stat, LinearSubspace(e_1 * 2.0**j), cone)
                got = resolve_weights(stat, LinearSubspace(ones * 2.0**j), cone).w
                np.testing.assert_array_equal(got, want)

    def test_null_off_the_kernel_by_1e_minus_6_rejected(self):
        """(1, 1 + 1e-6) has the kernel's dimension under the simple order
        but leaves it: R b = 1e-6 is past the containment bound 2e-8, so both
        type A entry points refuse it. A bound of 1e-4 (1 + max|R|) would
        take it for the span of ones."""
        sub = LinearSubspace(np.array([[1.0], [1.0 + 1e-6]]))
        stat, cone = gaussian_stat([0.3, 0.1], np.eye(2), 4), ConeSpec.simple_order(2)
        for call in (lambda: dt_type_a(stat, sub, cone), lambda: resolve_weights(stat, sub, cone)):
            with pytest.raises(ContractViolationError, match="not contained in the cone"):
                call()

    @pytest.mark.parametrize("order", ["simple", "tree", "umbrella"])
    def test_distances_match_the_orthant_reduction(self, order):
        """With z = R s and G = R sigma R', dt_type_b is n |z - P z|^2 and
        dt_type_a is n |P z|^2 in the metric of G, for P the projection onto
        the orthant: an oracle for project_cone that shares none of its code.
        Each sigma gets a generic point, one inside the cone and one in its
        polar cone, where dt_type_a is an atom at 0."""
        rng = np.random.default_rng(["simple", "tree", "umbrella"].index(order) + 2030)
        for k in range(3, 10):
            cone = {"simple": ConeSpec.simple_order(k), "tree": ConeSpec.tree_order(k),
                    "umbrella": ConeSpec.umbrella_order(k, int(rng.integers(k)))}[order]
            r, sub = cone.restriction, LinearSubspace.span_of_ones(k)
            for _ in range(5):
                sigma = random_spd(rng, k)
                g = Metric(r @ sigma @ r.T)
                for s in (rng.standard_normal(k),
                          r.T @ np.linalg.solve(r @ r.T, rng.exponential(size=k - 1)),
                          -sigma @ r.T @ rng.exponential(size=k - 1)):
                    stat = gaussian_stat(s, sigma, int(rng.integers(5, 200)))
                    z = r @ s
                    pz = project_orthant_batch(z[None, :], g)[0]
                    bound = 1e-10 * (1.0 + stat.n * stat.sigma_n.norm_sq(s))
                    assert abs(dt_type_b(stat, cone) - stat.n * g.norm_sq(z - pz)) <= bound
                    assert abs(dt_type_a(stat, sub, cone) - stat.n * g.norm_sq(pz)) <= bound

    @pytest.mark.parametrize("s_n,n", [([np.nan, 1.0], 4), ([1.0, np.inf], 4),
                                       ([1.0, 1.0], True), ([1.0, 1.0], 0)])
    def test_statistic_rejects_invalid_values(self, s_n, n):
        with pytest.raises(ContractViolationError):
            gaussian_stat(s_n, np.eye(2), n)


class TestPValues:
    def test_conventions_at_zero(self):
        w = weights_closed_form_2d(0.3)
        assert p_value(0.0, w, "type_b") == 1.0
        assert p_value(0.0, w, "type_a") == 1.0
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

    def test_one_half_each_for_a_two_level_simple_order(self):
        stat = gaussian_stat([0.3, 0.1], np.array([[2.0, 0.4], [0.4, 1.0]]), 5)
        w = resolve_weights(stat, LinearSubspace.span_of_ones(2), ConeSpec.simple_order(2))
        assert (w.w.tolist(), w.source, w.n_draws, w.seed) == ([0.5, 0.5], "closed_form", None,
                                                               None)

    def test_monte_carlo_where_a_p2_correlation_rounds_to_one(self):
        """The rule of p >= 3 holds at p = 2 too: no input error about a rho
        that the caller never gave."""
        s, sigma = ROUNDOFF_CASES["rho"]
        stat = gaussian_stat(s, sigma, 10)
        w = resolve_weights(stat, ZERO2, ORTHANT2, WeightConfig(n_draws=1000, seed=5))
        assert (w.source, w.n_draws, w.seed) == ("monte_carlo", 1000, 5)

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

    def test_levels_equal_to_the_p_values_reject(self):
        """reject is p_value <= level: at alpha = alpha* the null is rejected
        (d2 = 1) and at gamma = gamma* the certificate is refused (d1 = 0)."""
        stat, _ = silvapulle_case()
        alpha, gamma = 0.00084334335623196, 2.1996698011000224e-11
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=alpha, gamma=gamma)
        assert (out.original.p_value, out.auxiliary.p_value) == (alpha, gamma)
        assert (out.d1, out.d2) == (0, 1)

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

    @pytest.mark.parametrize("alpha", [0.76, 0.8, 0.9])
    def test_attained_level_on_the_apex_side(self, alpha):
        """At alpha >= 1 - w_0 = 0.75 on the quadrant c_alpha = 0, and the
        region {t > 0, t' < c'_gamma or t' = 0} leaves out the apex, which
        the p-value never rejects: its level is w_1 P(chi2_1 < c'_gamma) +
        w_2, below alpha, and the power study's count of the same region
        agrees with it."""
        stat = gaussian_stat([1.0, 0.5], np.eye(2), 10)
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=alpha, gamma=0.05)
        assert out.original.critical_value == 0.0
        c_gamma = out.auxiliary.critical_value
        region = 0.5 * math.erf(math.sqrt(0.5 * c_gamma)) + 0.25
        assert out.alpha_safe <= alpha
        assert out.alpha_safe == pytest.approx(region, rel=1e-14, abs=0.0)
        assert out.alpha_safe == pytest.approx(0.7301492886662272, rel=1e-12, abs=0.0)
        power = run_power_scenario(PowerScenario(
            theta=np.zeros(2), sigma=Metric(np.eye(2)), n=10, alpha=alpha, gamma=0.05,
            replications=50_000, seed=11))
        assert abs(power.power_safe - out.alpha_safe) <= 4 * power.se

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

    def test_one_projection_and_one_complement(self, monkeypatch, rng):
        """t and t' share one cone projection, and the polar weights are built
        once; dt_type_a and dt_type_b on the same Statistic and cone read
        that projection from its memo and give the same bits."""
        calls = {"delta": 0, "complement": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(testing_module, "delta", counted("delta", delta))
        monkeypatch.setattr(ChiBarWeights, "complement",
                            counted("complement", ChiBarWeights.complement))
        sub, cone = LinearSubspace.span_of_ones(4), ConeSpec.simple_order(4)
        stat = gaussian_stat([0.3, -0.2, 0.1, 0.4], random_spd(rng, 4), 50)
        out = safe_test(stat, sub, cone, alpha=0.05, gamma=0.05)
        assert calls == {"delta": 1, "complement": 1}
        weights = out.original.weights_used
        for statistic, kind, result in ((dt_type_a(stat, sub, cone), "type_a", out.original),
                                        (dt_type_b(stat, cone), "type_b", out.auxiliary)):
            assert result.statistic == statistic
            assert result.p_value == p_value(statistic, weights, kind)
        assert calls["delta"] == 1

    @pytest.mark.parametrize("order, k", [("simple", 3), ("simple", 6), ("tree", 5),
                                          ("umbrella", 6)])
    def test_outcome_matches_the_reference_loop(self, monkeypatch, order, k):
        """safe_test through the reference active-set loop gives the same
        statistics, p-values, critical values and conclusion."""
        cone = {"simple": ConeSpec.simple_order(k), "tree": ConeSpec.tree_order(k),
                "umbrella": ConeSpec.umbrella_order(k, k // 2)}[order]
        sub, rng = LinearSubspace.span_of_ones(k), np.random.default_rng(50 + k)
        sigma = random_spd(rng, k)
        polar = -sigma @ cone.restriction.T @ rng.exponential(size=k - 1)
        points = [rng.standard_normal(k) / 2 for _ in range(4)] + [polar]

        def outcome(s):
            out = safe_test(gaussian_stat(s, sigma, 30), sub, cone, alpha=0.05, gamma=0.05)
            tests = [(r.statistic, r.p_value, r.critical_value)
                     for r in (out.original, out.auxiliary)]
            return tests + [out.d1, out.d2, out.conclusion, out.alpha_safe,
                            out.c_alpha_safe, out.t_safe]

        ours = [outcome(s) for s in points]
        monkeypatch.setattr(geometry_module, "_dual_active_set", dual_active_set_oracle)
        assert [outcome(s) for s in points] == ours

    def test_a_zero_pretest_critical_value_keeps_the_full_support(self):
        """gamma = 0.8 is above 1 - w_2 = 3/4, so c'_gamma = 0: the composite
        region is {t >= c} on the full support, where t' = 0 is certified."""
        w = weights_closed_form_2d(0.0)
        out = safe_test(gaussian_stat([1.0, 0.5], np.eye(2), 10), ZERO2, ORTHANT2,
                        alpha=0.05, gamma=0.8)
        assert out.auxiliary.critical_value == 0.0
        assert out.alpha_safe == w.w[2] * chi2_sf(solve_critical(w, 0.05), 2)
        assert out.alpha_safe == 0.030149288611818897
        # 0.25 exp(-c / 2) = 0.05, to within the bisection band of 1e-10 in the tail
        assert out.c_alpha_safe == pytest.approx(-2.0 * math.log(0.2), abs=1e-8)
        assert abs(joint_tail(w, out.c_alpha_safe, 0.0) - 0.05) <= 1e-10
        out = safe_test(gaussian_stat([1.0, 1.0], np.eye(2), 10), ZERO2, ORTHANT2,
                        alpha=0.05, gamma=0.8)
        assert out.conclusion is Conclusion.SAFE_REJECT
        assert out.t_safe == out.original.statistic

    def test_infeasible_level_propagates(self):
        stat = gaussian_stat([1.0, 1.0], np.eye(2), 5)
        with pytest.raises(InfeasibleLevelError):
            safe_test(stat, ZERO2, ORTHANT2, alpha=0.97, gamma=0.05)

    def test_level_validation(self):
        stat = gaussian_stat([1.0, 1.0], np.eye(2), 5)
        with pytest.raises(ContractViolationError):
            safe_test(stat, ZERO2, ORTHANT2, alpha=0.0, gamma=0.05)

    def test_statistic_inside_the_bisection_band_rejects_safely(self):
        """t = c_0.05 - 1e-9 lies in the band where its tail is still at most
        alpha: the p-value rejects, and the safe rejection stands."""
        c = solve_critical(weights_closed_form_2d(0.0), 0.05, "marginal")
        stat = gaussian_stat([np.sqrt(c - 1e-9), 0.0], np.eye(2), 1)
        out = safe_test(stat, ZERO2, ORTHANT2, alpha=0.05, gamma=1e-12)
        assert out.original.p_value <= 0.05
        assert out.conclusion is Conclusion.SAFE_REJECT
        assert out.t_safe == out.original.statistic

    @pytest.mark.parametrize("alpha, gamma", [(0.05, 0.05), (0.1, 0.01), (0.01, 0.2)])
    @pytest.mark.parametrize("k", [2, 4])
    def test_decisions_near_the_critical_values_follow_the_p_values(self, monkeypatch,
                                                                    k, alpha, gamma):
        """t and t' placed at c +- 0..3 ulps, at c +- 1e-9 and at 0: d2 is
        original.reject, d1 is not auxiliary.reject, t_safe is t * d1, and
        nothing raises."""
        if k == 2:
            stat = gaussian_stat([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]], 10)
            sub, cone = ZERO2, ORTHANT2
        else:
            sigma = random_spd(np.random.default_rng(4), 4)
            stat = gaussian_stat([0.1, -0.3, 0.2, 0.5], sigma, 10)
            sub, cone = LinearSubspace.span_of_ones(4), ConeSpec.simple_order(4)
        weights = resolve_weights(stat, sub, cone)
        c_alpha = solve_critical(weights, alpha, "marginal")
        c_gamma = solve_critical(weights.complement(), gamma, "marginal")

        def near(c):
            points, up, down = [c, c + 1e-9, c - 1e-9, 0.0], c, c
            for _ in range(3):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                points += [float(up), float(down)]
            return points

        for t in near(c_alpha):
            for t_aux in near(c_gamma):
                monkeypatch.setattr(testing_module, "dt_type_a", lambda *_, t=t: t)
                monkeypatch.setattr(testing_module, "dt_type_b", lambda *_, t=t_aux: t)
                out = safe_test(stat, sub, cone, alpha, gamma)
                assert (out.original.statistic, out.auxiliary.statistic) == (t, t_aux)
                assert out.d2 == out.original.reject
                assert out.d1 == (not out.auxiliary.reject)
                assert out.t_safe == t * out.d1


class TestDelta:
    def test_zero_on_null_subspace(self, rng):
        metric = Metric(random_spd(rng, 3))
        cone = ConeSpec.simple_order(3)
        assert delta([1.5, 1.5, 1.5], cone, metric, "type_a") == 0.0

    def test_zero_on_cone_for_type_b_pairing(self):
        metric = Metric(np.eye(2))
        assert delta([1.0, 2.0], ORTHANT2, metric, "type_b") == 0.0

    def test_positive_for_up_down_mean_pattern(self):
        """Equal-weights three-group case with a high middle mean drifts."""
        metric = Metric(np.eye(3))
        cone = ConeSpec.simple_order(3)
        drift = delta([0.0, 2.0, 1.0], cone, metric, "type_a")
        assert drift > 1e-8
        # oracle: fitted (0, 1.5, 1.5) vs the grand mean 1
        expected = (0 - 1) ** 2 + 2 * (1.5 - 1) ** 2
        assert drift == pytest.approx(expected, abs=1e-10)

    def test_cone_null_against_the_full_space_is_unchanged(self):
        """Type B, the cone null against the full space, is the squared
        distance to the cone."""
        metric = Metric(np.eye(2))
        assert delta([-1.0, 0.0], ORTHANT2, metric, "type_b") == 1.0
        assert delta([-3.0, -4.0], ORTHANT2, metric, "type_b") == 25.0

    def test_problem_word_is_required_and_checked(self):
        with pytest.raises(ContractViolationError, match="problem kind"):
            delta([1.0, -1.0], ORTHANT2, Metric(np.eye(2)), "type_c")
        with pytest.raises(TypeError):
            delta([1.0, -1.0], ORTHANT2, Metric(np.eye(2)))

    def test_matches_the_subspace_projection_oracle(self, rng):
        """Type A is ||P_C theta - P_L P_C theta||^2 for L = ker R, through the
        kernel's SVD basis and project_subspace; type B is
        ||theta - P_C theta||^2."""
        for k in (3, 5):
            metric = Metric(random_spd(rng, k))
            for cone in (ConeSpec.simple_order(k), ConeSpec.tree_order(k)):
                sub = LinearSubspace.from_constraint(cone.restriction)
                for _ in range(10):
                    theta = 3.0 * rng.standard_normal(k)
                    proj = project_cone(theta, cone, metric)
                    scale = 1.0 + metric.norm_sq(theta)
                    on_null = metric.norm_sq(proj - project_subspace(proj, sub, metric))
                    assert abs(delta(theta, cone, metric, "type_a") - on_null) <= 1e-13 * scale
                    assert delta(theta, cone, metric, "type_b") == metric.norm_sq(theta - proj)

    @pytest.mark.parametrize("c", [0.0, 1e3, 1e6, 1e9])
    def test_constant_projection_has_zero_drift(self, c):
        """The projection of a decreasing theta onto the simple order is
        constant, so it lies in the null: y = R P_C theta is 0 on every
        active row, for every shift c along the null up to 1e9. A difference of two squared norms of size c^2 read 512.0
        at c = 1e9, and called that point consistent with a Type III risk."""
        theta = np.array([0.3, 0.1, -0.2, -0.4]) + c
        cone, metric = ConeSpec.simple_order(4), Metric(np.eye(4))
        assert delta(theta, cone, metric, "type_a") == 0.0
        check = consistency_region(theta, cone, metric)
        assert (check.consistent, check.type3_risk) == (False, False)


class TestLargeScale:
    @pytest.mark.parametrize("c", [1.0, 1e-16, 1e-30, 1e-100, 1e-200, 1e100, 1e300])
    def test_the_answer_does_not_depend_on_the_units(self, c):
        """s * sqrt(c) with Sigma = c I, K = 4 simple order, n = 50: the
        projector's activity rule 1e-10 ||x|| is relative, so t, t' and the
        conclusion are those at c = 1. A floor of 1e-10 (1 + ||x||) read
        t = 10.5, t' = 0 and a safe rejection at every c <= 1e-30."""
        s = np.array([0.3, -0.2, 0.1, 0.4]) * math.sqrt(c)
        stat = Statistic(s_n=s, sigma_n=Metric(c * np.eye(4)), n=50)
        out = safe_test(stat, LinearSubspace.span_of_ones(4), ConeSpec.simple_order(4),
                        alpha=0.05, gamma=0.05)
        assert out.original.statistic == pytest.approx(4.25, rel=1e-12)
        assert out.auxiliary.statistic == pytest.approx(6.25, rel=1e-12)
        assert out.conclusion is Conclusion.DO_NOT_REJECT_REVISIT

    def test_polar_point_at_2_to_the_40_is_not_an_internal_error(self):
        """A point whose cone projection lies in the null: type A subtracts
        two squared distances near 1e25 and delta two squared norms near 0
        with roundoff of 2^40 scale; each used to fail the absolute -1e-10
        check with InternalInvariantError."""
        s, metric = 2.0**40 * np.array([6.0, -3.0]), Metric(np.diag([2.0, 1.0]))
        sub, cone = LinearSubspace.span_of_ones(2), ConeSpec.simple_order(2)
        assert dt_type_a(Statistic(s_n=s, sigma_n=metric, n=50), sub, cone) == 0.0
        assert delta(s, cone, metric, "type_a") == 0.0


class TestConsistencyRegion:
    def test_negative_quadrant_is_blind_spot(self):
        metric = Metric(np.eye(2))
        check = consistency_region([-1.0, -1.0], ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (False, False)

    def test_mixed_quadrant_risks_wrong_rejection(self):
        metric = Metric(np.eye(2))
        check = consistency_region([1.0, -1.0], ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (True, True)

    def test_inside_cone_consistent_without_risk(self):
        metric = Metric(np.eye(2))
        check = consistency_region([1.0, 2.0], ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (True, False)

    @pytest.mark.parametrize("theta, consistent, type3_risk", [
        ([1e-7, -1.0], True, True),
        ([1e-9, -1.0], False, False),
        ([1.0, -1e-7], True, True),
        ([1.0, -1e-9], True, False),
    ])
    def test_drift_thresholds_are_1e_minus_16(self, theta, consistent, type3_risk):
        """On the 2-d orthant with Sigma = I the type A drift is the sum of
        the positive parts squared and the type B drift that of the negative
        parts: 1e-14 is past the (1e-8)^2 threshold and 1e-18 is not. A
        threshold of (1e-6)^2 on either would flip a True here."""
        metric = Metric(np.eye(2))
        for problem, part in (("type_a", np.maximum), ("type_b", np.minimum)):
            want = float(np.sum(part(theta, 0.0) ** 2))
            assert delta(theta, ORTHANT2, metric, problem) == pytest.approx(want, rel=1e-12,
                                                                            abs=0.0)
        check = consistency_region(theta, ORTHANT2, metric)
        assert (check.consistent, check.type3_risk) == (consistent, type3_risk)

    def test_thresholds_scale_with_theta(self):
        """Both thresholds are (1e-8)^2 s, s = (R theta)' G^-1 (R theta), so
        theta c answers alike at every c = 2^k, k = -200..199: on the 2-d
        orthant with Sigma = I, (1e-7, -1) c has drifts 1e-14 s and 1 s, and
        (1e-9, -1) c a type A drift of 1e-18 s. An absolute (1e-8)^2 says
        (False, False) for the first at c = 1e-2, and a projector floor of
        1e-10 (1 + ||x||) called theta inside the cone below c = 2^-34."""
        metric = Metric(np.eye(2))
        for k in range(-200, 200):
            for theta, want in (([1e-7, -1.0], (True, True)), ([1e-9, -1.0], (False, False))):
                check = consistency_region(np.array(theta) * 2.0 ** k, ORTHANT2, metric)
                assert (check.consistent, check.type3_risk) == want, (k, theta)

    @pytest.mark.parametrize("theta, want", [
        ([3e-4, 1e-4, -2e-4, -4e-4], (False, False)),
        ([-4e-4, -2e-4, 1e-4, 3e-4], (True, False)),
        ([-4e-4, 3e-4, -2e-4, 5e-4], (True, True)),
    ])
    def test_null_shifts_keep_the_answer(self, theta, want):
        """s ignores a shift c 1 along ker R, as both drifts do, so the K = 4
        simple order answers alike for |c| <= 1e6. A threshold of (1e-8)^2
        times ||theta + c 1||^2 would read (False, False) for the last two at
        c = 1e6."""
        cone, metric = ConeSpec.simple_order(4), Metric(np.eye(4))
        for c in (0.0, 1.0, 1e3, 1e6, -1e6):
            check = consistency_region(np.array(theta) + c, cone, metric)
            assert (check.consistent, check.type3_risk) == want, c

    def test_kernel_vectors_up_to_roundoff_are_not_consistent(self):
        """theta = N v for the SVD kernel basis N of a random 2 x 4 R leaves
        R theta of about 1e-16, at most 1.82 u (|R| |theta|)_i here, so
        within the rule's 8 (m + 1) u ||r_i|| ||theta||. Its projection is
        theta and its drift equals s, which passed (1e-8)^2 s and read
        (True, False)."""
        rng = np.random.default_rng(1)
        r = rng.standard_normal((2, 4))
        cone, metric = ConeSpec(r), Metric(np.eye(4))
        basis = geometry_module._null_space(r)
        for _ in range(5):
            theta = basis @ rng.standard_normal(2)
            assert np.all(np.abs(r @ theta) <= 1.82 * 2.0**-53 * (np.abs(r) @ np.abs(theta)))
            assert (r @ theta).any()
            check = consistency_region(theta, cone, metric)
            assert (check.consistent, check.type3_risk) == (False, False)

    def test_svd_kernel_vector_of_a_row_of_mixed_sizes_is_not_consistent(self):
        """For R = (1e-3, 1) the SVD kernel vector leaves R theta = -2.2e-17,
        98 u (|R| |theta|): its small entry carries the rounding of the large
        one. A componentwise bound on R theta read it as off ker R and said
        (True, False); it is 0.2 u ||r|| ||theta||."""
        r = np.array([[1e-3, 1.0]])
        theta = geometry_module._null_space(r)[:, 0]
        assert (r @ theta).any()
        check = consistency_region(theta, ConeSpec(r), Metric(np.eye(2)))
        assert (check.consistent, check.type3_risk) == (False, False)

    def test_svd_kernel_vectors_are_not_consistent_seeded_sweep(self):
        """2 000 rows (+-U(1e-4, 1e-2), +-U(0.5, 2)), and 900 R of 1..m-1
        rows with columns scaled by 10^U(-3, 3) at m = 2..10, Sigma = I:
        every SVD kernel vector reads (False, False). Under the componentwise
        bound (m + 1) u (|R| |theta|)_i most of them read consistent."""
        rng = np.random.default_rng(71)
        problems = []
        for _ in range(2000):
            small, large = rng.uniform(1e-4, 1e-2), rng.uniform(0.5, 2.0)
            problems.append(np.array([[small, large]]) * rng.choice([-1.0, 1.0], 2))
        for m in range(2, 11):
            for _ in range(100):
                p = int(rng.integers(1, m))
                problems.append(rng.standard_normal((p, m)) * 10.0 ** rng.uniform(-3, 3, m))
        for r in problems:
            basis = geometry_module._null_space(r)
            theta = basis @ rng.standard_normal(basis.shape[1])
            check = consistency_region(theta, ConeSpec(r), Metric(np.eye(r.shape[1])))
            assert (check.consistent, check.type3_risk) == (False, False), r.tolist()

    def test_agrees_with_polar_membership(self, rng):
        for _ in range(40):
            sigma = random_spd(rng, 2)
            metric = Metric(sigma)
            theta = rng.standard_normal(2) * 1.5
            check = consistency_region(theta, ORTHANT2, metric)
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
            cone = ConeSpec.orthant(p)
            for _ in range(2000):
                metric = Metric(random_spd(rng, p))
                theta = rng.standard_normal(p) * 1.5
                polar = in_polar_orthant(theta, np.eye(p), metric)
                n_polar += polar
                check = consistency_region(theta, cone, metric)
                assert check.consistent == (not polar), (p, theta.tolist())
        assert n_polar > 600

    def test_matches_simple_order_split_seeded_sweep(self):
        """2 000 seeded simple orders, K = 2..6, equal and random weights.

        Where the cone projection is constant, a drift formed as a difference
        of squared norms reads about 4e-16, and its square root is past 1e-8;
        the distance from the projection to the null is exactly 0 there.
        """
        rng = np.random.default_rng(60003)
        n_split = 0
        for k in (2, 3, 4, 5, 6):
            cone = ConeSpec.simple_order(k)
            for i in range(400):
                w = np.ones(k) if i % 2 else rng.uniform(0.2, 3.0, k)
                theta = rng.standard_normal(k) * 2
                split = simple_order_consistency(WeightedSeries(theta, w)).consistent
                n_split += split
                check = consistency_region(theta, cone, Metric(np.diag(1.0 / w)))
                assert check.consistent == split, (k, w.tolist(), theta.tolist())
        assert 200 < n_split < 1800

    @pytest.mark.parametrize("theta,cone,consistent", [
        ([0.0, 0.0, 0.0], ConeSpec.tree_order(3), False),
        ([0.0, -1.0, 1.0], ConeSpec.tree_order(3), True),
        # projection (8/3, 8/3, 8/3, 3) is not constant, although theta_0 > max(theta_i)
        ([5.0, 1.0, 2.0, 3.0], ConeSpec.tree_order(4), True),
        ([3.553, -5.107, -0.276, 2.027], ConeSpec.tree_order(4), True),
        ([1.0, 1.0, 1.0], ConeSpec.umbrella_order(3, 1), False),
        ([0.0, 2.0, 1.0], ConeSpec.umbrella_order(3, 1), True),
        ([2.0, 1.0, 0.0], ConeSpec.umbrella_order(3, 1), True),
        ([3.0, 2.0, 1.0, 0.0], ConeSpec.umbrella_order(4, 0), True),
        ([0.0, 1.0, 2.0, 3.0], ConeSpec.umbrella_order(4, 0), False),
        ([3.0, 0.0, 2.0, 1.0], ConeSpec.umbrella_order(4, 3), False),
    ])
    def test_tree_and_umbrella_orders(self, theta, cone, consistent):
        """The test separates iff the cone projection leaves the equal-means line."""
        k = len(theta)
        metric = Metric(np.eye(k))
        check = consistency_region(theta, cone, metric)
        proj = project_cone(theta, cone, metric)
        assert check.consistent == consistent == bool(np.ptp(proj) > 1e-8)

    def test_matches_split_checker_through_drift(self, rng):
        """Simple-order split fires exactly when the drift is positive."""
        cone = ConeSpec.simple_order(4)
        for _ in range(60):
            k = 4
            w = rng.uniform(0.3, 2.0, size=k)
            theta = rng.standard_normal(k) * 2
            metric = Metric(np.diag(1.0 / w))
            drift = delta(theta, cone, metric, "type_a")
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


class TestNearSingularSigma:
    def test_only_library_errors_and_no_warning(self):
        """Sigma = Q diag(1, ..., 1, eps) Q' at p = 3..7 for eps = 1e-2 down
        to 1e-16, on the orthant and the simple order (320 inputs), each
        through safe_test, delta of both problems and consistency_region.
        Roundoff then pushes conditioned correlations past +-1, makes a
        correlation matrix or an operator block singular, and breaks the
        projector's KKT check by the roundoff of its cancelled terms: each
        must end in an OrderSafeError, never a RuntimeWarning, a LinAlgError
        or an internal error. At cond(Sigma) = 1e2 every call answers."""
        outcomes = []
        for p in range(3, 8):
            for seed in range(4):
                rng = np.random.default_rng(1000 * p + seed)
                q = np.linalg.qr(rng.standard_normal((p, p)))[0]
                for e in range(1, 9):
                    sigma = q @ np.diag([1.0] * (p - 1) + [10.0 ** (-2 * e)]) @ q.T
                    for sub, cone in ((LinearSubspace.zero(p), ConeSpec.orthant(p)),
                                      (LinearSubspace.span_of_ones(p),
                                       ConeSpec.simple_order(p))):
                        s = rng.standard_normal(p)
                        metric = Metric(sigma)
                        for call in (
                            lambda: safe_test(Statistic(s_n=s, sigma_n=metric, n=50), sub,
                                              cone, 0.05, 0.05, WeightConfig(n_draws=2000)),
                            lambda: delta(s, cone, metric, "type_a"),
                            lambda: delta(s, cone, metric, "type_b"),
                            lambda: consistency_region(s, cone, metric),
                        ):
                            with warnings.catch_warnings():
                                warnings.simplefilter("error", RuntimeWarning)
                                try:
                                    call()
                                    outcomes.append((e, "ok"))
                                except OrderSafeError as exc:
                                    assert not isinstance(exc, InternalInvariantError), exc
                                    outcomes.append((e, type(exc).__name__))
        assert len(outcomes) == 4 * 320
        assert [kind for e, kind in outcomes if e == 1] == ["ok"] * 160

    @pytest.mark.parametrize("case, message", [
        ("rho", r"singular in floating point, cond\(G\) = 9.85e\+16"),
        ("apex", r"within the roundoff of an ill-conditioned sigma, cond 1.97e\+07"),
        ("singular", r"singular in floating point, cond\(G\) = 1.35e\+16"),
    ])
    def test_roundoff_cases_are_numeric_errors(self, case, message):
        s, sigma = ROUNDOFF_CASES[case]
        stat = gaussian_stat(s, sigma, 10)
        with pytest.raises(NumericError, match=message):
            safe_test(stat, ZERO2, ORTHANT2, 0.05, 0.05, WeightConfig(n_draws=1000))

    def test_ill_conditioned_orthant_sweep(self):
        """Sigma = Q diag(1, ..., 1/c) Q' with log10 c uniform on [7, 10], at
        p = 2 and 3 on the orthant, 200 seeded draws each. Roundoff may leave
        no answer, a NumericError, but never an internal error, a raw numpy
        error or a RuntimeWarning: a distance drop or a KKT breach within the
        roundoff of cond(Sigma) names it, and p = 2 weights whose correlation
        rounds to +-1 come from Monte Carlo."""
        outcomes = {}
        for p in (2, 3):
            rng = np.random.default_rng(100 + p)
            for _ in range(200):
                q = np.linalg.qr(rng.standard_normal((p, p)))[0]
                eig = np.exp(rng.uniform(0.0, 1.0, p))
                eig[0], eig[-1] = 1.0, 10.0 ** -rng.uniform(7.0, 10.0)
                sigma = q @ np.diag(eig) @ q.T
                stat = Statistic(s_n=rng.standard_normal(p),
                                 sigma_n=Metric(0.5 * (sigma + sigma.T)), n=10)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        safe_test(stat, LinearSubspace.zero(p), ConeSpec.orthant(p), 0.05,
                                  0.05, WeightConfig(n_draws=2000))
                        kind = "ok"
                    except NumericError:
                        kind = "numeric"
                outcomes[p, kind] = outcomes.get((p, kind), 0) + 1
        assert set(outcomes) <= {(p, kind) for p in (2, 3) for kind in ("ok", "numeric")}
        assert outcomes[2, "ok"] >= 100 and outcomes[3, "ok"] >= 100, outcomes
