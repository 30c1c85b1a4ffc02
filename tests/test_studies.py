from fractions import Fraction

import numpy as np
import pytest

from ordersafe import studies
from ordersafe.chibar import solve_critical, weights_closed_form_2d
from ordersafe.errors import ContractViolationError, DegenerateVarianceError, InternalInvariantError
from ordersafe.geometry import Metric
from ordersafe.studies import (
    CS_TABLE5,
    CS_TABLE6,
    ContingencyTable2xK,
    MEAN_ANGLES_DEG,
    PowerScenario,
    build_stochastic_order,
    doubled_table,
    power_grid,
    run_power_scenario,
    silvapulle_case,
    simulation_means,
)
from ordersafe.testing import Conclusion, dt_type_a, dt_type_b, safe_test

from conftest import cumulative_differences


class TestSimulationMeans:
    def test_ring_geometry(self):
        means = simulation_means()
        np.testing.assert_allclose(means["theta0"], [0.0, 0.0])
        for label, deg in MEAN_ANGLES_DEG.items():
            vec = means[label]
            assert np.linalg.norm(vec) == pytest.approx(0.75, abs=1e-12)
            angle = np.degrees(np.arctan2(vec[1], vec[0]))
            assert angle == pytest.approx(deg, abs=1e-10)

    def test_region_classification(self):
        """First three non-null means lie in the closed orthant, last three outside."""
        means = simulation_means()
        for label in ("theta1", "theta2", "theta3"):
            assert np.all(means[label] >= -1e-12)
        for label in ("theta4", "theta5", "theta6"):
            assert np.any(means[label] < 0)


class TestStochasticOrderConstruction:
    def test_pair_difference_estimate_from_exact_fractions(self):
        problem = build_stochastic_order(CS_TABLE5)
        expected = [
            float(Fraction(5, 17) - Fraction(3, 15)),
            float(Fraction(16, 17) - Fraction(11, 15)),
        ]
        w_n = cumulative_differences(problem)[0]
        np.testing.assert_allclose(w_n, expected, atol=1e-12)
        np.testing.assert_allclose(w_n, [0.094, 0.208], atol=5e-4)

    def test_reduced_covariance_matches_reference_entries(self):
        problem = build_stochastic_order(CS_TABLE5)
        v = cumulative_differences(problem)[1]
        assert v[0, 0] == pytest.approx(0.75, abs=0.005)
        assert v[0, 1] == pytest.approx(0.16, abs=0.005)
        assert v[1, 1] == pytest.approx(0.53, abs=0.005)
        # exact pooled form: scale * [[a(1-a), ab], [ab, b(1-b)]] with
        # a = 8/32, b = 5/32, scale = 32/17 + 32/15
        a, b = 0.25, 5.0 / 32.0
        scale = 32.0 / 17.0 + 32.0 / 15.0
        np.testing.assert_allclose(
            v, scale * np.array([[a * (1 - a), a * b], [a * b, b * (1 - b)]]),
            atol=1e-12,
        )

    def test_shared_margins_give_identical_covariance(self):
        v5 = cumulative_differences(build_stochastic_order(CS_TABLE5))[1]
        v6 = cumulative_differences(build_stochastic_order(CS_TABLE6))[1]
        np.testing.assert_allclose(v5, v6, atol=1e-12)

    def test_reversed_first_difference_in_second_table(self):
        w_n = cumulative_differences(build_stochastic_order(CS_TABLE6))[0]
        assert w_n[0] == pytest.approx(-8.0 / 15.0, abs=1e-12)
        assert w_n[0] < -0.5
        assert w_n[1] > 0

    def test_block_diagonal_scaling(self):
        problem = build_stochastic_order(CS_TABLE5)
        sn = problem.sigma_n.sigma
        np.testing.assert_allclose(sn[:2, 2:], 0.0)
        np.testing.assert_allclose(sn[2:, :2], 0.0)
        np.testing.assert_allclose(sn[:2, :2] / (32.0 / 17.0), sn[2:, 2:] / (32.0 / 15.0))

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "3", None])
    def test_counts_must_be_integers(self, count):
        with pytest.raises(ContractViolationError, match="integers"):
            ContingencyTable2xK(control=(count, 5, 5), treatment=(1, 3, 3))

    @pytest.mark.parametrize("labels, message", [
        ("ab", "labels must be a sequence"),
        (b"ab", "labels must be a sequence"),
        ({"x": 1, "y": 2}, "labels must be a sequence"),
        ([None, {"a": 1}], "labels must be strings"),
    ], ids=["str", "bytes", "mapping", "non-string-items"])
    def test_labels_are_a_sequence_not_a_string_or_mapping(self, labels, message):
        """Iterating these gave the characters ('a', 'b') or the keys ('x', 'y'),
        and str() made the labels 'None' and "{'a': 1}"."""
        with pytest.raises(ContractViolationError, match=message):
            ContingencyTable2xK(control=(1, 2), treatment=(2, 1), labels=labels)

    def test_total_count_is_float_exact(self):
        ContingencyTable2xK(control=(2**53 - 2, 1), treatment=(1, 0))
        with pytest.raises(ContractViolationError, match=r"2\*\*53"):
            ContingencyTable2xK(control=(2**53, 1), treatment=(1, 1))

    def test_a_row_of_zeros_is_refused(self):
        table = ContingencyTable2xK(control=(0, 0, 0), treatment=(3, 8, 4))
        with pytest.raises(ContractViolationError, match="each row needs at least one observation"):
            build_stochastic_order(table)

    def test_degenerate_pooled_category_raises(self):
        table = ContingencyTable2xK(control=(0, 5, 5), treatment=(0, 3, 3))
        with pytest.raises(DegenerateVarianceError):
            build_stochastic_order(table)

    def test_general_k_accepts_four_categories(self):
        table = ContingencyTable2xK(control=(4, 3, 2, 1), treatment=(1, 2, 3, 4))
        problem = build_stochastic_order(table)
        assert problem.theta_hat.shape == (6,)
        assert problem.restriction.shape == (3, 6)
        # reduction still feeds the test pipeline
        t = dt_type_a(problem.statistic(), problem.subspace(), problem.cone())
        assert t >= 0.0


class TestDoubling:
    def test_counts_doubled(self):
        doubled = doubled_table(CS_TABLE5)
        assert doubled.control == (10, 22, 2)
        assert doubled.treatment == (6, 16, 8)

    def test_zero_table_fixed_point(self):
        table = ContingencyTable2xK(control=(0, 0), treatment=(0, 0))
        assert doubled_table(table).control == (0, 0)

    def test_invariants_of_the_construction(self):
        base = build_stochastic_order(CS_TABLE5)
        dbl = build_stochastic_order(doubled_table(CS_TABLE5))
        (w_base, v_base), (w_dbl, v_dbl) = map(cumulative_differences, (base, dbl))
        np.testing.assert_allclose(w_base, w_dbl, atol=1e-14)
        assert dbl.n == 2 * base.n
        # per-observation pooled covariance unchanged, so the n-scaled
        # reduction is identical while the statistic doubles
        np.testing.assert_allclose(v_base, v_dbl, atol=1e-12)
        t_base = dt_type_a(base.statistic(), base.subspace(), base.cone())
        t_dbl = dt_type_a(dbl.statistic(), dbl.subspace(), dbl.cone())
        assert t_dbl == pytest.approx(2 * t_base, abs=1e-9)


class TestCaseStudyPipelines:
    def test_table5_certificate_without_rejection(self):
        problem = build_stochastic_order(CS_TABLE5)
        out = safe_test(problem.statistic(), problem.subspace(), problem.cone(),
                        alpha=0.05, gamma=0.05)
        assert out.conclusion is Conclusion.DO_NOT_REJECT
        assert (out.d1, out.d2) == (1, 0)
        assert out.original.p_value == pytest.approx(0.128, abs=0.002)
        # the estimate satisfies the ordering exactly, so the auxiliary
        # statistic is zero and its p-value is total mass
        assert out.auxiliary.statistic == 0.0
        assert out.auxiliary.p_value == 1.0

    def test_table6_likely_wrong_direction(self):
        problem = build_stochastic_order(CS_TABLE6)
        out = safe_test(problem.statistic(), problem.subspace(), problem.cone(),
                        alpha=0.05, gamma=0.05)
        assert out.conclusion is Conclusion.LIKELY_TYPE_III
        assert (out.d1, out.d2) == (0, 1)
        assert out.original.statistic == pytest.approx(6.5537, abs=1e-3)
        assert out.auxiliary.statistic == pytest.approx(12.0889, abs=1e-3)
        assert out.original.p_value == pytest.approx(0.0162, abs=5e-4)
        assert out.auxiliary.p_value == pytest.approx(0.00075, abs=5e-5)

    def test_doubled_table5_safe_rejection(self):
        problem = build_stochastic_order(doubled_table(CS_TABLE5))
        out = safe_test(problem.statistic(), problem.subspace(), problem.cone(),
                        alpha=0.05, gamma=0.05)
        assert out.conclusion is Conclusion.SAFE_REJECT
        assert out.original.p_value == pytest.approx(0.031, abs=0.002)

    def test_silvapulle_fixture(self):
        stat, anchors = silvapulle_case()
        assert stat.n == 5
        np.testing.assert_allclose(stat.s_n, [-3.0, -2.0])
        assert anchors["t_n"] == 12.89

    def test_silvapulle_with_independent_covariance(self):
        """With no correlation the estimate falls in the polar cone."""
        from ordersafe.geometry import ConeSpec, LinearSubspace

        stat = silvapulle_case()[0]
        indep = Metric(np.eye(2))
        flat = type(stat)(s_n=stat.s_n, sigma_n=indep, n=stat.n)
        assert dt_type_a(flat, LinearSubspace.zero(2), ConeSpec.orthant(2)) == 0.0


class TestPowerHarness:
    def scenario(self, theta, reps=20_000, seed=99, gamma=0.1, n=20):
        return PowerScenario(
            theta=np.asarray(theta, dtype=float), sigma=Metric(np.eye(2)),
            n=n, alpha=0.05, gamma=gamma, replications=reps, seed=seed,
        )

    def test_null_cell_matches_attained_level(self):
        result = run_power_scenario(self.scenario([0.0, 0.0], reps=50_000))
        # the composite region at the plain critical value attains 0.0483
        assert result.power_dt == pytest.approx(0.05, abs=0.005)
        assert result.power_safe == pytest.approx(0.0483, abs=0.005)

    def test_reproducible_given_seed(self):
        a = run_power_scenario(self.scenario([0.3, -0.2], reps=30_000))
        b = run_power_scenario(self.scenario([0.3, -0.2], reps=30_000))
        assert (a.power_dt, a.power_safe) == (b.power_dt, b.power_safe)

    def test_worker_count_does_not_change_results(self):
        serial = run_power_scenario(self.scenario([0.2, 0.4], reps=40_000), workers=1)
        threaded = run_power_scenario(self.scenario([0.2, 0.4], reps=40_000), workers=4)
        assert (serial.power_dt, serial.power_safe) == (threaded.power_dt, threaded.power_safe)

    def test_single_replication_degenerate(self):
        result = run_power_scenario(self.scenario([0.0, 0.0], reps=1))
        assert result.power_dt in (0.0, 1.0)
        assert result.se == 0.0

    def test_wrong_direction_mean_suppressed(self):
        theta = 0.75 * np.array([np.cos(np.radians(-60)), np.sin(np.radians(-60))])
        result = run_power_scenario(self.scenario(theta, reps=50_000, n=50))
        assert result.power_dt == pytest.approx(0.724, abs=0.01)
        assert result.power_safe == 59 / 50_000  # a harness that never certifies reads 0

    def test_monotone_safety_pattern(self):
        """Outside the cone the plain test gains power with n while the
        composite loses it. The borderline -15 degree mean is excluded: its
        composite power rises before the certificate catches up (0.528,
        0.711, 0.635 in the reference table), so only the two means deeper
        outside the cone are genuinely monotone."""
        means = simulation_means()
        for label in ("theta4", "theta5", "theta6"):
            results = [
                run_power_scenario(self.scenario(means[label], reps=30_000, n=n, seed=5))
                for n in (10, 20, 50)
            ]
            dt = [r.power_dt for r in results]
            assert dt[0] < dt[1] < dt[2]
            if label != "theta4":
                safe = [r.power_safe for r in results]
                assert safe[0] > safe[1] > safe[2]

    def test_apex_never_rejects(self):
        """At alpha = 0.8 >= 1 - w_0 the critical value is 0, but the apex has
        t = 0 and alpha* = 1: only the draws off the apex reject, 1 - w_0 = 0.75."""
        result = run_power_scenario(PowerScenario(
            theta=[0.0, 0.0], sigma=Metric(np.eye(2)), n=10, alpha=0.8, gamma=0.1,
            replications=400_000, seed=3))
        assert abs(result.power_dt - 0.75) <= 4 * np.sqrt(0.75 * 0.25 / 400_000)

    def test_full_support_always_certifies(self):
        """At gamma = 0.8 >= 1 - w_2 the auxiliary critical value is 0, but the
        full support has t' = 0 and gamma* = 1: the safe test rejects there
        whenever the plain test does, w_2 exp(-c_0.05 / 2) of the draws."""
        c = solve_critical(weights_closed_form_2d(0.0), 0.05, "marginal")
        want = 0.25 * np.exp(-c / 2)
        result = run_power_scenario(PowerScenario(
            theta=[0.0, 0.0], sigma=Metric(np.eye(2)), n=10, alpha=0.05, gamma=0.8,
            replications=400_000, seed=3))
        assert abs(result.power_safe - want) <= 4 * np.sqrt(want * (1 - want) / 400_000)

    def test_grid_rows_schema(self):
        rows = power_grid(replications=2_000, seed=1, gammas=(0.1,), ns=(10,),
                          mean_labels=("theta0", "theta1"))
        assert len(rows) == 2
        assert set(rows[0]) == {
            "mean_label", "gamma", "n", "power_dt", "power_safe",
            "se", "replications", "seed",
        }

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ContractViolationError):
            PowerScenario(theta=np.zeros(3), sigma=Metric(np.eye(2)), n=10,
                          alpha=0.05, gamma=0.1, replications=10, seed=0)
        with pytest.raises(ContractViolationError):
            self.scenario([0.0, 0.0], reps=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, value):
        with pytest.raises(ContractViolationError, match="theta has non-finite"):
            self.scenario([value, 0.0])

    def test_sigma_must_be_2_by_2(self):
        with pytest.raises(ContractViolationError, match="sigma must be 2 x 2"):
            PowerScenario(theta=np.zeros(2), sigma=Metric(np.eye(3)), n=10, alpha=0.05,
                          gamma=0.1, replications=10, seed=0)

    def test_plain_array_sigma_rejected(self):
        with pytest.raises(ContractViolationError, match="sigma must be a Metric"):
            PowerScenario(theta=np.zeros(2), sigma=np.eye(2), n=10, alpha=0.05,
                          gamma=0.1, replications=10, seed=0)

    @pytest.mark.parametrize("field", ["alpha", "gamma"])
    @pytest.mark.parametrize("value", ["0.05", None, True, [0.05]])
    def test_levels_must_be_real_numbers(self, field, value):
        levels = {"alpha": 0.05, "gamma": 0.1, field: value}
        with pytest.raises(ContractViolationError, match=f"{field} must be a real number"):
            PowerScenario(theta=np.zeros(2), sigma=Metric(np.eye(2)), n=10,
                          replications=10, seed=0, **levels)

    def test_numpy_float_levels_accepted(self):
        scenario = PowerScenario(theta=np.zeros(2), sigma=Metric(np.eye(2)), n=10,
                                 alpha=np.float64(0.05), gamma=np.float32(0.1),
                                 replications=10, seed=0)
        assert run_power_scenario(scenario).replications == 10

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("n", -3), ("n", True), ("n", 2.5),
        ("reps", True), ("reps", 2.5), ("reps", -1),
        ("seed", -1), ("seed", True), ("seed", 1.5),
    ])
    def test_invalid_counts_rejected(self, field, value):
        with pytest.raises(ContractViolationError, match="integer"):
            self.scenario([0.0, 0.0], **{field: value})

    @pytest.mark.parametrize("workers", [0, -1, True, 1.5])
    def test_invalid_worker_counts_rejected(self, workers):
        with pytest.raises(ContractViolationError, match="workers"):
            run_power_scenario(self.scenario([0.0, 0.0], reps=10), workers=workers)
        with pytest.raises(ContractViolationError, match="workers"):
            power_grid(replications=10, mean_labels=("theta0",), workers=workers)

    def test_grid_rejects_bad_seed_and_counts(self):
        with pytest.raises(ContractViolationError, match="seed"):
            power_grid(replications=10, seed=-1, mean_labels=("theta0",))
        with pytest.raises(ContractViolationError, match="n must"):
            power_grid(replications=10, ns=(0,), mean_labels=("theta0",))
        with pytest.raises(ContractViolationError, match="replications"):
            power_grid(replications=True, mean_labels=("theta0",))

    def test_numpy_integer_counts_accepted(self):
        scenario = self.scenario([0.0, 0.0], reps=np.int64(10), n=np.int32(20),
                                 seed=np.uint64(3))
        assert (scenario.n, scenario.replications, scenario.seed) == (20, 10, 3)
        assert type(scenario.seed) is int

    def test_grid_rows_equal_single_scenarios(self):
        """The grid-wide pass gives each cell's run_power_scenario result."""
        rows = power_grid(replications=20_000, seed=8, gammas=(0.1, 0.01), ns=(10,),
                          mean_labels=("theta2", "theta6"), workers=2)
        means = simulation_means()
        for row in rows:
            single = run_power_scenario(PowerScenario(
                theta=means[row["mean_label"]], sigma=Metric(np.eye(2)), n=row["n"],
                alpha=0.05, gamma=row["gamma"], replications=20_000, seed=row["seed"]))
            assert (row["power_dt"], row["power_safe"], row["se"]) == (
                single.power_dt, single.power_safe, single.se)

    def test_grid_solves_each_critical_value_once(self, monkeypatch):
        """One c_alpha for the grid and one c_gamma per gamma."""
        calls = []

        def counting(weights, level, mode):
            calls.append(level)
            return solve_critical(weights, level, mode)

        monkeypatch.setattr(studies, "solve_critical", counting)
        power_grid(replications=100, gammas=(0.1, 0.02, 0.01), ns=(10, 20))
        assert sorted(calls) == [0.01, 0.02, 0.05, 0.1]

    def test_operator_table_built_once_per_metric(self, monkeypatch):
        """The 63 cells of the grid share one metric, so one table."""
        built = []

        def counting(metric):
            built.append(metric.sigma.tolist())
            return orthant_operators(metric)

        orthant_operators = studies._orthant_operators
        monkeypatch.setattr(studies, "_orthant_operators", counting)
        rows = power_grid(replications=10)
        assert len(rows) == 63 and built == [[[1.0, 0.0], [0.0, 1.0]]]

    def test_a_pass_counts_a_run_of_up_to_four_chunks(self, monkeypatch):
        """The two chunks of a 32 768-rep cell are one pass, so the 63-cell
        grid counts in 63 passes; nine chunks count in passes of 4, 4 and 1."""
        widths = []

        def counting(xbar, *args):
            widths.append(xbar.shape[1])
            return count_rejections(xbar, *args)

        count_rejections = studies._count_rejections
        monkeypatch.setattr(studies, "_count_rejections", counting)
        power_grid(replications=32768)
        assert widths == [32768] * 63
        widths.clear()
        chunk = studies._POWER_CHUNK
        run_power_scenario(self.scenario([0.3, -0.1], reps=9 * chunk), workers=2)
        assert sorted(widths) == [chunk, 4 * chunk, 4 * chunk]

    def test_workspaces_hold_at_most_one_pass(self, monkeypatch):
        """However many chunks a scenario has, a thread's workspace holds the
        (2, width) means of one pass of at most four chunks."""
        capacities = []

        class Recording(studies._Workspace):
            def __init__(self, capacity):
                capacities.append(capacity)
                super().__init__(capacity)

        monkeypatch.setattr(studies, "_Workspace", Recording)
        chunk = studies._POWER_CHUNK
        run_power_scenario(self.scenario([0.3, -0.1], reps=9 * chunk), workers=2)
        assert capacities and max(capacities) <= 2 * 4 * chunk

    def test_a_pool_only_where_two_workers_have_two_passes(self, monkeypatch):
        """A one-pass cell at two workers counts in the calling thread: a pool
        gives its one pass no second thread to overlap with, only a start-up cost."""
        import concurrent.futures

        pools = []

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        chunk = studies._POWER_CHUNK
        one_pass = self.scenario([0.3, -0.1], reps=4 * chunk)
        assert run_power_scenario(one_pass, workers=2) == run_power_scenario(one_pass)
        assert pools == []
        run_power_scenario(self.scenario([0.3, -0.1], reps=4 * chunk + 1), workers=2)
        assert pools == [2]

    def test_n_is_at_most_2_53(self):
        """Statistic's bound: above 2**53 the float n would round n itself."""
        assert self.scenario([0.0, 0.0], reps=10, n=2**53).n == 2**53
        with pytest.raises(ContractViolationError, match=r"n must be no larger than 2\*\*53"):
            self.scenario([0.0, 0.0], reps=10, n=2**53 + 1)

    def test_one_pass_takes_one_metric(self):
        """power_grid and run_power_scenario build every pass under one
        metric; a list that mixes metrics is an internal error, and an empty
        list is an empty pass."""
        scenarios = [PowerScenario(theta=np.zeros(2), sigma=Metric(sigma), n=10, alpha=0.05,
                                   gamma=0.05, replications=10, seed=1)
                     for sigma in (np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]))]
        with pytest.raises(InternalInvariantError, match="mix metrics"):
            studies._run_scenarios(scenarios, 1)
        assert studies._run_scenarios([], 1) == []
        assert power_grid(replications=10, mean_labels=()) == []


#: Rejection counts of power_grid(replications=32768, seed=1729, gammas=(0.05,),
#: ns=(10, 50), mean_labels=("theta0", "theta5")): (label, n, seed, n_dt, n_safe,
#: se). Any change to them breaks the seeded-reproducibility contract.
PINNED_GRID = (
    ("theta0", 10, 17930590277277446772, 1641, 1619, 0.001204891722783149),
    ("theta0", 50, 17731983305551247773, 1585, 1560, 0.001185219199891622),
    ("theta5", 10, 11368073432349252414, 11595, 7504, 0.0026415064337348302),
    ("theta5", 50, 473902745973894495, 31247, 1432, 0.0011622347818335845),
)


class TestPinnedPowerResults:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_grid_rows(self, workers):
        reps = 32768
        rows = power_grid(replications=reps, seed=1729, gammas=(0.05,), ns=(10, 50),
                          mean_labels=("theta0", "theta5"), workers=workers)
        got = tuple((r["mean_label"], r["n"], r["seed"], r["power_dt"] * reps,
                     r["power_safe"] * reps, r["se"]) for r in rows)
        assert got == PINNED_GRID
        assert all(r["gamma"] == 0.05 and r["replications"] == reps for r in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_correlated_scenario(self, workers):
        """Three chunks, the last one partial, under a non-identity sigma."""
        scenario = PowerScenario(
            theta=np.array([0.3, -0.1]), sigma=Metric(np.array([[1.0, 0.6], [0.6, 2.0]])),
            n=20, alpha=0.05, gamma=0.05, replications=40_000, seed=7,
        )
        result = run_power_scenario(scenario, workers=workers)
        assert (result.power_dt * 40_000, result.power_safe * 40_000) == (13729, 13112)
        assert result.se == 0.002373929229015684
        assert (result.replications, result.seed) == (40_000, 7)
