"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ordersafe.chibar import (
    joint_tail,
    mixture_upper_tail,
    solve_critical,
    weights_closed_form_2d,
    weights_monte_carlo,
)
from ordersafe.geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    project_cone,
    project_orthant_batch,
)
from ordersafe.isotonic import WeightedSeries, pava, simple_order_consistency
from ordersafe.studies import (
    CS_TABLE5,
    CS_TABLE6,
    build_stochastic_order,
    doubled_table,
    power_grid,
    silvapulle_case,
)
from ordersafe.testing import (
    Conclusion,
    delta,
    dt_type_a,
    dt_type_b,
    p_value,
    safe_test,
)

from conftest import (
    av,
    cumulative_differences,
    minmax_project,
    mp_chi2_sf,
    random_full_rank,
    random_spd,
    safe_level_2d,
)


def _report(num, name, checks):
    """Print the criterion's pass/fail line, then assert every sub-check."""
    failed = [desc for desc, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\n[acceptance] criterion {num} ({name}): {status} "
          f"({len(checks) - len(failed)}/{len(checks)} checks)")
    for desc in failed:
        print(f"[acceptance]   failed: {desc}")
    assert not failed, f"criterion {num} ({name}): " + "; ".join(failed)


def test_criterion_1_negative_mean_case():
    """Interclass-correlation positivity test: statistic, critical value,
    p-values, and conclusion, in under a second."""
    start = time.perf_counter()
    stat, _ = silvapulle_case()
    sub, cone = LinearSubspace.zero(2), ConeSpec.orthant(2)
    t_n = dt_type_a(stat, sub, cone)
    weights = weights_closed_form_2d(0.9)
    c_05 = solve_critical(weights, 0.05)
    alpha_star = p_value(t_n, weights, "type_a")
    gamma_star = p_value(dt_type_b(stat, cone), weights, "type_b")
    outcomes = {
        gamma: safe_test(stat, sub, cone, alpha=0.05, gamma=gamma)
        for gamma in (0.1, 0.05, 0.01)
    }
    elapsed = time.perf_counter() - start
    checks = [
        (f"t_n = {t_n:.4f} within 12.89 +- 0.01", abs(t_n - 12.89) <= 0.01),
        (f"c_0.05 = {c_05:.5f} within 4.915 +- 0.001", abs(c_05 - 4.915) <= 0.001),
        (f"alpha* = {alpha_star:.2e} < 0.001", alpha_star < 0.001),
        (f"gamma* = {gamma_star:.2e} < 1e-6", gamma_star < 1e-6),
    ]
    for gamma, out in outcomes.items():
        checks.append((
            f"conclusion at gamma={gamma} is the likely-wrong-direction row",
            out.conclusion is Conclusion.LIKELY_TYPE_III,
        ))
    checks.append((f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0))
    _report(1, "negative-mean interclass case", checks)


#: Published references of the 2 x 3 case studies: (value, tolerance) of
#: alpha* and gamma* per table, and the entries (V[0,0], V[0,1], V[1,1]) of
#: the reduced covariance V_n = R sigma_n R' to within 0.005.
PUBLISHED_P_VALUES = {
    "t5": ((0.12, 0.01), (0.96, 0.01)),
    "t6": ((0.01, 0.005), (0.001, 0.005)),
    "t5_doubled": ((0.03, 0.01), (0.96, 0.01)),
}
PUBLISHED_V_N = (0.75, 0.16, 0.53)

#: Published conclusion and decision pair (d1, d2) at alpha = gamma = 0.05.
PUBLISHED_ROWS = {
    "t5": (Conclusion.DO_NOT_REJECT, (1, 0)),
    "t6": (Conclusion.LIKELY_TYPE_III, (0, 1)),
    "t5_doubled": (Conclusion.SAFE_REJECT, (1, 1)),
}


def _kudo_weights_2d(v):
    """(w_0, w_1, w_2) of a 2 x 2 covariance by the arccos formula."""
    w0 = math.acos(v[0, 1] / math.sqrt(v[0, 0] * v[1, 1])) / (2.0 * math.pi)
    return (w0, 0.5, 0.5 - w0)


def _oracle_upper_tail(w, t):
    """sum_j w_j P(chi2_j >= t) from mpmath tails, chi2_0 an atom at 0."""
    return w[0] * (t <= 0.0) + sum(w[j] * mp_chi2_sf(t, j) for j in range(1, len(w)))


def test_criterion_2_contingency_cases():
    """2 x 3 trinomial comparison: the published p-values, covariance
    entries and conclusions of table 5, table 6 and doubled table 5, and the
    runtime budget including Monte Carlo weights at N = 1e6.

    The pipeline uses the weights of V_n itself (correlation 0.248, so
    w = (0.210, 0.5, 0.290)); its alpha* and gamma* are checked to 1e-12
    against arccos weights from the V_n entries and mpmath tails. The
    published p-values fit the program's statistics at their tolerances
    only for weights of correlation in [-0.18, 0.055]: V_n was printed at
    correlation 0.25 but the p-values were computed with the quadrant
    mixture (1/4, 1/2, 1/4), so that is the mixture they are checked
    against. The published gamma* = 0.96 of table 5 cannot be attained: the
    cumulative differences lie in the open orthant, so t' = 0 and gamma* = 1
    exactly, while any t' > 0 gives at most 1 - w_2 (0.710 under V_n, 0.75
    under the quadrant mixture). The check is that 0.96 +- 0.01 lies
    strictly between those bounds and 1. The conclusions do not depend on
    the mixture and are checked under both.
    """
    start = time.perf_counter()
    tables = {"t5": CS_TABLE5, "t6": CS_TABLE6, "t5_doubled": doubled_table(CS_TABLE5)}
    problems, outcomes = {}, {}
    for name, table in tables.items():
        problems[name] = problem = build_stochastic_order(table)
        outcomes[name] = safe_test(problem.statistic(), problem.subspace(),
                                   problem.cone(), alpha=0.05, gamma=0.05)
    problem5 = problems["t5"]
    # the p-value of table 5 under Monte Carlo weights of V_n at N = 1e6
    v_n = cumulative_differences(problem5)[1]
    alpha_mc = mixture_upper_tail(weights_monte_carlo(v_n, 1_000_000, 1729),
                                  outcomes["t5"].original.statistic)
    elapsed = time.perf_counter() - start

    checks = [
        (f"V_n[{i},{j}] = {v_n[i, j]:.4f} within {ref} +- 0.005",
         abs(v_n[i, j] - ref) <= 0.005)
        for (i, j), ref in zip(((0, 0), (0, 1), (1, 1)), PUBLISHED_V_N)
    ]
    quadrant = weights_closed_form_2d(0.0)
    for name, out in outcomes.items():
        t, t_aux = out.original.statistic, out.auxiliary.statistic
        w = _kudo_weights_2d(cumulative_differences(problems[name])[1])
        oracle_a = _oracle_upper_tail(w, t)
        oracle_g = _oracle_upper_tail(w[::-1], t_aux)
        checks += [
            (f"{name} alpha* = {out.original.p_value:.6f} equals the V_n oracle "
             f"{oracle_a:.6f} to 1e-12", abs(out.original.p_value - oracle_a) <= 1e-12),
            (f"{name} gamma* = {out.auxiliary.p_value:.6f} equals the V_n oracle "
             f"{oracle_g:.6f} to 1e-12", abs(out.auxiliary.p_value - oracle_g) <= 1e-12),
        ]
        (ref_a, tol_a), (ref_g, tol_g) = PUBLISHED_P_VALUES[name]
        a_q = p_value(t, quadrant, "type_a")
        g_q = p_value(t_aux, quadrant, "type_b")
        checks.append((
            f"{name} alpha* = {a_q:.4f} under (1/4, 1/2, 1/4) within {ref_a} +- {tol_a} "
            f"(V_n mixture: {out.original.p_value:.4f})", abs(a_q - ref_a) <= tol_a,
        ))
        if name == "t6":
            checks.append((
                f"{name} gamma* = {g_q:.5f} under (1/4, 1/2, 1/4) within {ref_g} +- "
                f"{tol_g} (V_n mixture: {out.auxiliary.p_value:.5f})",
                abs(g_q - ref_g) <= tol_g,
            ))
        else:
            table = tables[name]
            n1, n2 = sum(table.control), sum(table.treatment)
            w_hat = [Fraction(sum(table.control[: i + 1]), n1)
                     - Fraction(sum(table.treatment[: i + 1]), n2)
                     for i in range(table.k - 1)]
            checks += [
                (f"{name} cumulative differences {[str(x) for x in w_hat]} are all > 0",
                 all(x > 0 for x in w_hat)),
                (f"{name} t' = {t_aux} is exactly 0, so gamma* = {out.auxiliary.p_value} "
                 f"is exactly 1 and d1 = {out.d1}",
                 t_aux == 0.0 and out.auxiliary.p_value == 1.0 and out.d1 == 1),
                (f"{name} published gamma* {ref_g} +- {tol_g} is unattainable: it lies "
                 f"strictly between 1 - w_2 (V_n {1 - w[2]:.4f}, quadrant "
                 f"{1 - quadrant.w[2]:.2f}) and 1",
                 max(1 - w[2], 1 - quadrant.w[2]) < ref_g - tol_g
                 and ref_g + tol_g < 1.0),
            ]
        conclusion, pair = PUBLISHED_ROWS[name]
        pair_q = (int(g_q >= 0.05), int(a_q <= 0.05))
        checks += [
            (f"{name} conclusion {out.conclusion.name} (d1, d2) = ({out.d1}, {out.d2}) "
             f"is {conclusion.name} {pair}",
             out.conclusion is conclusion and (out.d1, out.d2) == pair),
            (f"{name} (d1, d2) = {pair_q} under (1/4, 1/2, 1/4) is {pair}", pair_q == pair),
        ]
    checks += [
        ("Monte Carlo weights reproduce the closed-form p-value to 0.01",
         abs(alpha_mc - outcomes["t5"].original.p_value) <= 0.01),
        (f"runtime {elapsed:.3f}s < 5s including MC weights at N=1e6", elapsed < 5.0),
    ]
    _report(2, "2x3 contingency cases", checks)


def test_criterion_3_closed_form_levels():
    """The published 2-d tabulation, through solve_critical on the quadrant
    weights. It is a formula of the reference (conftest.safe_level_2d), not
    the composite region's probability, which is chibar.attained_level."""
    v1 = safe_level_2d(0.1, 0.1)
    v2 = safe_level_2d(0.1, 0.5)
    checks = [
        (f"safe_level_2d(0.1, 0.1) = {v1:.6f} within 0.0999 +- 0.0001",
         abs(v1 - 0.0999) <= 1e-4),
        (f"safe_level_2d(0.1, 0.5) = {v2:.6f} within 0.0988 +- 0.0001",
         abs(v2 - 0.0988) <= 1e-4),
    ]
    _report(3, "closed-form composite levels", checks)


# printed power table: PRINTED[label][gamma] = [(dt, safe) for n in 10, 20, 50]
PRINTED_POWER = {
    "theta0": {0.1: [(.050, .048), (.050, .049), (.050, .048)],
               0.05: [(.050, .049), (.050, .049), (.050, .049)],
               0.01: [(.050, .050), (.050, .050), (.050, .050)]},
    "theta1": {0.1: [(.705, .705), (.931, .931), (1.000, 1.000)],
               0.05: [(.706, .706), (.932, .932), (1.000, 1.000)],
               0.01: [(.706, .706), (.932, .932), (1.000, 1.000)]},
    "theta2": {0.1: [(.693, .687), (.928, .924), (1.000, .999)],
               0.05: [(.693, .691), (.928, .927), (1.000, .999)],
               0.01: [(.693, .693), (.928, .928), (1.000, 1.000)]},
    "theta3": {0.1: [(.666, .640), (.917, .879), (1.000, .957)],
               0.05: [(.665, .652), (.917, .899), (1.000, .980)],
               0.01: [(.666, .664), (.917, .914), (1.000, .996)]},
    "theta4": {0.1: [(.608, .528), (.885, .711), (.999, .635)],
               0.05: [(.609, .565), (.885, .782), (.999, .752)],
               0.01: [(.609, .598), (.885, .856), (.999, .907)]},
    "theta5": {0.1: [(.353, .182), (.624, .160), (.955, .020)],
               0.05: [(.354, .230), (.623, .234), (.955, .043)],
               0.01: [(.354, .299), (.624, .392), (.955, .140)]},
    "theta6": {0.1: [(.193, .071), (.352, .041), (.724, .002)],
               0.05: [(.192, .096), (.352, .070), (.724, .004)],
               0.01: [(.192, .143), (.352, .147), (.724, .021)]},
}

SPOT_ANCHORS = [
    ("theta1", 0.1, 10, 0.705, 0.705),
    ("theta5", 0.1, 50, 0.955, 0.020),
    ("theta6", 0.1, 50, 0.724, 0.002),
]


def test_criterion_4_power_table_reproduction():
    """All 63 grid cells within 0.01 of the printed powers at 1e5
    replications, identical numbers at 1-way and 8-way parallelism, within
    the runtime budget."""
    seed = 20240831
    start = time.perf_counter()
    rows = power_grid(replications=100_000, seed=seed, workers=1)
    elapsed_serial = time.perf_counter() - start
    start = time.perf_counter()
    rows_parallel = power_grid(replications=100_000, seed=seed, workers=8)
    elapsed_parallel = time.perf_counter() - start

    checks = []
    worst = 0.0
    for row in rows:
        dt_exp, safe_exp = PRINTED_POWER[row["mean_label"]][row["gamma"]][
            {10: 0, 20: 1, 50: 2}[row["n"]]
        ]
        dev = max(abs(row["power_dt"] - dt_exp), abs(row["power_safe"] - safe_exp))
        worst = max(worst, dev)
        if dev > 0.01:
            checks.append((
                f"cell ({row['mean_label']}, gamma={row['gamma']}, n={row['n']}): "
                f"got ({row['power_dt']:.4f}, {row['power_safe']:.4f}), "
                f"printed ({dt_exp}, {safe_exp})", False,
            ))
    checks.append((f"all 63 cells within +-0.01 (worst deviation {worst:.4f})",
                   worst <= 0.01))
    for label, gamma, n, dt_exp, safe_exp in SPOT_ANCHORS:
        row = next(r for r in rows
                   if r["mean_label"] == label and r["gamma"] == gamma and r["n"] == n)
        checks.append((
            f"spot anchor ({label}, {gamma}, {n}) -> "
            f"({row['power_dt']:.4f}, {row['power_safe']:.4f}) vs ({dt_exp}, {safe_exp})",
            abs(row["power_dt"] - dt_exp) <= 0.01
            and abs(row["power_safe"] - safe_exp) <= 0.01,
        ))
    identical = all(
        a["power_dt"] == b["power_dt"] and a["power_safe"] == b["power_safe"]
        for a, b in zip(rows, rows_parallel)
    )
    checks.append(("identical numbers at 1-way and 8-way parallelism", identical))
    checks.append((f"serial runtime {elapsed_serial:.1f}s < 600s", elapsed_serial < 600.0))
    checks.append((f"8-way runtime {elapsed_parallel:.1f}s < 120s", elapsed_parallel < 120.0))
    _report(4, "power table reproduction", checks)


class TestCriterion5PropertySuites:
    """Properties standing in for results that have no single printed number."""

    def test_moreau_and_idempotence_1000_instances(self):
        rng = np.random.default_rng(515253)
        worst_inner, worst_idem = 0.0, 0.0
        for _ in range(1000):
            p = int(rng.integers(1, 6))
            m = p + int(rng.integers(0, 3))
            metric = Metric(random_spd(rng, m))
            cone = ConeSpec(random_full_rank(rng, p, m))
            x = rng.standard_normal(m) * 2
            proj = project_cone(x, cone, metric)
            comp = x - proj
            np.testing.assert_allclose(proj + comp, x, atol=1e-12)
            scale = max(metric.norm_sq(x), 1.0)
            worst_inner = max(worst_inner, abs(proj @ np.linalg.solve(metric.sigma, comp)) / scale)
            again = project_cone(proj, cone, metric)
            worst_idem = max(worst_idem, float(np.max(np.abs(again - proj))))
        checks = [
            (f"Moreau orthogonality within 1e-8 (worst {worst_inner:.2e})",
             worst_inner <= 1e-8),
            (f"projection idempotence within 1e-8 (worst {worst_idem:.2e})",
             worst_idem <= 1e-8),
        ]
        _report("5a", "Moreau decomposition and idempotence, 1000 draws", checks)

    def test_pava_equals_minmax_500_series(self):
        rng = np.random.default_rng(606162)
        worst = 0.0
        for _ in range(500):
            k = int(rng.integers(1, 13))
            series = WeightedSeries(rng.standard_normal(k) * 3,
                                    rng.uniform(0.1, 4.0, size=k))
            worst = max(worst, float(np.max(np.abs(
                pava(series).fitted - minmax_project(series)
            ))))
        _report("5b", "pooled-adjacent equals min-max formula, 500 series",
                [(f"coordinate-wise agreement within 1e-10 (worst {worst:.2e})",
                  worst <= 1e-10)])

    def test_pava_matches_bruteforce_partition_oracle(self):
        """Enumerate every contiguous level-set partition for K <= 4 and keep
        the best feasible candidate; the sequential pooling must match it."""
        rng = np.random.default_rng(707172)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 5))
            vals = rng.standard_normal(k) * 2
            w = rng.uniform(0.2, 3.0, size=k)
            series = WeightedSeries(vals, w)
            best, best_obj = None, np.inf
            for cuts in itertools.product([False, True], repeat=k - 1):
                bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [k]
                fitted = np.empty(k)
                for lo, hi in zip(bounds, bounds[1:]):
                    fitted[lo:hi] = av(series, lo, hi - 1)
                if np.all(np.diff(fitted) >= -1e-12):
                    obj = float(w @ (vals - fitted) ** 2)
                    if obj < best_obj:
                        best_obj, best = obj, fitted
            worst = max(worst, float(np.max(np.abs(pava(series).fitted - best))))
        _report("5c", "pooling equals brute-force partition oracle, K <= 4",
                [(f"agreement within 1e-8 (worst {worst:.2e})", worst <= 1e-8)])

    def test_monte_carlo_weights_match_closed_form_at_1e6(self):
        checks = []
        for rho, seed in ((0.0, 11), (0.9, 12)):
            sigma = np.array([[1.0, rho], [rho, 1.0]])
            est = weights_monte_carlo(sigma, n_draws=1_000_000, seed=seed)
            exact = weights_closed_form_2d(rho)
            dev = float(np.max(np.abs(est.w - exact.w)))
            checks.append((
                f"rho={rho}: max weight deviation {dev:.5f} <= 0.002", dev <= 0.002,
            ))
        _report("5d", "Monte Carlo weights vs closed form at N=1e6", checks)

    def test_composite_level_and_critical_value_dominance_on_grid(self):
        alphas = np.linspace(0.01, 0.5, 20)
        gammas = np.linspace(0.01, 0.5, 20)
        ok_level, ok_crit, ok_closed = True, True, True
        for weights in (weights_closed_form_2d(0.0), weights_closed_form_2d(0.9)):
            comp = weights.complement()
            for alpha in alphas:
                c_alpha = solve_critical(weights, alpha)
                for gamma in gammas:
                    c_gamma = solve_critical(comp, gamma)
                    attained = joint_tail(weights, c_alpha, c_gamma)
                    c_safe = solve_critical(weights, alpha, "joint", c2=c_gamma)
                    ok_level &= attained <= alpha + 1e-12
                    ok_crit &= c_safe <= c_alpha + 1e-9
        for alpha in alphas:
            for gamma in gammas:
                ok_closed &= safe_level_2d(alpha, gamma) <= alpha + 1e-12
        checks = [
            ("attained composite level never exceeds alpha on the 20x20 grid", ok_level),
            ("recalibrated critical value never exceeds the marginal one", ok_crit),
            ("closed-form composite level never exceeds alpha", ok_closed),
        ]
        _report("5e", "level and critical-value dominance", checks)

    def test_split_checker_agrees_with_drift_200_instances(self):
        rng = np.random.default_rng(818283)
        agree = True
        for _ in range(200):
            k = int(rng.integers(2, 6))
            w = rng.uniform(0.2, 2.0, size=k)
            theta = rng.standard_normal(k) * 2
            split = simple_order_consistency(WeightedSeries(theta, w))
            drift = delta(theta, ConeSpec.simple_order(k), Metric(np.diag(1.0 / w)), "type_a")
            agree &= split.consistent == (drift > 1e-8)
        _report("5f", "split condition equals positive drift, 200 instances",
                [("checker and drift agree on every instance", agree)])

    def test_empirical_safety_at_desk_scale(self):
        """Wrong-direction mean: the plain test rejects almost surely while
        the composite stays quiet."""
        theta = 0.866 * np.array([1.0, -1.0])
        n, reps = 500, 10_000
        weights = weights_closed_form_2d(0.0)
        c_alpha = solve_critical(weights, 0.05)
        c_gamma = solve_critical(weights.complement(), 0.01)
        rng = np.random.default_rng(929394)
        metric = Metric(np.eye(2))
        xbar = theta + rng.standard_normal((reps, 2)) / np.sqrt(n)
        proj = project_orthant_batch(xbar, metric)
        t = n * (proj**2).sum(axis=1)
        t_aux = n * ((xbar - proj) ** 2).sum(axis=1)
        power_dt = float((t >= c_alpha).mean())
        power_safe = float(((t >= c_alpha) & (t_aux < c_gamma)).mean())
        checks = [
            (f"plain rejection {power_dt:.3f} > 0.90", power_dt > 0.90),
            (f"composite rejection {power_safe:.4f} < 0.05", power_safe < 0.05),
        ]
        _report("5g", "empirical safety at theta = 0.866 (1, -1)", checks)

    def test_mixture_tail_value_cross_checked(self):
        """The quadrant mixture tail at the interclass critical value agrees
        with a direct Gaussian/exponential evaluation."""
        t = 4.915
        quadrant = weights_closed_form_2d(0.0)
        # P(chi2_1 >= t) = 2 phi-bar(sqrt t) = erfc(sqrt(t / 2))
        direct = 0.5 * math.erfc(math.sqrt(t / 2.0)) + 0.25 * math.exp(-t / 2.0)
        got = mixture_upper_tail(quadrant, t)
        _report("5h", "mixture tail spot value",
                [(f"tail(4.915) = {got:.6f} agrees with direct evaluation",
                  abs(got - direct) <= 1e-12)])
