"""Inputs, operations, traced replays and output checks of the benchmark.

A plain operation is what a library user does: build the objects from
arrays and call the public entry point. Its traced replay makes the same
sequence of public calls that the entry point makes, one span per call, so
per-layer self times come from the benchmark's files alone. Every replay
returns the same outputs as its plain operation and is checked the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from common import CLI_VALID
from ordersafe import cli
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
    project_subspace,
)
from ordersafe.isotonic import WeightedSeries, pava, simple_order_consistency
from ordersafe.studies import (
    CS_TABLE5,
    CS_TABLE6,
    PowerScenario,
    build_stochastic_order,
    doubled_table,
    power_grid,
    run_power_scenario,
    silvapulle_case,
    simulation_means,
)
from ordersafe.testing import (
    Conclusion,
    SafeOutcome,
    Statistic,
    TestResult,
    WeightConfig,
    dt_type_a,
    dt_type_b,
    resolve_weights,
    safe_test,
)

ALPHA = 0.05
GAMMA = 0.05
WEIGHT_SEED = 1729
SAFE_ORDERS = ("simple", "tree")
SAFE_KS = (4, 6, 8)
SAFE_DRAWS = 20_000
#: Calls per round at each K, so that the cheap sizes get more samples.
SAFE_REPEATS = {4: 3, 6: 2, 8: 1}
DIST_ORDERS = ("simple", "tree", "umbrella")
DIST_KS = (8, 10, 12, 14)
#: Pool members each round runs at every order and K: the first inside the
#: cone and the first two outside it, the same for every seed, because the
#: cost of an outside projection differs by up to half between members.
DIST_ROUND_INSIDE, DIST_ROUND_OUTSIDE = 1, 2
POWER_REPS = 2 * 16384  # two chunks per cell, one for each of workers=2
POWER_WORKERS = (1, 2)
PROBE_ROWS = 1 << 15

_CONCLUSIONS = {(1, 1): Conclusion.SAFE_REJECT, (1, 0): Conclusion.DO_NOT_REJECT,
                (0, 1): Conclusion.LIKELY_TYPE_III,
                (0, 0): Conclusion.DO_NOT_REJECT_REVISIT}


def make_cone(order, k):
    if order == "simple":
        return ConeSpec.simple_order(k)
    if order == "tree":
        return ConeSpec.tree_order(k)
    return ConeSpec.umbrella_order(k, k // 2)


def arrays(item):
    """Pool item (JSON lists) -> the arrays a user would hand the library."""
    return dict(item, s=np.array(item["s"], dtype=float),
                sigma=np.array(item["sigma"], dtype=float))


# ---------------------------------------------------------------------------
# shared replays
# ---------------------------------------------------------------------------

def replay_objects(tr, inp):
    k = inp["s"].shape[0]
    with tr.span("geometry.Metric"):
        metric = Metric(inp["sigma"])
    with tr.span("testing.Statistic"):
        stat = Statistic(s_n=inp["s"], sigma_n=metric, n=inp["n"])
    with tr.span("geometry.ConeSpec"):
        cone = make_cone(inp["order"], k)
    with tr.span("geometry.LinearSubspace"):
        sub = LinearSubspace.span_of_ones(k)
    return stat, sub, cone


def replay_distance_tests(tr, stat, sub, cone):
    """dt_type_a then dt_type_b, as their public geometry calls."""
    m, s = stat.sigma_n, stat.s_n
    with tr.span("geometry.project_subspace"):
        ps = project_subspace(s, sub, m)
    with tr.span("geometry.norm_sq"):
        d_null = m.norm_sq(s - ps)
    with tr.span("geometry.project_cone"):
        pa = project_cone(s, cone, m)
    with tr.span("geometry.norm_sq"):
        d_alt = m.norm_sq(s - pa)
    t_a = max(stat.n * (d_null - d_alt), 0.0)
    with tr.span("geometry.project_cone"):
        pb = project_cone(s, cone, m)
    with tr.span("geometry.norm_sq"):
        d_b = m.norm_sq(s - pb)
    return t_a, max(stat.n * d_b, 0.0), pb


def replay_safe_test(tr, stat, sub, cone, alpha, gamma, cfg):
    """safe_test as the calls it makes; returns an equal SafeOutcome."""
    with tr.span("testing.resolve_weights"):
        w = resolve_weights(stat, sub, cone, cfg)
    t, t_aux, _ = replay_distance_tests(tr, stat, sub, cone)
    wc = w.complement()
    with tr.span("chibar.mixture_upper_tail"):
        alpha_star = mixture_upper_tail(w, t)
    with tr.span("chibar.mixture_upper_tail"):
        gamma_star = mixture_upper_tail(wc, t_aux)
    with tr.span("chibar.solve_critical"):
        c_alpha = solve_critical(w, alpha, "marginal")
    with tr.span("chibar.solve_critical"):
        c_gamma = solve_critical(wc, gamma, "marginal")
    with tr.span("chibar.solve_critical"):
        c_alpha_safe = solve_critical(w, alpha, "joint", c2=c_gamma)
    with tr.span("chibar.joint_tail"):
        alpha_safe = joint_tail(w, c_alpha, c_gamma)
    d1, d2 = int(gamma_star >= gamma), int(alpha_star <= alpha)
    return SafeOutcome(
        original=TestResult(t, alpha_star, c_alpha, w, alpha),
        auxiliary=TestResult(t_aux, gamma_star, c_gamma, wc, gamma),
        d1=d1, d2=d2, conclusion=_CONCLUSIONS[(d1, d2)], alpha_safe=alpha_safe,
        c_alpha_safe=c_alpha_safe, t_safe=t if t_aux < c_gamma else 0.0,
    )


# ---------------------------------------------------------------------------
# safe-test-orders
# ---------------------------------------------------------------------------

def safe_outputs(out):
    return {"t": out.original.statistic, "t_prime": out.auxiliary.statistic,
            "alpha_star": out.original.p_value, "gamma_star": out.auxiliary.p_value,
            "d1": out.d1, "d2": out.d2, "w": [float(x) for x in out.original.weights_used.w]}


def safe_plain(inp, n_draws):
    k = inp["s"].shape[0]
    stat = Statistic(s_n=inp["s"], sigma_n=Metric(inp["sigma"]), n=inp["n"])
    out = safe_test(stat, LinearSubspace.span_of_ones(k), make_cone(inp["order"], k),
                    ALPHA, GAMMA, WeightConfig(n_draws=n_draws, seed=WEIGHT_SEED))
    return safe_outputs(out)


def safe_traced(tr, inp, n_draws):
    stat, sub, cone = replay_objects(tr, inp)
    out = replay_safe_test(tr, stat, sub, cone, ALPHA, GAMMA,
                           WeightConfig(n_draws=n_draws, seed=WEIGHT_SEED))
    return safe_outputs(out)


def _p_value_se(sf, w, n_draws):
    """Binomial standard error of sum_j w_j sf_j, propagated term by term."""
    return sum(f * math.sqrt(max(x * (1.0 - x), 0.0) / n_draws) for f, x in zip(sf, w))


def check_safe(got, ref, n_draws):
    """Output checks for one safe_test call; returns a list of failures."""
    bad = []
    w = got["w"]
    lim = 4.0 / math.sqrt(n_draws)
    if abs(sum(w) - 1.0) > lim:
        bad.append(f"weights sum to {sum(w)!r}")
    if abs(sum((-1) ** j * x for j, x in enumerate(w))) > lim:
        bad.append("weights fail the parity check")
    for key in ("t", "t_prime"):
        if not math.isfinite(got[key]) or not _rel_ok(got[key], ref[key], 1e-9):
            bad.append(f"{key} = {got[key]!r}, seed {ref[key]!r}")
    n_ref = ref["n_draws"]
    for key, sf, w_ref, dkey, level in (
        ("alpha_star", ref["sf_a"], ref["w"], "d2", ALPHA),
        ("gamma_star", ref["sf_b"], ref["w"][::-1], "d1", GAMMA),
    ):
        tol = 4.0 * max(_p_value_se(sf, w_ref, n_draws), _p_value_se(sf, w_ref, n_ref))
        if not abs(got[key] - ref[key]) <= tol:
            bad.append(f"{key} = {got[key]!r}, seed {ref[key]!r} +- {tol:.3g}")
        if abs(ref[key] - level) > tol and got[dkey] != ref[dkey]:
            bad.append(f"{dkey} = {got[dkey]}, seed {ref[dkey]}")
    return bad


def _rel_ok(x, ref, rel):
    return abs(x - ref) <= rel * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# distance-stats
# ---------------------------------------------------------------------------

def dist_plain(inp):
    k = inp["s"].shape[0]
    stat = Statistic(s_n=inp["s"], sigma_n=Metric(inp["sigma"]), n=inp["n"])
    cone = make_cone(inp["order"], k)
    out = {"t_a": dt_type_a(stat, LinearSubspace.span_of_ones(k), cone),
           "t_b": dt_type_b(stat, cone)}
    if inp["order"] == "simple":
        series = WeightedSeries(inp["s"], 1.0 / np.diag(inp["sigma"]))
        fit = pava(series)
        split = simple_order_consistency(series)
        out["pava_t_b"] = inp["n"] * fit.objective
        out["split"] = [split.consistent, split.witness]
    return out


def dist_traced(tr, inp):
    stat, sub, cone = replay_objects(tr, inp)
    t_a, t_b, proj = replay_distance_tests(tr, stat, sub, cone)
    out = {"t_a": t_a, "t_b": t_b, "proj": proj, "restriction": cone.as_polyhedral()}
    if inp["order"] == "simple":
        with tr.span("isotonic.WeightedSeries"):
            series = WeightedSeries(inp["s"], 1.0 / np.diag(inp["sigma"]))
        with tr.span("isotonic.pava"):
            fit = pava(series)
        with tr.span("isotonic.simple_order_consistency"):
            split = simple_order_consistency(series)
        out["pava_t_b"] = inp["n"] * fit.objective
        out["pava_fitted"] = fit.fitted
        out["split"] = [split.consistent, split.witness]
    return out


def check_dist(got, ref):
    bad = []
    for key in ("t_a", "t_b"):
        if not _rel_ok(got[key], ref[key], 1e-9):
            bad.append(f"{key} = {got[key]!r}, seed {ref[key]!r}")
    if "pava_t_b" in got:
        if not _rel_ok(got["pava_t_b"], got["t_b"], 1e-9):
            bad.append(f"cone distance {got['t_b']!r} != PAVA distance {got['pava_t_b']!r}")
        if got["split"] != ref["split"]:
            bad.append(f"split check {got['split']}, seed {ref['split']}")
    if "proj" in got:
        proj = got["proj"]
        slack = got["restriction"] @ proj
        if np.any(slack < -1e-9 * (1.0 + np.linalg.norm(proj))):
            bad.append(f"projection violates R theta >= 0 by {-slack.min():.3g}")
        if "pava_fitted" in got and np.max(np.abs(got["pava_fitted"] - proj)) > 1e-9:
            bad.append("cone projection disagrees with PAVA")
    return bad


# ---------------------------------------------------------------------------
# power-grid
# ---------------------------------------------------------------------------

def power_plain(grid_seed, workers, reps, cells):
    return power_grid(replications=reps, seed=grid_seed, workers=workers, **cells)


def power_traced(tr, grid_seed, workers, reps, cells):
    """power_grid as the calls it makes: one run_power_scenario per cell."""
    gammas = cells.get("gammas", (0.1, 0.05, 0.01))
    ns = cells.get("ns", (10, 20, 50))
    labels = cells.get("mean_labels", ("theta0", "theta1", "theta2", "theta3",
                                       "theta4", "theta5", "theta6"))
    with tr.span("studies.simulation_means"):
        means = simulation_means()
    grid = [(lab, g, n) for lab in labels for g in gammas for n in ns]
    cell_seeds = np.random.SeedSequence(grid_seed).generate_state(len(grid), np.uint64)
    with tr.span("geometry.Metric"):
        sigma = Metric(np.eye(2))
    rows = []
    for (label, gamma, n), cell_seed in zip(grid, cell_seeds):
        with tr.span("studies.PowerScenario"):
            scenario = PowerScenario(theta=means[label], sigma=sigma, n=n, alpha=ALPHA,
                                     gamma=gamma, replications=reps, seed=int(cell_seed))
        with tr.span("studies.run_power_scenario"):
            res = run_power_scenario(scenario, workers=workers)
        rows.append({"mean_label": label, "gamma": gamma, "n": n,
                     "power_dt": res.power_dt, "power_safe": res.power_safe,
                     "se": res.se, "replications": reps, "seed": int(cell_seed)})
    return rows


def check_power(rows, ref_rows):
    if json.loads(json.dumps(rows)) == ref_rows:
        return []
    return ["power grid rows differ from the seed's rows"]


# ---------------------------------------------------------------------------
# probes: direct calls of inner layers, for the per-layer detail metrics
# ---------------------------------------------------------------------------

def probe_orthant(tr, psi):
    """Time one Monte Carlo chunk and one batch projection at this psi."""
    metric = Metric(psi)
    p = metric.dim
    draws = np.random.default_rng(WEIGHT_SEED).standard_normal((PROBE_ROWS, p)) @ metric.chol_lower.T
    with tr.span(f"chibar.weights_monte_carlo.p{p}"):
        weights_monte_carlo(metric, n_draws=PROBE_ROWS, seed=WEIGHT_SEED)
    with tr.span(f"geometry.project_orthant_batch.p{p}"):
        project_orthant_batch(draws, metric)


def probe_quadrant(tr):
    w = weights_closed_form_2d(0.0)
    with tr.span("chibar.solve_critical"):
        c_gamma = solve_critical(w.complement(), GAMMA, "marginal")
    with tr.span("chibar.solve_critical"):
        solve_critical(w, ALPHA, "joint", c2=c_gamma)


# ---------------------------------------------------------------------------
# cli-cases: in-process replays of the valid invocations
# ---------------------------------------------------------------------------

_DT_DROPPED = ("t_safe", "c_alpha_safe", "alpha_safe", "d1", "d2", "conclusion")


def cli_main(argv):
    """cli.main in process, with its summary lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_replay(tr, kind, doc_path):
    """The calls one valid invocation makes, ending in its report text."""
    argv = [a.format(doc=doc_path) for a in CLI_VALID[kind]]
    with tr.span("cli.build_parser"):
        cli.build_parser().parse_args(argv)
    case = argv[-1] if argv[0] != "safe-test" else None
    if case == "silvapulle":
        with tr.span("studies.silvapulle_case"):
            stat, _ = silvapulle_case()
        with tr.span("geometry.LinearSubspace"):
            sub = LinearSubspace.zero(2)
        with tr.span("geometry.ConeSpec"):
            cone = ConeSpec.orthant(2)
        echo = {"case": case, "s_n": stat.s_n.tolist(), "n": stat.n,
                "sigma_n": stat.sigma_n.sigma.tolist()}
    elif case is not None:
        table = CS_TABLE6 if case == "cs-table6" else CS_TABLE5
        if case == "cs-table5-doubled":
            with tr.span("studies.doubled_table"):
                table = doubled_table(table)
        with tr.span("studies.build_stochastic_order"):
            problem = build_stochastic_order(table)
        with tr.span("testing.Statistic"):
            stat = problem.statistic()
        with tr.span("geometry.LinearSubspace"):
            sub = problem.subspace()
        with tr.span("geometry.ConeSpec"):
            cone = problem.cone()
        echo = {"case": case, "control": list(table.control),
                "treatment": list(table.treatment), "labels": list(table.labels)}
    else:
        with tr.span("cli.load_document"):
            with open(doc_path, "r", encoding="utf-8") as fh:
                echo = json.load(fh)
        inp = arrays({"s": echo["s_n"], "sigma": echo["sigma_n"], "n": echo["n"],
                      "order": echo["order"]})
        stat, sub, cone = replay_objects(tr, inp)
    cfg = WeightConfig()
    outcome = replay_safe_test(tr, stat, sub, cone, ALPHA, GAMMA, cfg)
    with tr.span("cli.build_report"):
        report = cli.build_report(outcome, echo, cfg.seed)
    if argv[0] == "dt":
        for key in _DT_DROPPED:
            report.pop(key)
    with tr.span("cli.dumps_report"):
        return cli.dumps_report(report)


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.abspath(path)
