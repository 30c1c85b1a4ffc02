"""In-process side of the benchmark, started by run.py in a fresh interpreter.

It imports ordersafe, builds the inputs and warms up every timed entry
point, prints READY (run.py times set-up up to that line), then runs the
closed loop for the given seconds and prints one JSON result line.
With --trace 1 each operation is also replayed with spans, right after its
plain run on the same input, so the two can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import common  # noqa: E402
import kernels  # noqa: E402


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--replays", type=int, default=1)
    ap.add_argument("--doc-index", type=int, default=0)
    return ap.parse_args()


class SafeTestOrders:
    """safe_test on simple and tree orders at K = 4, 6, 8 (p = 3, 5, 7)."""

    KERNELS = ("vector",)

    def kernel(self, kind):
        return "vector"

    def __init__(self, ref, smoke):
        self.n_draws = 2000 if smoke else cases.SAFE_DRAWS
        ks = cases.SAFE_KS[:1] if smoke else cases.SAFE_KS
        self.pool = {(o, k): [cases.arrays(it) for it in ref["safe"][f"{o}-k{k}"]]
                     for o in cases.SAFE_ORDERS for k in ks}

    def warm_up(self):
        cases.safe_plain(self.pool[("simple", 4)][0], 2000)

    def round(self, rng):
        ops = [(f"k{k}-{o}", item) for (o, k), items in self.pool.items()
               for item in items for _ in range(cases.SAFE_REPEATS[k])]
        rng.shuffle(ops)
        return ops

    def plain(self, inp):
        return cases.safe_plain(inp, self.n_draws)

    def traced(self, tr, inp):
        return cases.safe_traced(tr, inp, self.n_draws)

    def check(self, out, inp):
        return cases.check_safe(out, inp, self.n_draws)

    def probes(self, tr):
        for (order, k), items in self.pool.items():
            if order == "simple":
                r = cases.make_cone(order, k).as_polyhedral()
                cases.probe_orthant(tr, r @ items[0]["sigma"] @ r.T)

    def details(self, plain, traced, tr, probes):
        out = {}
        for k in sorted({k for _, k in self.pool}):
            out[f"safe_test_k{k}_s"] = _median_where(plain, lambda kind: kind.startswith(f"k{k}-"))
        if tr is None:
            return out
        weights = {}
        for rec in traced:
            w = rec["out"]["w"]
            weights.setdefault(len(w) - 1, []).append(w)
        for p, ws in sorted(weights.items()):
            out[f"chibar.weights_sum_err.p{p}"] = max(abs(sum(w) - 1.0) for w in ws)
            out[f"chibar.weights_parity_err.p{p}"] = max(
                abs(sum((-1) ** j * x for j, x in enumerate(w))) for w in ws)
        for k in sorted({k for _, k in self.pool}):
            sel = [r for r in traced if r["kind"].startswith(f"k{k}-")]
            rw = [r["spans"]["testing.resolve_weights"][0] for r in sel]
            out[f"testing.resolve_weights_s.k{k}"] = statistics.median(rw)
            out[f"testing.safe_test_rest_s.k{k}"] = statistics.median(
                r["t"] - w for r, w in zip(sel, rw))
        return dict(out, **_probe_details(probes))


class DistanceStats:
    """dt_type_a + dt_type_b (+ PAVA on diagonal simple orders), K = 8..14."""

    KERNELS = ("scalar",)

    def kernel(self, kind):
        return "scalar"

    def __init__(self, ref, smoke):
        ks = cases.DIST_KS[:1] if smoke else cases.DIST_KS
        self.pool = {}
        for o in cases.DIST_ORDERS:
            for k in ks:
                items = [cases.arrays(it) for it in ref["dist"][f"{o}-k{k}"]]
                inside = [it for it in items if it["inside"]]
                outside = [it for it in items if not it["inside"]]
                self.pool[(o, k)] = (inside[:cases.DIST_ROUND_INSIDE]
                                     + outside[:cases.DIST_ROUND_OUTSIDE])

    def warm_up(self):
        import numpy as np

        for order in cases.DIST_ORDERS:
            cases.dist_plain({"order": order, "s": np.array([0.5, -0.2, 0.1, 0.3]),
                              "sigma": np.diag([1.0, 2.0, 1.5, 0.5]), "n": 10})

    def round(self, rng):
        ops = [(f"k{k}-{o}", it) for (o, k), items in self.pool.items() for it in items]
        rng.shuffle(ops)
        return ops

    def plain(self, inp):
        return cases.dist_plain(inp)

    def traced(self, tr, inp):
        return cases.dist_traced(tr, inp)

    def check(self, out, inp):
        return cases.check_dist(out, inp)

    def probes(self, tr):
        pass

    def details(self, plain, traced, tr, probes):
        out = {}
        for k in sorted({k for _, k in self.pool}):
            out[f"dt_k{k}_s"] = _median_where(plain, lambda kind: kind.startswith(f"k{k}-"))
        if tr is None:
            return out
        for k in sorted({k for _, k in self.pool}):
            for side in ("inside", "outside"):
                durs = [d for r in traced if r["kind"].startswith(f"k{k}-")
                        and r["inp"]["inside"] == (side == "inside")
                        for d in r["spans"]["geometry.project_cone"]]
                if durs:
                    out[f"geometry.project_cone_s.k{k}.{side}"] = statistics.median(durs)
        out["geometry.project_cone_inside_share"] = (
            sum(r["inp"]["inside"] for r in traced) / len(traced))
        return out


class PowerGrid:
    """power_grid over the 63 cells, at workers=1 and at workers=2."""

    KERNELS = ("vector", "vector2")

    def kernel(self, kind):
        return "vector2" if kind == "w2" else "vector"

    def __init__(self, ref, smoke):
        power = ref["power"]
        if smoke:
            sm = power["smoke"]
            self.reps, self.cells = sm["reps"], sm["cells"]
            self.grids = {sm["seed"]: sm["rows"]}
        else:
            self.reps, self.cells = power["reps"], {}
            self.grids = {int(s): rows for s, rows in power["grids"].items()}
        self.n_cells = len(next(iter(self.grids.values())))

    def warm_up(self):
        cases.power_plain(1, 2, 2 * 16384, {"mean_labels": ["theta0"], "gammas": [0.1],
                                            "ns": [10]})

    def round(self, rng):
        seed = rng.choice(sorted(self.grids))
        ops = [(f"w{w}", (seed, w)) for w in cases.POWER_WORKERS]
        rng.shuffle(ops)
        return ops

    def plain(self, job):
        return cases.power_plain(job[0], job[1], self.reps, self.cells)

    def traced(self, tr, job):
        return cases.power_traced(tr, job[0], job[1], self.reps, self.cells)

    def check(self, rows, job):
        return cases.check_power(rows, self.grids[job[0]])

    def probes(self, tr):
        import numpy as np

        cases.probe_orthant(tr, np.eye(2))
        cases.probe_quadrant(tr)

    def details(self, plain, traced, tr, probes):
        reps = self.reps * self.n_cells
        rate = {w: reps / _median_where(plain, lambda kind, w=w: kind == f"w{w}")
                for w in cases.POWER_WORKERS}
        out = {"power_reps_per_s": rate[1], "power_reps_per_s_w2": rate[2]}
        if tr is None:
            return out
        out["studies.power_scaling_eff"] = rate[2] / (2.0 * rate[1])
        for w in cases.POWER_WORKERS:
            durs = [d for r in traced if r["kind"] == f"w{w}"
                    for d in r["spans"]["studies.run_power_scenario"]]
            out[f"studies.power_cell_s.w{w}"] = statistics.median(durs)
        return dict(out, **_probe_details(probes))


WORKLOADS = {"safe-test-orders": SafeTestOrders, "distance-stats": DistanceStats,
             "power-grid": PowerGrid}


def _probe_details(probes):
    """Probe spans "<layer>.<call>.p<p>" become per-p times and row rates."""
    out = {}
    for name, durs in probes.items():
        parts = name.split(".")
        if len(parts) == 2:
            out[name + "_s"] = statistics.median(durs)
            continue
        layer, fn, p = parts
        out[f"{layer}.{fn}_s.{p}"] = durs[0]
        rate = "mc_draws_per_s" if layer == "chibar" else "orthant_batch_rows_per_s"
        out[f"{layer}.{rate}.{p}"] = cases.PROBE_ROWS / durs[0]
    return out


def _median_where(records, pred):
    return statistics.median(r["t"] for r in records if pred(r["kind"]))


def _op_spans(tr, first):
    """Durations by name of the spans recorded since index first, below the op."""
    out = {}
    for name, start, end, parent, _ in tr.spans[first + 1:]:
        out.setdefault(name, []).append(end - start)
    return out


def _layers(tr, traced, plain):
    """Per-layer metrics of the traced operations."""
    self_s, calls, ops_total, by_name = tr.layer_totals()
    n_ops = len(traced)
    out = {"import.share": 0.0}
    for layer in common.LAYERS:
        out[f"{layer}.share"] = 100.0 * self_s[layer] / ops_total
        out[f"{layer}.calls"] = calls[layer] / n_ops
    traced_round, _ = common.round_and_op(common.kind_medians(traced))
    plain_round, _ = common.round_and_op(common.kind_medians(plain))
    out["trace.round_s"] = traced_round
    out["trace.overhead_s"] = traced_round - plain_round
    names = {name: statistics.median(d) for name, d in by_name.items()}
    return out, {f"{name}_s": v for name, v in sorted(names.items())}


def run_loop(wl, seed, seconds, trace, cals):
    rng = random.Random(seed)
    tr = common.Tracer() if trace else None
    plain, traced, failures = [], [], []
    attempted = failed = 0

    def attempt(fn):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # an operation that raises counts as failed
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            return None, t0, time.perf_counter() - t0
        return out, t0, time.perf_counter() - t0

    def checked(out, inp):
        nonlocal failed
        bad = wl.check(out, inp)
        if bad:
            failed += 1
            failures.extend(bad)
        return not bad

    # Each plain operation carries its kind's kernel and the mean of that
    # kernel's calibrations just before and just after it; run.py scales
    # its time by that.
    def calibrate():
        return {name: c.sample() for name, c in cals.items()}

    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        for kind, inp in wl.round(rng):
            out, t0, t = attempt(lambda: wl.plain(inp))
            after = calibrate()
            if out is not None and checked(out, inp):
                k = wl.kernel(kind)
                plain.append({"kind": kind, "t": t, "t0": t0, "kernel": k,
                              "cal": (before[k] + after[k]) / 2})
            before = after
            if tr is not None:
                first = len(tr.spans)

                def replay():
                    with tr.op(kind):
                        return wl.traced(tr, inp)

                out, _, t = attempt(replay)
                if out is not None and checked(out, inp):
                    traced.append({"kind": kind, "t": t, "spans": _op_spans(tr, first),
                                   "out": out, "inp": inp})
                before = calibrate()
        if time.perf_counter() >= deadline:
            return plain, traced, tr, attempted, failed, failures


def main():
    args = _parse()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    import ordersafe

    if not os.path.abspath(ordersafe.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"ordersafe imported from {ordersafe.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    ref = common.load_reference()
    if args.workload == "cli-cases":
        return cli_replays(ref, args)
    wl = WORKLOADS[args.workload](ref, args.smoke)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    cals = {name: common.Calibrator(lambda name=name: kernels.measure(name))
            for name in wl.KERNELS}
    plain, traced, tr, attempted, failed, failures = run_loop(
        wl, args.seed, args.seconds, args.trace, cals)
    result = {"attempted": attempted, "failed": failed, "failures": failures[:20],
              "plain": plain, "calibration": {name: c.samples for name, c in cals.items()}}
    if not plain or (args.trace and not traced):
        result["layers"], result["details"] = None, {}
    elif tr is None:
        result["details"] = wl.details(plain, traced, None, {})
    else:
        probe_tr = common.Tracer()
        wl.probes(probe_tr)
        probes = {}
        for name, start, end, _, _ in probe_tr.spans:
            probes.setdefault(name, []).append(end - start)
        layers, names = _layers(tr, traced, plain)
        result["layers"] = layers
        result["details"] = dict(names, **wl.details(plain, traced, tr, probes))
        result["n_spans"] = len(tr.spans)
        result["span_cost_s"] = tr.span_cost()
        if args.workdir:
            tr.dump(os.path.join(args.workdir, "spans.json"))
    print(json.dumps(result), flush=True)
    return 0


def cli_replays(ref, args):
    """In-process replays of every valid CLI invocation, for the traced run.

    cli.main is timed whole; the replay then makes the calls it makes, and
    its report must equal the one cli.main wrote, byte for byte.
    """
    main_tr, tr = common.Tracer(), common.Tracer()
    doc = ref["cli"]["docs"][args.doc_index]
    doc_path = cases.write_doc(os.path.join(args.workdir, "replay-doc.json"), doc)
    out_path = os.path.join(args.workdir, "replay-report.json")
    failures, report_s, report_bytes = [], [], []
    for _ in range(args.replays):
        for kind, argv in cases.CLI_VALID.items():
            argv = [a.format(doc=doc_path) for a in argv] + ["--out", out_path]
            with main_tr.op(kind):
                with main_tr.span("cli.main"):
                    rc = cases.cli_main(argv)
            with open(out_path, "r", encoding="utf-8") as fh:
                expected = fh.read()
            first = len(tr.spans)
            with tr.op(kind):
                text = cases.cli_replay(tr, kind, doc_path)
            spans = _op_spans(tr, first)
            report_s.append(sum(spans["cli.build_report"]) + sum(spans["cli.dumps_report"]))
            report_bytes.append(len(text.encode("utf-8")))
            if rc != 0 or text != expected:
                failures.append(f"{kind}: in-process replay differs from cli.main")
    self_s, calls, _, by_name = tr.layer_totals()
    n_ops = tr.op_id + 1
    details = {f"{name}_s": statistics.median(d) for name, d in sorted(by_name.items())}
    details.update({"cli.main_s": statistics.median(s[2] - s[1] for s in main_tr.spans
                                                    if s[0] == "cli.main"),
                    "cli.report_s": statistics.median(report_s),
                    "cli.report_bytes": statistics.median(report_bytes)})
    result = {"failures": failures, "replays": n_ops,
              "self_per_op": {k: v / n_ops for k, v in self_s.items()},
              "calls_per_op": {k: v / n_ops for k, v in calls.items()},
              "span_cost_s": tr.span_cost(), "n_spans": len(tr.spans), "details": details}
    tr.dump(os.path.join(args.workdir, "spans.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
