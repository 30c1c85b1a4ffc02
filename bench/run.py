"""ordersafe benchmark: one command, four closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under src/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it holds the full result
(environment, per-kind samples, detail metrics, failures); --out FILE also
writes that to a file. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cli-cases", "safe-test-orders", "distance-stats", "power-grid")
SETUP_RUNS = 5  # cold imports for cli-cases
WORKER_SETUPS = 5  # fresh workers for the other workloads
CHILD_TIMEOUT = 60  # one CLI invocation or helper process; a hang must not outlast a run


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes and one set-up, for bench/smoke.py")
    ap.add_argument("--out", default=None, help="also write the full result here")
    return ap.parse_args()


class Bench:
    def __init__(self, root, workdir, args):
        self.root, self.workdir, self.args = root, workdir, args
        self.env = dict(os.environ, **common.THREAD_VARS)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.py = sys.executable

    def calibrator(self):
        return common.Calibrator(lambda: common.calibrate(self.py, self.env, self.root))

    def run(self, argv, timeout=CHILD_TIMEOUT):
        """Run a child to completion; returns (seconds, exit code, stdout, stderr)."""
        t0 = time.perf_counter()
        proc = subprocess.run([self.py] + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    def environment(self):
        probe = ("import json, numpy, scipy\n"
                 "try:\n"
                 "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
                 "    blas = f\"{blas.get('name')} {blas.get('version', '')}\".strip()\n"
                 "except Exception:\n"
                 "    blas = 'unknown'\n"
                 "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
                 " 'blas': blas}))\n")
        _, _, out, _ = self.run(["-c", probe])
        env = json.loads(out.strip().splitlines()[-1])
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        env.update(nproc=os.cpu_count(), cpu_model=cpu,
                   python=platform.python_version(), threads=dict(common.THREAD_VARS),
                   workload_seed=self.args.seed)
        return env

    def import_probe(self, n, importtime, cal=None):
        """n cold `import ordersafe` runs as timed records, and with importtime
        the median -X importtime breakdown. With cal, each run is preceded by a
        calibration."""
        records, parts = [], []
        flags = ["-X", "importtime"] if importtime else []
        for _ in range(n):
            if cal is not None:
                cal.sample()
            t0 = time.perf_counter()
            wall, rc, _, err = self.run(flags + ["-c", "import ordersafe"])
            if rc != 0:
                raise RuntimeError("import ordersafe failed:\n" + err[-2000:])
            records.append({"t": wall, "t0": t0})
            parts.append(common.parse_importtime(err))
        return records, {k: statistics.median(p[k] for p in parts) for k in parts[0]}

    # -- in-process workloads ------------------------------------------------

    def worker_argv(self, *extra):
        a = self.args
        argv = [os.path.join(self.root, "bench", "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--workdir", self.workdir]
        return argv + (["--smoke"] if a.smoke else []) + list(extra)

    def timed_worker(self, setup_only, cal):
        """Start a worker after a calibration; set-up time is from launch to
        its READY line."""
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen([self.py] + self.worker_argv(*(["--setup-only"] if setup_only else [])),
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, err = proc.communicate(timeout=self.args.seconds + 120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{err[-3000:]}")
        record = {"t": setup, "t0": t0}
        return record, (None if setup_only else json.loads(out.strip().splitlines()[-1]))

    def in_process(self):
        cal = self.calibrator()
        setups = [self.timed_worker(True, cal)[0]
                  for _ in range(0 if self.args.smoke else WORKER_SETUPS - 1)]
        setup, res = self.timed_worker(False, cal)
        res["setup_samples"] = setups + [setup]
        res["setup_calibration"] = cal.samples
        if self.args.trace:
            _, res["import"] = self.import_probe(1 if self.args.smoke else 3, True)
        return res

    # -- cli-cases -----------------------------------------------------------

    def cli_cases(self):
        a = self.args
        ref = common.load_reference()["cli"]
        self.run(["-c", "import ordersafe"])  # compiles bytecode, fills the file cache
        cal = self.calibrator()
        setups, _ = self.import_probe(1 if a.smoke else SETUP_RUNS, False, cal)
        setup_calibration, cal.samples = cal.samples, []
        rng = random.Random(a.seed)
        doc_index = rng.randrange(len(ref["docs"]))
        doc_path = os.path.join(self.workdir, "input.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(ref["docs"][doc_index], fh)
        expect = {k: (v, 0) for k, v in ref["reports"].items()}
        expect["input-simple3"] = (ref["reports"][f"input-simple3/{doc_index}"], 0)
        invocations = {kind: [x.format(doc=doc_path) for x in argv]
                       for kind, argv in common.CLI_VALID.items()}
        for kind, bad in ref["malformed"].items():
            path = os.path.join(self.workdir, kind + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(bad["text"])
            invocations[kind] = ["safe-test", "--input", path]
            expect[kind] = (None, bad["exit"])

        out_path = os.path.join(self.workdir, "report.json")
        seen, plain, traced, imports, failures = {}, [], [], [], []
        attempted = failed = valid_failed = 0
        variants = [[]] + ([["-X", "importtime"]] if a.trace else [])
        # Each valid invocation carries the mean of the calibrations just
        # before and just after it; finish() scales its time by that.
        deadline = time.perf_counter() + a.seconds
        rounds = 0
        before = cal.sample()
        while rounds == 0 or time.perf_counter() < deadline:
            kinds = list(invocations)
            rng.shuffle(kinds)
            for kind in kinds:
                for flags in variants:
                    if os.path.exists(out_path):
                        os.remove(out_path)
                    attempted += 1
                    argv = flags + ["-m", "ordersafe.cli"] + invocations[kind] + ["--out", out_path]
                    t0 = time.perf_counter()
                    try:
                        wall, rc, _, err = self.run(argv)
                    except subprocess.TimeoutExpired:
                        wall, rc, err = None, None, ""
                    text = None
                    if os.path.exists(out_path):
                        with open(out_path, "r", encoding="utf-8") as fh:
                            text = fh.read()
                    after = cal.sample()
                    ref_report, rc_expected = expect[kind]
                    bad = check_cli(kind, rc, text, ref_report, rc_expected, seen)
                    if bad:
                        failed += 1
                        valid_failed += rc_expected == 0
                        failures.extend(bad)
                    elif rc_expected == 0:
                        (traced if flags else plain).append(
                            {"kind": "valid", "t": wall, "t0": t0,
                             "kernel": common.SUBPROCESS_KERNEL, "cal": (before + after) / 2})
                        if flags:
                            imports.append(common.parse_importtime(err))
                    before = after
            rounds += 1
        res = {"attempted": attempted, "failed": failed, "valid_failed": valid_failed,
               "failures": failures[:20], "plain": plain, "setup_samples": setups,
               "calibration": {common.SUBPROCESS_KERNEL: cal.samples},
               "setup_calibration": setup_calibration,
               "details": {}}
        if plain:
            res["details"]["cli_case_s"] = statistics.median(r["t"] for r in plain)
        if a.trace and traced:
            self.cli_layers(res, traced, imports, rounds, doc_index)
        return res

    def cli_layers(self, res, traced, imports, rounds, doc_index):
        _, rc, out, err = self.run(
            self.worker_argv("--replays", str(rounds), "--doc-index", str(doc_index)))
        if rc != 0:
            raise RuntimeError("cli replay worker failed:\n" + err[-3000:])
        rep = json.loads(out.strip().splitlines()[-1])
        res["attempted"] += rep["replays"]
        res["failed"] += len(rep["failures"])
        res["valid_failed"] += len(rep["failures"])
        res["failures"] += rep["failures"]
        wall = statistics.median(r["t"] for r in traced)
        res["import"] = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
        layers = {"import.share": 100.0 * res["import"]["import.total_s"] / wall}
        for layer in common.LAYERS:
            layers[f"{layer}.share"] = 100.0 * rep["self_per_op"][layer] / wall
            layers[f"{layer}.calls"] = rep["calls_per_op"][layer]
        layers["trace.round_s"] = wall
        layers["trace.overhead_s"] = wall - statistics.median(r["t"] for r in res["plain"])
        res["layers"] = layers
        res["details"].update(rep["details"])
        res["n_spans"], res["span_cost_s"] = rep["n_spans"], rep["span_cost_s"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _compare(got, ref, path, bad):
    """Numbers to 1e-12 relative, everything else exactly; extra keys allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            bad.append(f"{path}: expected an object")
            return
        for key, val in ref.items():
            if key not in got:
                bad.append(f"{path}.{key}: missing")
            else:
                _compare(got[key], val, f"{path}.{key}", bad)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            bad.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{i}]", bad)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or \
                abs(got - ref) > 1e-12 * abs(ref):
            bad.append(f"{path}: {got!r}, seed {ref!r}")
    elif got != ref or type(got) is not type(ref):
        bad.append(f"{path}: {got!r}, seed {ref!r}")


def check_cli(kind, rc, text, ref_report, rc_expected, seen):
    """Exit code, strict JSON, agreement with the seed, byte-identical repeats."""
    bad = []
    if rc != rc_expected:
        bad.append(f"{kind}: exit {rc}, expected {rc_expected}")
    if text is not None:
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            bad.append(f"{kind}: report is not strict JSON ({exc})")
            doc = None
        if ref_report is not None and doc is not None:
            _compare(doc, ref_report, kind, bad)
        if seen.setdefault(kind, text) != text:
            bad.append(f"{kind}: report differs from an earlier run of the same invocation")
    elif rc_expected == 0:
        bad.append(f"{kind}: no report written")
    return bad


END_TO_END = ("setup_s", "round_s", "op_s")
PER_LAYER = (("import.total_s", "s"), ("import.scipy_special_s", "s"),
             ("import.scipy_linalg_s", "s"), ("import.numpy_s", "s"),
             ("import.share", "%")) \
    + tuple((f"{layer}.share", "%") for layer in common.LAYERS) \
    + tuple((f"{layer}.calls", "count") for layer in common.LAYERS) \
    + (("trace.round_s", "s"), ("trace.overhead_s", "s"))


def finish(args, env, res):
    """Assemble the full result and the result line; None if nothing was measured."""
    if not res["plain"] or not res["setup_samples"]:
        return None, None
    ref = common.load_reference()

    def reference_s(kernel):
        if kernel == common.SUBPROCESS_KERNEL:
            return ref["calibration_s"]
        return ref["kernel_s"][kernel]

    plain = [dict(r, t=r["t"] * reference_s(r["kernel"]) / r["cal"]) for r in res["plain"]]
    setups = [r["t"] for r in common.scaled(res["setup_samples"], res["setup_calibration"],
                                            ref["calibration_s"])]
    round_s, op_s = common.round_and_op(common.kind_medians(plain))
    raw_round, raw_op = common.round_and_op(common.kind_medians(res["plain"]))
    samples = {}
    for rec in plain:
        samples.setdefault(rec["kind"], []).append(rec["t"])
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env,
            "end_to_end": {"setup_s": statistics.median(setups), "round_s": round_s, "op_s": op_s},
            "raw_end_to_end": {"setup_s": statistics.median(r["t"] for r in res["setup_samples"]),
                               "round_s": raw_round, "op_s": raw_op},
            "calibration": {
                "setup_reference_s": ref["calibration_s"],
                "before_setups": common.summary([c for _, c in res["setup_calibration"]]),
                "during_run": {kernel: dict(common.summary([c for _, c in samples]),
                                            reference_s=reference_s(kernel))
                               for kernel, samples in res["calibration"].items()}},
            "setup": common.summary(setups),
            "kinds": {k: common.summary(v) for k, v in sorted(samples.items())},
            "attempted": res["attempted"], "failed": res["failed"],
            "fail_share": res["failed"] / res["attempted"],
            "failures": res["failures"], "details": res["details"]}
    # malformed cli documents count in failed; correct covers the valid inputs
    correct = res.get("valid_failed", res["failed"]) == 0
    if args.trace:
        if not res.get("layers"):
            return full, None
        layers = dict(res["layers"], **res["import"])
        full["per_layer"] = layers
        full["n_spans"] = res.get("n_spans")
        full["span_cost_s"] = res.get("span_cost_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": full["end_to_end"][name], "unit": "s"} for name in END_TO_END}
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return full, line


def main():
    args = _parse()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "ordersafe", "__init__.py")):
        print(f"error: no ordersafe sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        bench = Bench(root, workdir, args)
        env = bench.environment()
        res = bench.cli_cases() if args.workload == "cli-cases" else bench.in_process()
        spans = os.path.join(workdir, "spans.json")
        if os.path.exists(spans):
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            shutil.copyfile(spans, os.path.join(
                root, ".bench_out", f"spans-{args.workload}-{args.seed}.json"))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    full, line = finish(args, env, res)
    if line is None:
        print("error: no operation succeeded; failures:\n" + "\n".join(res["failures"][:10]),
              file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(full, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
