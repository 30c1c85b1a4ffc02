"""Shared helpers for the benchmark: statistics, spans, reference data.

Only the standard library is imported here, so the parent process that
launches CLI subprocesses never pays for numpy or scipy.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

#: Module names used as layer names; a span "geometry.project_cone" is
#: attributed to the layer "geometry".
LAYERS = ("cli", "testing", "chibar", "geometry", "isotonic", "studies")

#: Thread variables pinned for every process the benchmark starts.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

#: The valid CLI invocations of cli-cases; "{doc}" is the input document path.
CLI_VALID = {
    "case-silvapulle": ["case", "silvapulle"],
    "case-cs-table5": ["case", "cs-table5"],
    "case-cs-table6": ["case", "cs-table6"],
    "case-cs-table5-doubled": ["case", "cs-table5-doubled"],
    "dt-cs-table5": ["dt", "--case", "cs-table5"],
    "input-simple3": ["safe-test", "--input", "{doc}"],
}

#: The calibration of cli-cases and of every set-up sample: a fresh
#: interpreter importing numpy, which does not depend on this repository.
#: The in-process workloads calibrate with a kernel from kernels.py instead.
CALIBRATION_ARGV = ["-c", "import numpy"]
#: Its name where a result names the calibration of each operation.
SUBPROCESS_KERNEL = "import-numpy"
#: A set-up sample is scaled by the calibrations within this many seconds of it.
CALIBRATION_WINDOW_S = 1.5

_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def calibrate(python, env, cwd):
    """Seconds one calibration run takes."""
    t0 = time.perf_counter()
    subprocess.run([python] + CALIBRATION_ARGV, env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


class Calibrator:
    """Calibration samples (midpoint, seconds) of measure(), a function that
    returns the seconds one calibration took."""

    def __init__(self, measure):
        self.measure = measure
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        seconds = self.measure()
        self.samples.append((t0 + seconds / 2, seconds))
        return seconds


def scaled(records, samples, reference_s):
    """Records with t in reference seconds: t * reference_s / c, where c is the
    median calibration within CALIBRATION_WINDOW_S of the record's interval
    [t0, t0 + t], or the nearest calibration if none is that close. Set-up
    samples are scaled this way, by the calibrations just before and after."""
    out = []
    for rec in records:
        lo, hi = rec["t0"] - CALIBRATION_WINDOW_S, rec["t0"] + rec["t"] + CALIBRATION_WINDOW_S
        near = [sec for mid, sec in samples if lo <= mid <= hi]
        if not near:
            near = [min(samples, key=lambda s: abs(s[0] - rec["t0"]))[1]]
        out.append(dict(rec, t=rec["t"] * reference_s / statistics.median(near)))
    return out


def summary(values):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "samples": n, "p_hi": None}
    for q in reversed(_PERCENTILES):
        if n * (1.0 - q / 100.0) >= 10:
            idx = min(n - 1, math.ceil(q / 100.0 * n) - 1)
            out["p_hi"] = {"percentile": q, "value": vals[idx]}
            break
    return out


def kind_medians(records):
    """Median wall time of each operation kind, over timed records."""
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec["t"])
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def round_and_op(medians):
    """round_s is one pass over the kinds; op_s their geometric mean."""
    vals = list(medians.values())
    round_s = sum(vals)
    op_s = math.exp(sum(math.log(v) for v in vals) / len(vals))
    return round_s, op_s


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind):
        self.op_id += 1
        with self.span("op." + kind):
            yield

    def span_cost(self, n=20000):
        """Seconds the tracer adds per recorded span, measured on empty spans."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def layer_totals(self):
        """Self time and call count per layer, plus the total of root spans.

        A span's self time is its duration minus its children's durations.
        Root spans ("op.*") are operations; their self time is benchmark glue.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_name = {}
        ops_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            if parent is None:
                ops_total += dur
                continue
            layer = name.split(".", 1)[0]
            own = dur - child_time[i]
            self_s[layer] += own
            calls[layer] += 1
            by_name.setdefault(name, []).append(dur)
        return self_s, calls, ops_total, by_name

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def parse_importtime(stderr_text):
    """Cumulative import seconds of the modules the import layer reports."""
    wanted = {"ordersafe": "import.total_s", "scipy.special": "import.scipy_special_s",
              "scipy.linalg": "import.scipy_linalg_s", "numpy": "import.numpy_s"}
    out = {v: 0.0 for v in wanted.values()}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in wanted:
            try:
                out[wanted[name]] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return out
