"""Regenerate bench/reference.json: the input pools and the expected outputs.

The pools are drawn once from a fixed generator seed; a benchmark run's
--seed only chooses among them and orders them, so every input a run can
see has a stored expected output. The expected outputs are the library's
answers at the commit that defined the benchmark. Rerunning this script
on a later commit would overwrite that reference, so do it only when the
benchmark itself is redefined.

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import kernels  # noqa: E402
from common import REFERENCE_PATH, THREAD_VARS, calibrate  # noqa: E402
from ordersafe.chibar import chi2_sf  # noqa: E402

POOL_SEED = 20261017
SAFE_POOL = 4
#: Draws behind the stored safe_test outputs; more than a run uses, so the
#: reference is the more accurate side of each p-value check.
SAFE_REFERENCE_DRAWS = 100_000
DIST_INSIDE, DIST_OUTSIDE = 3, 6
POWER_SEEDS = (1729, 2718, 31415, 4669)
CLI_DOCS = 6
CALIBRATION_RUNS = 31
CALIBRATION_PAUSE_S = 2.0

#: Two cells at two chunks each: the grid the smoke test runs.
POWER_SMOKE = {"reps": 2 * 16384,
               "cells": {"mean_labels": ["theta0", "theta5"], "gammas": [0.1], "ns": [10]}}

MALFORMED = {
    "bad-nan": ('{"s_n": [NaN, 1.0], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], '
                '"n": 5, "order": "simple"}', 2),
    "bad-overflow": ('{"s_n": [1e200, -1e200], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], '
                     '"n": 5, "restriction": [[1.0, 0.0], [0.0, 1.0]]}', 3),
    "bad-bool": ('{"s_n": [1.0, 2.0], "sigma_n": [[1.0, 0.5], [0.5, 1.0]], '
                 '"n": true, "order": "simple"}', 2),
}


def _spd(rng, k):
    a = rng.standard_normal((k, k))
    return a @ a.T / k + 0.5 * np.eye(k)


def _inside(rng, order, k):
    steps = 0.2 + rng.uniform(0.0, 0.5, k - 1)
    if order == "simple":
        return np.concatenate(([0.0], np.cumsum(steps))) - 1.0
    if order == "tree":
        return np.concatenate(([-1.0], rng.uniform(-0.5, 1.0, k - 1)))
    peak = k // 2
    up = np.concatenate(([0.0], np.cumsum(steps[:peak])))
    down = up[-1] - np.cumsum(steps[peak:])
    return np.concatenate((up, down))


def safe_pool(rng):
    pool = {}
    for order in cases.SAFE_ORDERS:
        for k in cases.SAFE_KS:
            items = []
            for i in range(SAFE_POOL):
                sigma = _spd(rng, k)
                n = 40
                drift = (0.3 if i % 2 else -0.1) * np.linspace(-1.0, 1.0, k)
                noise = np.linalg.cholesky(sigma) @ rng.standard_normal(k) / np.sqrt(n)
                items.append({"order": order, "s": (drift + noise).tolist(),
                              "sigma": sigma.tolist(), "n": n})
            pool[f"{order}-k{k}"] = items
    return pool


def dist_pool(rng):
    pool = {}
    for order in cases.DIST_ORDERS:
        for k in cases.DIST_KS:
            r = cases.make_cone(order, k).as_polyhedral()
            items = []
            for i in range(DIST_INSIDE + DIST_OUTSIDE):
                inside = i < DIST_INSIDE
                if order == "simple":
                    sigma = np.diag(rng.uniform(0.5, 2.0, k))
                else:
                    sigma = _spd(rng, k)
                s = _inside(rng, order, k) if inside else rng.standard_normal(k)
                while not inside and (r @ s).min() > -1e-3:
                    s = rng.standard_normal(k)
                if inside and (r @ s).min() <= 1e-3:
                    raise RuntimeError(f"{order} K={k}: pool statistic not inside the cone")
                items.append({"order": order, "s": s.tolist(), "sigma": sigma.tolist(),
                              "n": 30, "inside": inside})
            pool[f"{order}-k{k}"] = items
    return pool


def cli_docs(rng):
    docs = []
    for _ in range(CLI_DOCS):
        sigma = _spd(rng, 3)
        s = 0.4 * np.linspace(-1.0, 1.0, 3) + rng.standard_normal(3) * 0.3
        docs.append({"s_n": s.tolist(), "sigma_n": sigma.tolist(), "n": 25,
                     "order": "simple"})
    return docs


def main():
    rng = np.random.default_rng(POOL_SEED)
    ref = {"note": "input pools and seed outputs; regenerate with bench/make_reference.py"}

    safe = safe_pool(rng)
    for items in safe.values():
        for item in items:
            out = cases.safe_plain(cases.arrays(item), SAFE_REFERENCE_DRAWS)
            p = len(out["w"]) - 1
            item.update(out, n_draws=SAFE_REFERENCE_DRAWS,
                        sf_a=[float(out["t"] <= 0)] + [float(chi2_sf(out["t"], j)) for j in range(1, p + 1)],
                        sf_b=[float(out["t_prime"] <= 0)] + [float(chi2_sf(out["t_prime"], j)) for j in range(1, p + 1)])
            print("safe", item["order"], p, out["t"], out["alpha_star"], flush=True)
    ref["safe"] = safe

    dist = dist_pool(rng)
    for items in dist.values():
        for item in items:
            out = cases.dist_plain(cases.arrays(item))
            item.update(t_a=out["t_a"], t_b=out["t_b"])
            if "split" in out:
                item["split"] = out["split"]
    ref["dist"] = dist
    print("dist done", flush=True)

    grids = {}
    for seed in POWER_SEEDS:
        grids[str(seed)] = cases.power_plain(seed, 1, cases.POWER_REPS, {})
    smoke_rows = cases.power_plain(POWER_SEEDS[0], 1, POWER_SMOKE["reps"], POWER_SMOKE["cells"])
    ref["power"] = {"reps": cases.POWER_REPS, "grids": grids,
                    "smoke": dict(POWER_SMOKE, seed=POWER_SEEDS[0], rows=smoke_rows)}
    print("power done", flush=True)

    docs = cli_docs(rng)
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report.json")
        for kind, argv in cases.CLI_VALID.items():
            for i, doc in enumerate(docs if "{doc}" in argv else [None]):
                doc_path = cases.write_doc(os.path.join(tmp, "doc.json"), doc) if doc else ""
                args = [a.format(doc=doc_path) for a in argv] + ["--out", out_path]
                if cases.cli_main(args) != 0:
                    raise RuntimeError(f"reference invocation failed: {args}")
                with open(out_path, "r", encoding="utf-8") as fh:
                    reports[f"{kind}/{i}" if doc else kind] = json.load(fh)
    ref["cli"] = {"docs": docs, "reports": reports,
                  "malformed": {k: {"text": t, "exit": e} for k, (t, e) in MALFORMED.items()}}

    root = os.path.dirname(os.path.dirname(REFERENCE_PATH))
    env = dict(os.environ, **THREAD_VARS)
    # The reference times are units only. Spacing the samples out keeps one
    # brief host speed state from setting them.
    samples = {name: [] for name in ("calibration", *kernels.KERNELS)}
    for _ in range(CALIBRATION_RUNS):
        samples["calibration"].append(calibrate(sys.executable, env, root))
        for name in kernels.KERNELS:
            samples[name].append(kernels.measure(name))
        time.sleep(CALIBRATION_PAUSE_S)
    ref["calibration_s"] = statistics.median(samples.pop("calibration"))
    ref["kernel_s"] = {name: statistics.median(v) for name, v in samples.items()}

    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print("wrote", REFERENCE_PATH)


if __name__ == "__main__":
    main()
