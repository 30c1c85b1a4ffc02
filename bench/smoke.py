"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 bench/smoke.py

Runs every workload at minimal size in both modes and checks that each
metric BENCHMARK.json names is printed with its unit. It then feeds each
output check a wrong answer and requires that the check rejects it.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_workloads(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{wl['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{wl['name']}: result keys {sorted(line)}")
            if not line["correct"] or line["attempted"] < 1:
                sys.exit(f"{wl['name']} trace={trace}: output checks failed\n{proc.stdout}")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != units:
                sys.exit(f"{wl['name']} trace={trace}: metrics {got}, expected {units}")
            print(f"ok  {wl['name']:<17} trace={trace}  attempted={line['attempted']}"
                  f" failed={line['failed']}")


def checks_reject_wrong_answers():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import cases
    import common
    from run import check_cli

    ref = common.load_reference()
    item = cases.arrays(ref["safe"]["simple-k4"][0])
    out = cases.safe_plain(item, 2000)
    assert not cases.check_safe(out, item, 2000)
    assert cases.check_safe(dict(out, t=out["t"] * 1.01 + 1e-6), item, 2000)
    assert cases.check_safe(dict(out, w=[x * 1.1 for x in out["w"]]), item, 2000)

    item = cases.arrays(next(it for it in ref["dist"]["simple-k8"] if not it["inside"]))
    out = cases.dist_traced(common.Tracer(), item)
    assert not cases.check_dist(out, item)
    assert cases.check_dist(dict(out, t_b=out["t_b"] + 1e-6), item)
    nudged = out["proj"].copy()
    nudged[-1] -= 0.01
    assert cases.check_dist(dict(out, proj=nudged), item)

    smoke = ref["power"]["smoke"]
    rows = copy.deepcopy(smoke["rows"])
    assert not cases.check_power(rows, smoke["rows"])
    rows[0]["power_dt"] += 1e-12
    assert cases.check_power(rows, smoke["rows"])

    report = ref["cli"]["reports"]["case-silvapulle"]
    text = json.dumps(report)
    assert not check_cli("k", 0, text, report, 0, {})
    assert check_cli("k", 1, text, report, 0, {})
    assert check_cli("k", 0, text.replace("0.05", "NaN", 1), report, 0, {})
    assert check_cli("k", 0, json.dumps(dict(report, t_n=report["t_n"] * (1 + 1e-9))), report, 0, {})
    assert check_cli("k", 0, text, report, 0, {"k": text + " "})
    print("ok  output checks reject wrong answers")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    run_workloads(spec)
    checks_reject_wrong_answers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
