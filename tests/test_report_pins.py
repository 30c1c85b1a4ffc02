"""CLI reports pinned byte for byte against committed golden files.

The invocations reach the simple, tree and umbrella cones and ConeSpec(R),
and the two nulls the CLI builds, span_of_ones and from_constraint; every
built-in case is a document read like an --input file, so the CLI no longer
reaches LinearSubspace.zero, which the bench and other tests still call.
Each pin compares the --out report and the printed summary with the files
under tests/golden/; two more pin the CSVs of two small power grids at
one, two and three workers. To regenerate them after an intended change of
output, run

    PYTHONPATH=src python tests/test_report_pins.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest

from ordersafe.cli import EXIT_OK, main
from ordersafe.geometry import ConeSpec, LinearSubspace, Metric
from ordersafe.testing import Statistic, resolve_weights

GOLDEN = pathlib.Path(__file__).parent / "golden"

_IDENTITY_4 = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
_SIGMA_4 = [[1.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.3, 0.1],
            [0.1, 0.3, 1.0, 0.3], [0.0, 0.1, 0.3, 1.0]]
#: Banded 9 x 9 covariance: a tree order on it has p = 8, so its exact
#: weights evaluate orthant probabilities of every dimension 4 to 8.
_SIGMA_9 = [[{0: 1.0, 1: 0.3, 2: 0.1}.get(abs(i - j), 0.0) for j in range(9)] for i in range(9)]

DOCUMENTS = {
    "order-simple": {"s_n": [0.1, 0.4, 0.3, 0.9], "sigma_n": _SIGMA_4, "n": 40,
                     "order": "simple"},
    "order-tree": {"s_n": [-0.2, 0.5, 0.1, 0.7], "sigma_n": _IDENTITY_4, "n": 25,
                   "order": "tree"},
    "order-tree-9": {"s_n": [0.25, 0.8, 0.15, 0.9, 0.5, 0.85, 1.0, 0.6, 0.75],
                     "sigma_n": _SIGMA_9, "n": 20, "order": "tree"},
    "order-umbrella": {"s_n": [0.2, 0.8, 0.5, 0.1], "sigma_n": _SIGMA_4, "n": 30,
                       "order": {"umbrella": 1}, "alpha": 0.1},
    "restriction": {"s_n": [0.3, -0.1, 0.6], "sigma_n": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                                                          [0.0, 0.2, 1.5]],
                    "n": 12, "restriction": [[1.0, -1.0, 0.0], [0.0, 1.0, 2.0]]},
}

PINS = {
    "case-silvapulle": ["case", "silvapulle"],
    "case-cs-table5": ["case", "cs-table5"],
    "case-cs-table6": ["case", "cs-table6"],
    "case-cs-table5-doubled": ["case", "cs-table5-doubled"],
    "dt-cs-table5": ["dt", "--case", "cs-table5"],
    "dt-cs-table5-alpha97": ["dt", "--case", "cs-table5", "--alpha", "0.97"],
    **{f"input-{name}": ["safe-test", "--input", f"{name}.json"] for name in DOCUMENTS},
}

_LABELS = ["Worse", "Same", "Better"]
#: The document each built-in case stands for, written out as an --input file would hold it.
CASE_DOCUMENTS = {
    "silvapulle": {"s_n": [-3.0, -2.0], "sigma_n": [[1.0, 0.9], [0.9, 1.0]], "n": 5,
                   "restriction": [[1.0, 0.0], [0.0, 1.0]]},
    "cs-table5": {"control": [5, 11, 1], "treatment": [3, 8, 4], "labels": _LABELS},
    "cs-table6": {"control": [0, 16, 1], "treatment": [8, 3, 4], "labels": _LABELS},
    "cs-table5-doubled": {"control": [10, 22, 2], "treatment": [6, 16, 8], "labels": _LABELS},
}

#: Golden CSV name -> power argv. 18 cells of 40 000 replications, three
#: chunks each with the last one partial; and 6 cells of 70 000, five chunks
#: each: a pass of four, then a partial chunk of 4 464 alone.
POWER_PINS = {
    "power-theta0-theta5": ["power", "--reps", "40000", "--seed", "7",
                            "--means", "theta0,theta5"],
    "power-pass-boundary": ["power", "--reps", "70000", "--seed", "11",
                            "--means", "theta0,theta3,theta6", "--gammas", "0.05",
                            "--ns", "10,50"],
}


def _run_pin(name, workdir):
    """(exit code, report text, summary text) of one pinned invocation."""
    for doc_name, doc in DOCUMENTS.items():
        (workdir / f"{doc_name}.json").write_text(json.dumps(doc))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in PINS[name]]
    out = workdir / f"{name}.report.json"
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        code = main(argv + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8"), summary.getvalue()


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_matches_golden_bytes(name, tmp_path):
    code, report, summary = _run_pin(name, tmp_path)
    assert code == EXIT_OK
    assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert summary == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASE_DOCUMENTS))
def test_case_document_through_input_matches_the_case(name, tmp_path):
    """safe-test --input on a case's document reports what case NAME reports
    (its golden files) in every key but the echoed inputs, and prints the
    same summary; the case echoes its name and the document, less the
    silvapulle restriction."""
    doc = CASE_DOCUMENTS[name]
    path, out = tmp_path / f"{name}.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        assert main(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / f"case-{name}.json").read_text(encoding="utf-8"))
    assert got.pop("inputs") == doc
    assert want.pop("inputs") == {"case": name, **{k: v for k, v in doc.items()
                                                    if k != "restriction"}}
    assert got == want
    assert summary.getvalue() == (GOLDEN / f"case-{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_power_csv_matches_golden_bytes(workers, tmp_path):
    for name, argv in POWER_PINS.items():
        out = tmp_path / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--workers", str(workers), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), name


def test_a_report_without_out_prints_its_summary_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "order-simple.json").write_text(json.dumps(DOCUMENTS["order-simple"]))
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        assert main(["safe-test", "--input", "order-simple.json"]) == EXIT_OK
    assert summary.getvalue() == (GOLDEN / "input-order-simple.txt").read_text(encoding="utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["order-simple.json"]


def _assert_scaled_report_is_golden(name, power, tmp_path):
    """safe-test --input on DOCUMENTS[name] with s_n * 2^power and sigma_n *
    2^(2 power) reports every field but the echoed inputs as at unit scale."""
    doc = dict(DOCUMENTS[name])
    doc["s_n"] = [x * 2.0**power for x in doc["s_n"]]
    doc["sigma_n"] = [[x * 2.0**(2 * power) for x in row] for row in doc["sigma_n"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / f"input-{name}.json").read_text(encoding="utf-8"))
    assert got.pop("inputs") != want.pop("inputs")
    assert got == want


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_scaled_document_reproduces_golden_report(name, tmp_path):
    """s_n * 2^510 and sigma_n * 2^1020 are exact rescalings near the top of
    double range; every field but the echoed inputs stays as at unit scale."""
    _assert_scaled_report_is_golden(name, 510, tmp_path)


@pytest.mark.parametrize("power", [500, -500])
def test_simple_order_at_either_end_of_double_range_reproduces_golden_report(power, tmp_path):
    """The projector's activity rule 1e-10 ||x|| is relative, so the report
    holds bit for bit at 2^-500 too; an absolute floor 1e-10 (1 + ||x||)
    read t' = 0 and t = 16.05 there."""
    _assert_scaled_report_is_golden("order-simple", power, tmp_path)


def test_restriction_weights_at_tiny_scale():
    """At s_n * 2^-500 and sigma_n * 2^-1000 the product psi_00 psi_11 of
    the reduced covariance underflows; the weights are those at unit scale."""
    doc = DOCUMENTS["restriction"]
    r = np.array(doc["restriction"])
    sub, cone = LinearSubspace.from_constraint(r), ConeSpec(r)

    def weights(scale):
        stat = Statistic(s_n=np.array(doc["s_n"]) * scale,
                         sigma_n=Metric(np.array(doc["sigma_n"]) * scale**2), n=doc["n"])
        return resolve_weights(stat, sub, cone).w

    np.testing.assert_array_equal(weights(2.0**-500), weights(1.0))


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PINS):
            code, report, summary = _run_pin(name, pathlib.Path(tmp))
            if code != EXIT_OK:
                raise SystemExit(f"{name}: exit {code}")
            (GOLDEN / f"{name}.json").write_text(report, encoding="utf-8")
            (GOLDEN / f"{name}.txt").write_text(summary, encoding="utf-8")
            print(f"wrote {name}")
    for name, argv in POWER_PINS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv + ["--out", str(GOLDEN / f"{name}.csv")]) != EXIT_OK:
                raise SystemExit(f"{name}: nonzero exit")
        print(f"wrote {name}")


if __name__ == "__main__":
    _regenerate()
