"""CLI reports pinned byte for byte against committed golden files.

The invocations reach every ConeSpec constructor (orthant, simple, tree,
umbrella and polyhedral orders) and every LinearSubspace constructor
(zero, from_basis through span_of_ones, from_constraint). Each pin
compares the --out report and the printed summary with the files under
tests/golden/. To regenerate them after an intended change of output, run

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

DOCUMENTS = {
    "order-simple": {"s_n": [0.1, 0.4, 0.3, 0.9], "sigma_n": _SIGMA_4, "n": 40,
                     "order": "simple"},
    "order-tree": {"s_n": [-0.2, 0.5, 0.1, 0.7], "sigma_n": _IDENTITY_4, "n": 25,
                   "order": "tree"},
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
    **{f"input-{name}": ["safe-test", "--input", f"{name}.json"] for name in DOCUMENTS},
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


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_scaled_document_reproduces_golden_report(name, tmp_path):
    """s_n * 2^510 and sigma_n * 2^1020 are exact rescalings near the top of
    double range; every field but the echoed inputs stays as at unit scale."""
    doc = dict(DOCUMENTS[name])
    doc["s_n"] = [x * 2.0**510 for x in doc["s_n"]]
    doc["sigma_n"] = [[x * 2.0**1020 for x in row] for row in doc["sigma_n"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / f"input-{name}.json").read_text(encoding="utf-8"))
    assert got.pop("inputs") != want.pop("inputs")
    assert got == want


def test_restriction_weights_at_tiny_scale():
    """At s_n * 2^-500 and sigma_n * 2^-1000 the product psi_00 psi_11 of
    the reduced covariance underflows; the weights are those at unit scale."""
    doc = DOCUMENTS["restriction"]
    r = np.array(doc["restriction"])
    sub, cone = LinearSubspace.from_constraint(r), ConeSpec.polyhedral(r)

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


if __name__ == "__main__":
    _regenerate()
