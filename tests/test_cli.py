import copy
import csv
import functools
import json
import operator
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordersafe
from ordersafe.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_NUMERIC, EXIT_OK, dumps_report, main
from ordersafe.errors import InternalInvariantError, NumericError

from conftest import PARITY_PSI, ROUNDOFF_CASES

_PROBLEM = {"s_n": [1.0, 2.0, 3.0], "sigma_n": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "n": 5}


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestSafeTestCommand:
    def test_builtin_negative_mean_case(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["safe-test", "--case", "silvapulle", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["t_n"] == pytest.approx(12.89, abs=0.01)
        assert report["conclusion"] == "A likely Type III error. Revisit assumptions."
        assert report["version"]
        summary = capsys.readouterr().out
        assert "A likely Type III error. Revisit assumptions." in summary

    def test_builtin_contingency_case(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["safe-test", "--case", "cs-table5", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["conclusion"] == "Do not reject the Null."
        assert report["d1"] == 1 and report["d2"] == 0

    def test_certificate_one_ulp_past_its_critical_value(self, tmp_path, capsys):
        """t' sits one ulp above c'_0.1 = 2.9524209201335907 while its p-value
        still exceeds gamma by 5.9e-11: the certificate is issued, and the
        safe rejection is reported rather than an internal error."""
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "s_n": [5.0, -1.7182610162992091], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], "n": 1,
            "restriction": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.1}))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(doc), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["c_gamma_prime"] == 2.9524209201335907
        assert (report["d1"], report["d2"]) == (1, 1)
        assert "Safely, reject the Null." in capsys.readouterr().out

    def test_case_subcommand_matches_safe_test(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["case", "cs-table6", "--out", str(a)]) == EXIT_OK
        assert run(["safe-test", "--case", "cs-table6", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_input_document_with_restriction(self, tmp_path):
        doc = {
            "s_n": [-3.0, -2.0],
            "sigma_n": [[1.0, 0.9], [0.9, 1.0]],
            "n": 5,
            "restriction": [[1.0, 0.0], [0.0, 1.0]],
            "alpha": 0.05,
            "gamma": 0.05,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["t_n"] == pytest.approx(12.89, abs=0.01)
        assert report["gamma_star"] < 1e-6

    def test_input_document_with_named_order(self, tmp_path):
        doc = {
            "s_n": [0.1, 0.5, 0.6],
            "sigma_n": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "n": 30,
            "order": "simple",
            "mc": {"N": 20000, "seed": 4},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["weights"]["source"] == "closed_form"  # p = 2 reduction

    def test_contingency_document(self, tmp_path):
        doc = {"control": [5, 11, 1], "treatment": [3, 8, 4],
               "labels": ["Worse", "Same", "Better"]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["alpha_star"] == pytest.approx(0.128, abs=0.002)

    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"s_n": [1, 2,\n  "oops"')
        out = tmp_path / "report.json"
        code = run(["safe-test", "--input", str(path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_wrong_length_vector_exits_2_without_output(self, tmp_path):
        doc = {"s_n": [1.0, 2.0, 3.0], "sigma_n": [[1.0, 0.0], [0.0, 1.0]],
               "n": 5, "restriction": [[1.0, 0.0], [0.0, 1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"s_n": [NaN, 1.0], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], "n": 5, "order": "simple"}',
        '{"s_n": [1.0, 2.0], "sigma_n": [[1.0, NaN], [NaN, 1.0]], "n": 5, "order": "simple"}',
        '{"s_n": [1.0, 2.0], "sigma_n": [[1.0, 0.5], [0.5, 1.0]], "n": true, "order": "simple"}',
        '{"s_n": [1.0, 2.0, 0.5, 3.0], "sigma_n": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
        '[0, 0, 0, 1]], "n": 5, "order": "simple", "mc": {"N": true, "seed": false}}',
        '{"s_n": [1.0, 2.0, 0.5, 3.0], "sigma_n": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
        '[0, 0, 0, 1]], "n": 5, "order": "simple", "mc": {"N": 100, "seed": -1}}',
    ], ids=["nan-in-s_n", "nan-in-sigma_n", "bool-n", "bool-mc", "negative-seed"])
    def test_invalid_values_exit_2_without_output(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        dict(_PROBLEM, restriction=[["a", 1, 0], [0, -1, 1]]),
        dict(_PROBLEM, restriction=[[1, 0], [0, -1, 1]]),
        dict(_PROBLEM, restriction=[[float("nan"), 1, 0], [0, -1, 1]]),
        dict(_PROBLEM, restriction=[[True, 1, 0], [0, -1, 1]]),
        dict(_PROBLEM, restriction=[[10**400, 1, 0], [0, -1, 1]]),
        dict(_PROBLEM, order="simple", s_n=[1.0, "2", 3.0]),
        dict(_PROBLEM, order="simple", s_n=[1.0, None, 3.0]),
        dict(_PROBLEM, order="simple", s_n=[1.0, [2.0], 3.0]),
        dict(_PROBLEM, order="simple", sigma_n=[[1, 0, 0], [0, 1], [0, 0, 1]]),
        dict(_PROBLEM, order="simple", sigma_n=[[1, 0, 0], [0, "x", 0], [0, 0, 1]]),
        {"control": [5, "11", 1], "treatment": [3, 8, 4]},
        {"control": [5, 11.5, 1], "treatment": [3, 8, 4]},
        {"control": [5, 11, 1], "treatment": [3, 8, 4], "labels": 2},
        dict(_PROBLEM, order="simple", n=10**400),
        {"control": [5, 11, 1], "treatment": [3, 10**400, 4]},
    ], ids=["string-in-restriction", "ragged-restriction", "nan-in-restriction",
            "bool-in-restriction", "huge-int-in-restriction", "string-in-s_n", "null-in-s_n",
            "nested-s_n", "ragged-sigma_n", "string-in-sigma_n", "string-count",
            "fractional-count", "scalar-labels", "huge-n", "huge-count"])
    def test_malformed_numeric_arrays_exit_2_without_output(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("peak", [1.7, True, "2", "x", None])
    def test_umbrella_peak_must_be_an_integer(self, tmp_path, capsys, peak):
        doc = dict(_PROBLEM, order={"umbrella": peak})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert "umbrella peak must be an integer" in capsys.readouterr().err
        doc["order"] = {"umbrella": 1}
        path.write_text(json.dumps(doc))
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK

    def test_overflowing_statistic_exits_3_without_output(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"s_n": [1e200, -1e200], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], '
                        '"n": 5, "restriction": [[1.0, 0.0], [0.0, 1.0]]}')
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(ROUNDOFF_CASES))
    def test_roundoff_cases_exit_3_without_output(self, tmp_path, capsys, case):
        """Never an input error about a correlation the document does not
        hold, nor an internal error, nor numpy's LinAlgError."""
        s_n, sigma_n = ROUNDOFF_CASES[case]
        path, out = tmp_path / "doc.json", tmp_path / "report.json"
        path.write_text(json.dumps({"s_n": s_n, "sigma_n": sigma_n, "n": 10,
                                    "restriction": [[1.0, 0.0], [0.0, 1.0]]}))
        code = run(["safe-test", "--input", str(path), "--out", str(out), "--mc-n", "1000"])
        assert code == EXIT_NUMERIC and not out.exists()
        assert "cond" in capsys.readouterr().err

    def test_a_monte_carlo_parity_breach_exits_3_without_output(self, tmp_path, capsys):
        """PARITY_PSI's Monte Carlo weights read a parity of -0.99; they used
        to be reported with "Safely, reject the Null." and exit 0."""
        path, out = tmp_path / "doc.json", tmp_path / "report.json"
        path.write_text(json.dumps({"s_n": [0.5, 0.4, 0.3, 0.2], "sigma_n": PARITY_PSI, "n": 20,
                                    "restriction": [[float(i == j) for j in range(4)]
                                                    for i in range(4)]}))
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        err = capsys.readouterr().err
        assert "parity identity" in err and "cond 1.22e+16" in err

    def test_orders_past_the_monte_carlo_range_name_it(self, tmp_path, capsys):
        """K = 18 gives p = 17, which only Monte Carlo could answer."""
        path, out = tmp_path / "doc.json", tmp_path / "report.json"
        path.write_text(json.dumps({"s_n": [0.1 * i for i in range(18)], "n": 10,
                                    "sigma_n": [[float(i == j) for j in range(18)]
                                                for i in range(18)], "order": "simple"}))
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert "Monte Carlo weights and the batch orthant projection support p <= 16, not 17" in (
            capsys.readouterr().err)

    def test_an_internal_invariant_breach_exits_4_without_output(self, tmp_path, capsys,
                                                                 monkeypatch):
        def breach(*args):
            raise InternalInvariantError("planted")

        monkeypatch.setattr("ordersafe.testing.attained_level", breach)
        out = tmp_path / "report.json"
        assert run(["safe-test", "--case", "silvapulle", "--out", str(out)]) == EXIT_INTERNAL
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.err == "internal invariant breach: planted\n" and captured.out == ""

    def test_report_is_strict_json(self):
        with pytest.raises(NumericError):
            dumps_report({"t_n": float("inf")})

    @pytest.mark.parametrize("p, rho", [(4, 1.0 - 1e-6), (10, 0.99)],
                             ids=["exact-quadrature-fails", "beyond-exact-range"])
    def test_monte_carlo_weights_follow_mc_options(self, tmp_path, p, rho):
        sigma = [[1.0 if i == j else rho for j in range(p)] for i in range(p)]
        doc = {"s_n": [float(i) for i in range(p)], "sigma_n": sigma, "n": 5,
               "restriction": [[float(i == j) for j in range(p)] for i in range(p)],
               "mc": {"N": 200, "seed": 3}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert (report["weights"]["source"], report["weights"]["n_draws"],
                report["weights"]["seed"]) == ("monte_carlo", 200, 3)

    def test_infeasible_level_exits_3(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["safe-test", "--case", "silvapulle",
                    "--alpha", "0.97", "--gamma", "0.05", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()

    def test_infeasible_joint_level_names_both_bounds(self, capsys):
        """The refusal compares the joint tail at c = 0, which counts the
        apex, and names the level the region reaches as c -> 0+."""
        assert run(["safe-test", "--case", "cs-table5", "--alpha", "0.97"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "exceeds 0.950000000031, the joint tail at c = 0" in err
        assert "the region reaches 0.767782741206 as c -> 0+" in err

    def test_bad_output_path_rejected_before_compute(self, tmp_path):
        out = tmp_path / "no_such_dir" / "report.json"
        code = run(["safe-test", "--case", "silvapulle", "--out", str(out)])
        assert code == EXIT_INPUT

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["safe-test", "--case", "cs-table5", "--seed", "5", "--out"]
        assert run(args + [str(a)]) == EXIT_OK
        assert run(args + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_report_round_trips_byte_identically(self, tmp_path):
        out = tmp_path / "report.json"
        run(["safe-test", "--case", "silvapulle", "--out", str(out)])
        text = out.read_text()
        assert dumps_report(json.loads(text)) == text

    def test_a_zero_pretest_critical_value_exits_0(self, tmp_path, capsys):
        """gamma = 0.8 puts c'_gamma at 0; the full support stays certified,
        so the composite region is not empty and every command answers."""
        out = tmp_path / "report.json"
        assert run(["case", "silvapulle", "--gamma", "0.8", "--out", str(out)]) == EXIT_OK
        assert "A likely Type III error. Revisit assumptions." in capsys.readouterr().out
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "s_n": [1.0, 0.5], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], "n": 10,
            "restriction": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.8}))
        assert run(["safe-test", "--input", str(doc), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["c_gamma_prime"] == 0.0
        assert report["alpha_safe"] == 0.030149288611818897
        assert "Safely, reject the Null." in capsys.readouterr().out
        assert run(["dt", "--input", str(doc), "--out", str(out)]) == EXIT_OK


class TestDtCommand:
    def test_emits_base_tests_only(self, tmp_path):
        out = tmp_path / "dt.json"
        assert run(["dt", "--case", "cs-table5", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert "t_n" in report and "t_prime" in report
        assert "conclusion" not in report and "d1" not in report

    @pytest.mark.parametrize("case", ["cs-table5", "silvapulle"])
    def test_answers_where_the_composite_level_is_infeasible(self, tmp_path, case):
        """At alpha = 0.97 the joint solve of safe_test finds no critical
        value (the composite region never reaches 0.97), but dt reports only
        the base tests: c_alpha = 0 and the statistics and p-values of the
        report at alpha = 0.05."""
        base, high = tmp_path / "dt.json", tmp_path / "dt97.json"
        assert run(["dt", "--case", case, "--out", str(base)]) == EXIT_OK
        assert run(["dt", "--case", case, "--alpha", "0.97", "--out", str(high)]) == EXIT_OK
        base, high = json.loads(base.read_text()), json.loads(high.read_text())
        assert high["c_alpha"] == 0.0 and high["alpha"] == 0.97
        for key in ("t_n", "t_prime", "alpha_star", "gamma_star", "c_gamma_prime", "weights"):
            assert high[key] == base[key]
        assert run(["safe-test", "--case", case, "--alpha", "0.97"]) == EXIT_NUMERIC


class TestPowerCommand:
    def test_single_cell_null_level(self, tmp_path):
        out = tmp_path / "power.csv"
        code = run([
            "power", "--means", "theta0", "--gammas", "0.01", "--ns", "20",
            "--reps", "20000", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["mean_label"] == "theta0"
        assert float(rows[0]["power_dt"]) == pytest.approx(0.05, abs=0.01)
        assert float(rows[0]["power_safe"]) == pytest.approx(0.05, abs=0.01)
        assert int(rows[0]["replications"]) == 20000

    def test_json_format(self, tmp_path):
        out = tmp_path / "power.json"
        code = run(["power", "--means", "theta1", "--gammas", "0.1", "--ns", "10",
                    "--reps", "5000", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert rows[0]["mean_label"] == "theta1"

    def test_unknown_mean_label(self, tmp_path):
        assert run(["power", "--means", "theta9", "--reps", "10"]) == EXIT_INPUT

    @pytest.mark.parametrize("option, value, message", [
        ("--ns", "0", "n must"),
        ("--reps", "0", "replications must"),
        ("--seed", "-1", "seed must"),
        ("--workers", "0", "workers must"),
        ("--workers", "-1", "workers must"),
        ("--ns", "9007199254740993", "n must be no larger than 2**53"),
        ("--means", "", "unknown mean label ''"),
    ])
    def test_invalid_counts_exit_2(self, capsys, option, value, message):
        argv = ["power", "--means", "theta0", "--gammas", "0.1", "--ns", "10", "--reps", "10"]
        assert run(argv + [option, value]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["power", "--means", "theta5", "--gammas", "0.1", "--ns", "10",
                "--reps", "5000", "--seed", "11", "--out"]
        assert run(args + [str(a)]) == EXIT_OK
        assert run(args + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestWeightsCommand:
    def test_identity_quadrant(self, tmp_path):
        out = tmp_path / "weights.csv"
        code = run(["weights", "--identity", "2", "--mc-n", "100000",
                    "--seed", "9", "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        w = [float(r["weight"]) for r in rows]
        assert w[0] == pytest.approx(0.25, abs=0.006)
        assert w[1] == pytest.approx(0.50, abs=0.006)
        assert w[2] == pytest.approx(0.25, abs=0.006)
        assert float(rows[0]["closed_form"]) == pytest.approx(0.25, abs=1e-12)

    def test_covariance_document(self, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [[1.0, 0.9], [0.9, 1.0]]}))
        out = tmp_path / "weights.json"
        code = run(["weights", "--input", str(path), "--mc-n", "100000",
                    "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["weights"][2] == pytest.approx(0.4282, abs=0.006)
        assert payload["closed_form"][2] == pytest.approx(0.4282, abs=5e-5)

    def test_scaled_identity_prints_the_identity_bytes(self, tmp_path, capsys):
        """The squares of 1e308 I leave double range; its weights are those of I."""
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [[1e308, 0.0], [0.0, 1e308]]}))
        options = ["--mc-n", "20000", "--seed", "3"]
        assert run(["weights", "--identity", "2"] + options) == EXIT_OK
        want = capsys.readouterr().out
        assert run(["weights", "--input", str(path)] + options) == EXIT_OK
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_closed_form_echo_where_rho_rounds_to_one(self, tmp_path, capsys, fmt):
        """Cholesky accepts the sigma of ROUNDOFF_CASES["rho"], whose
        correlation rounds to -1: the weight rule gives it Monte Carlo
        weights, so there is no closed form to echo (this exited 2)."""
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": ROUNDOFF_CASES["rho"][1]}))
        assert run(["weights", "--input", str(path), "--mc-n", "1000",
                    "--format", fmt]) == EXIT_OK
        text = capsys.readouterr().out
        if fmt == "csv":
            rows = list(csv.DictReader(text.splitlines()))
            assert [row["j"] for row in rows] == ["0", "1", "2"]
            assert {row["closed_form"] for row in rows} == {""}
        else:
            payload = json.loads(text)
            assert len(payload["weights"]) == 3 and "closed_form" not in payload

    def test_non_spd_exits_3(self, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [[1.0, 2.0], [2.0, 1.0]]}))
        assert run(["weights", "--input", str(path), "--mc-n", "1000"]) == EXIT_NUMERIC

    def test_non_numeric_covariance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [["a", 0.0], [0.0, 1.0]]}))
        assert run(["weights", "--input", str(path), "--mc-n", "100"]) == EXIT_INPUT
        assert "'sigma' must be a matrix of numbers" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        assert run(["weights", "--identity", "3", "--mc-n", "100", "--seed", "-1"]) == EXIT_INPUT
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_one_dimensional(self, tmp_path, capsys):
        code = run(["weights", "--identity", "1", "--mc-n", "50000", "--seed", "2"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[0]["weight"]) == pytest.approx(0.5, abs=0.01)


class TestOptionsAreDeclaredWhereRead:
    @pytest.mark.parametrize("argv", [
        ["power", "--gamma", "0.3", "--reps", "10"],
        ["power", "--mc-n", "5", "--reps", "10"],
        ["weights", "--identity", "2", "--alpha", "0.9"],
        ["weights", "--identity", "2", "--gamma", "0.1"],
    ])
    def test_unread_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["safe-test"], ["dt"]])
    def test_case_with_input_exits_2_without_output(self, command, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(dict(_PROBLEM, order="simple")))
        out = tmp_path / "report.json"
        argv = command + ["--case", "silvapulle", "--input", str(path), "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert not out.exists()
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["-1", "0"])
    def test_identity_must_be_positive(self, dim, capsys):
        assert run(["weights", "--identity", dim, "--mc-n", "100"]) == EXIT_INPUT
        assert f"--identity must be at least 1, not {dim}" in capsys.readouterr().err

    def test_identity_with_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        assert run(["weights", "--identity", "2", "--input", str(path)]) == EXIT_INPUT
        assert "not both" in capsys.readouterr().err

    def test_case_subcommand_reads_levels_like_safe_test(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        options = ["--alpha", "0.1", "--gamma", "0.2", "--seed", "5"]
        assert run(["case", "cs-table5", *options, "--out", str(a)]) == EXIT_OK
        assert run(["safe-test", "--case", "cs-table5", *options, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert (report["alpha"], report["gamma"], report["seed"]) == (0.1, 0.2, 5)

    @pytest.mark.parametrize("option", ["--alpha", "--gamma"])
    def test_case_levels_are_checked_like_documents(self, option, capsys):
        assert run(["case", "silvapulle", option, "1.5"]) == EXIT_INPUT
        assert "must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["safe-test", "--cas", "silvapulle"],
                                      ["power", "--rep", "10"]])
    def test_abbreviated_options_are_not_expanded(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT


def _modules_loaded(args, cwd=None):
    """Every module a fresh interpreter imports to run args, read from -X importtime."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ordersafe.__file__)))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.split("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI and every other module loads no scipy."""
    src = os.path.dirname(os.path.abspath(ordersafe.__file__))
    modules = sorted("ordersafe." + name[:-3] for name in os.listdir(src)
                     if name.endswith(".py") and name != "__init__.py")
    loaded = _modules_loaded(["-c", "import " + ", ".join(modules)])
    assert set(modules) <= loaded
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


def test_a_bare_import_loads_neither_numpy_nor_a_submodule():
    loaded = _modules_loaded(["-c", "import ordersafe"])
    assert "ordersafe" in loaded
    assert sorted(m for m in loaded if m == "numpy" or m.startswith("ordersafe.")) == []


@pytest.mark.parametrize("argv, absent, present", [
    (["safe-test", "--input", "doc.json"],
     {"ordersafe.studies", "concurrent.futures", "logging", "csv"}, {"ordersafe.testing"}),
    (["case", "silvapulle"], {"concurrent.futures", "csv"}, {"ordersafe.studies"}),
], ids=["safe-test-input", "case-silvapulle"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, absent, present):
    (tmp_path / "doc.json").write_text(json.dumps(dict(_PROBLEM, order="simple")))
    loaded = _modules_loaded(["-m", "ordersafe.cli", *argv], tmp_path)
    assert present <= loaded and not absent & loaded


_VALID_DOCUMENTS = [
    {"s_n": [-3.0, -2.0], "sigma_n": [[1.0, 0.9], [0.9, 1.0]], "n": 5,
     "restriction": [[1.0, 0.0], [0.0, 1.0]], "alpha": 0.05, "gamma": 0.05},
    dict(_PROBLEM, order="simple", mc={"N": 2000, "seed": 4}),
    dict(_PROBLEM, order={"umbrella": 1}),
    {"control": [5, 11, 1], "treatment": [3, 8, 4], "labels": ["Worse", "Same", "Better"]},
]
_ODD_VALUES = st.sampled_from([None, True, "x", "1", 1.5, -1, 0, 10**400, float("nan"),
                               float("inf"), 1e308, [], {}, [1], [[1]]])


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    """A valid document with one to three entries replaced by odd values or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if draw(st.booleans()):
            parent[path[-1]] = draw(_ODD_VALUES)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutated_documents())
def test_mutated_documents_exit_cleanly(doc):
    """Exit 0 writes a strict-JSON report; any other exit is 2, 3 or 4 and writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["safe-test", "--input", path, "--out", out, "--mc-n", "500"])
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                json.load(fh, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
        else:
            assert not os.path.exists(out)
