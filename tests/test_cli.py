import csv
import json

import pytest

from ordersafe.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, dumps_report, main
from ordersafe.errors import NumericError


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

    def test_overflowing_statistic_exits_3_without_output(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"s_n": [1e200, -1e200], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], '
                        '"n": 5, "restriction": [[1.0, 0.0], [0.0, 1.0]]}')
        out = tmp_path / "report.json"
        assert run(["safe-test", "--input", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

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


class TestDtCommand:
    def test_emits_base_tests_only(self, tmp_path):
        out = tmp_path / "dt.json"
        assert run(["dt", "--case", "cs-table5", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert "t_n" in report and "t_prime" in report
        assert "conclusion" not in report and "d1" not in report


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

    def test_non_spd_exits_3(self, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"sigma": [[1.0, 2.0], [2.0, 1.0]]}))
        assert run(["weights", "--input", str(path), "--mc-n", "1000"]) == EXIT_NUMERIC

    def test_negative_seed_exits_2(self, capsys):
        assert run(["weights", "--identity", "3", "--mc-n", "100", "--seed", "-1"]) == EXIT_INPUT
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_one_dimensional(self, tmp_path, capsys):
        code = run(["weights", "--identity", "1", "--mc-n", "50000", "--seed", "2"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[0]["weight"]) == pytest.approx(0.5, abs=0.01)
