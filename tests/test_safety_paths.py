"""Fault injection into the safety paths that no correct input reaches.

Each test plants one fault (a tail that never falls, a solve that never makes
progress, a cone distance past the null's, a composite level above alpha) and
checks the documented error in the library and, through cli.main, its exit
code with one stderr line and no report.
"""

import json
import sys

import numpy as np
import pytest

from ordersafe import chibar, geometry, testing
from ordersafe.cli import EXIT_INTERNAL, EXIT_NUMERIC, main
from ordersafe.errors import InternalInvariantError, NumericError
from ordersafe.geometry import ConeSpec, LinearSubspace, Metric
from ordersafe.testing import Conclusion, Statistic, dt_type_a, safe_test

# s_n = (1, 0.5) on the quadrant at gamma = 0.8: a safe rejection
_SAFE_REJECT = {"s_n": [1.0, 0.5], "sigma_n": [[1.0, 0.0], [0.0, 1.0]], "n": 10,
                "restriction": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.8}


def _quadrant_problem(s_n):
    return (Statistic(s_n=np.array(s_n), sigma_n=Metric(np.eye(2)), n=10),
            LinearSubspace.from_constraint(np.eye(2)), ConeSpec(np.eye(2)))


def _exits_without_report(argv, code, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.fixture
def tails_never_fall(monkeypatch):
    """Every upper chi-square tail reads 1, so no critical value is ever bracketed."""
    tails = chibar._chi2_tails
    monkeypatch.setattr(chibar, "_chi2_tails", lambda t, p: ([1.0] * (p + 1), tails(t, p)[1]))


def test_an_unbounded_bracket_is_a_numeric_error(tails_never_fall, tmp_path, capsys):
    with pytest.raises(NumericError, match="bisection bracket grew without bound"):
        chibar.solve_critical(chibar.weights_closed_form_2d(0.0), 0.05)
    _exits_without_report(["case", "silvapulle"], EXIT_NUMERIC,
                          "bisection bracket grew without bound", tmp_path, capsys)


@pytest.mark.parametrize("certify", [True, False])
def test_a_tail_that_jumps_over_the_band_returns_the_last_midpoint(certify):
    """A tail that steps over the band at c = 0.3 never lands within tol of
    alpha, so the bisection runs all _BISECT_MAX_ITER steps and returns the
    midpoint of its last bracket, which has closed on the step."""
    coef = [0.5, 0.5] if certify else [0.6, -0.1]   # a negative coefficient certifies nothing
    c = chibar._solve_band(lambda c: 0.5 if c < 0.3 else 0.01, coef, 0.05)
    assert c == pytest.approx(0.3, rel=0, abs=1e-15)


def test_an_active_set_that_never_settles_is_a_numeric_error(monkeypatch, tmp_path, capsys):
    """Each passive solve of the projector returns a multiplier of -1, so every
    step drops the row it added and the solve runs into its 3p step cap."""
    solve = np.linalg.solve

    def stalled(a, b):
        if sys._getframe(1).f_code is geometry._dual_active_set.__code__:
            return -np.ones(len(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", stalled)
    with pytest.raises(NumericError, match="did not converge within 6 active-set steps"):
        geometry.project_cone(np.array([-1.0, -2.0]), ConeSpec(np.eye(2)), Metric(np.eye(2)))
    _exits_without_report(["case", "silvapulle"], EXIT_NUMERIC,
                          "did not converge within 6 active-set steps", tmp_path, capsys)


def test_a_cone_farther_than_the_null_breaks_an_invariant(monkeypatch, tmp_path, capsys):
    """A cone distance above the null's makes the type A drop negative far past
    roundoff: _clamped_drop raises InternalInvariantError."""
    monkeypatch.setattr(testing, "_cone_distance_sq", lambda stat, cone: 1e6)
    stat, sub, cone = _quadrant_problem([1.0, 0.5])
    with pytest.raises(InternalInvariantError, match="distance drop is negative beyond tolerance"):
        dt_type_a(stat, sub, cone)
    _exits_without_report(["case", "silvapulle"], EXIT_INTERNAL,
                          "internal invariant breach: distance drop is negative", tmp_path,
                          capsys)


def test_a_safe_rejection_above_alpha_breaks_an_invariant(monkeypatch, tmp_path, capsys):
    stat, sub, cone = _quadrant_problem(_SAFE_REJECT["s_n"])
    assert safe_test(stat, sub, cone, 0.05, 0.8).conclusion is Conclusion.SAFE_REJECT
    monkeypatch.setattr(testing, "attained_level", lambda weights, c_alpha, c_gamma: 1.0)
    with pytest.raises(InternalInvariantError, match="safe rejection reported"):
        safe_test(stat, sub, cone, 0.05, 0.8)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_SAFE_REJECT))
    _exits_without_report(["safe-test", "--input", str(doc)], EXIT_INTERNAL,
                          "internal invariant breach: safe rejection reported", tmp_path, capsys)
