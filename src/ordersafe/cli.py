"""Command-line surface: run tests from JSON documents, reproduce the case
studies and the power table, and estimate mixture weights.

Exit codes are disjoint and exhaustive: 0 success (regardless of the
statistical conclusion), 2 input error, 3 numeric error or infeasible
level, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .chibar import (
    DEFAULT_MC_DRAWS,
    DEFAULT_SEED,
    correlation_2x2,
    weights_closed_form_2d,
    weights_monte_carlo,
)
from .errors import InternalInvariantError, NumericError, OrderSafeError
from .geometry import ConeSpec, LinearSubspace, Metric
from .studies import (
    CS_TABLE5,
    CS_TABLE6,
    ContingencyTable2xK,
    MEAN_LABELS,
    build_stochastic_order,
    doubled_table,
    power_grid,
    silvapulle_case,
)
from .testing import Statistic, WeightConfig, safe_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

_CASES = ("silvapulle", "cs-table5", "cs-table6", "cs-table5-doubled")


class InputError(Exception):
    """Invalid input document or options; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level document must be an object")
    return doc


def _require(doc, key, kind, path):
    if key not in doc:
        raise InputError(f"{path}: missing required field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{path}: field {key!r} has the wrong type")
    return value


def _numeric_array(value, key, path, ndim):
    """A JSON vector (ndim 1) or matrix (ndim 2) of numbers as a float array.

    Ragged rows, numbers too large for a float, and the strings, booleans
    and nulls that numpy would convert are all input errors.
    """
    shape = "vector" if ndim == 1 else "matrix"
    try:
        arr = np.asarray(value, dtype=float)
        numbers = all(type(v) in (int, float) for v in np.asarray(value, dtype=object).flat)
    except (ValueError, TypeError, OverflowError):
        numbers = False
    if not numbers:
        raise InputError(f"{path}: field {key!r} must be a {shape} of numbers")
    if arr.ndim != ndim:
        raise InputError(f"{path}: field {key!r} must be a {shape}")
    return arr


def _cone_and_subspace(doc, dim, path):
    if "restriction" in doc and "order" in doc:
        raise InputError(f"{path}: give either 'restriction' or 'order', not both")
    if "restriction" in doc:
        r = _numeric_array(doc["restriction"], "restriction", path, 2)
        if r.shape[1] != dim:
            raise InputError(
                f"{path}: restriction has {r.shape[1]} columns, expected {dim}"
            )
        try:
            cone = ConeSpec.polyhedral(r)
            sub = LinearSubspace.from_constraint(r)
        except OrderSafeError as exc:
            raise InputError(f"{path}: {exc}") from exc
        return cone, sub
    if "order" in doc:
        order = doc["order"]
        try:
            if order == "simple":
                cone = ConeSpec.simple_order(dim)
            elif order == "tree":
                cone = ConeSpec.tree_order(dim)
            elif isinstance(order, dict) and set(order) == {"umbrella"}:
                cone = ConeSpec.umbrella_order(dim, order["umbrella"])
            else:
                raise InputError(
                    f"{path}: 'order' must be 'simple', 'tree', or {{'umbrella': peak}}"
                )
        except OrderSafeError as exc:
            raise InputError(f"{path}: {exc}") from exc
        return cone, LinearSubspace.span_of_ones(dim)
    raise InputError(f"{path}: need a 'restriction' matrix or an 'order' name")


def _load_problem(path):
    """Parse an input document into (statistic, sub, cone, document)."""
    doc = _load_document(path)
    if "control" in doc or "treatment" in doc:
        control = _require(doc, "control", list, path)
        treatment = _require(doc, "treatment", list, path)
        labels = _require(doc, "labels", list, path) if "labels" in doc else None
        try:
            table = ContingencyTable2xK(control, treatment, labels)
            problem = build_stochastic_order(table)
        except OrderSafeError as exc:
            raise InputError(f"{path}: {exc}") from exc
        stat, sub, cone = problem.statistic(), problem.subspace(), problem.cone()
    else:
        s_n = _numeric_array(_require(doc, "s_n", list, path), "s_n", path, 1)
        sigma = _numeric_array(_require(doc, "sigma_n", list, path), "sigma_n", path, 2)
        if sigma.shape != (s_n.size, s_n.size):
            raise InputError(
                f"{path}: 'sigma_n' must be {s_n.size} x {s_n.size} to match 's_n'"
            )
        n = _require(doc, "n", int, path)
        try:
            metric = Metric(sigma)
            stat = Statistic(s_n=s_n, sigma_n=metric, n=n)
        except OrderSafeError as exc:
            raise InputError(f"{path}: {exc}") from exc
        cone, sub = _cone_and_subspace(doc, s_n.size, path)
    return stat, sub, cone, doc


def _levels_and_config(doc, args, where):
    """alpha, gamma and WeightConfig: each option over its document field over its default."""
    alpha = args.alpha if args.alpha is not None else doc.get("alpha", 0.05)
    gamma = args.gamma if args.gamma is not None else doc.get("gamma", 0.05)
    if not (isinstance(alpha, (int, float)) and 0 < alpha < 1):
        raise InputError(f"{where}: alpha must lie in (0, 1)")
    if not (isinstance(gamma, (int, float)) and 0 < gamma < 1):
        raise InputError(f"{where}: gamma must lie in (0, 1)")
    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        raise InputError(f"{where}: 'mc' must be an object with N and seed")
    n_draws = args.mc_n if args.mc_n is not None else mc_doc.get("N", DEFAULT_MC_DRAWS)
    seed = args.seed if args.seed is not None else mc_doc.get("seed", DEFAULT_SEED)
    try:
        cfg = WeightConfig(n_draws=n_draws, seed=seed)
    except OrderSafeError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return float(alpha), float(gamma), cfg


def _case_problem(name):
    """Parse a built-in case into (statistic, sub, cone, inputs echo)."""
    if name == "silvapulle":
        stat, _ = silvapulle_case()
        sub = LinearSubspace.zero(2)
        cone = ConeSpec.orthant(2)
        echo = {"case": name, "s_n": stat.s_n.tolist(), "n": stat.n,
                "sigma_n": stat.sigma_n.sigma.tolist()}
    else:
        table = {"cs-table5": CS_TABLE5, "cs-table6": CS_TABLE6,
                 "cs-table5-doubled": doubled_table(CS_TABLE5)}[name]
        problem = build_stochastic_order(table)
        stat, sub, cone = problem.statistic(), problem.subspace(), problem.cone()
        echo = {"case": name, "control": list(table.control),
                "treatment": list(table.treatment), "labels": list(table.labels)}
    return stat, sub, cone, echo


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _weights_block(weights):
    return {
        "source": weights.source,
        "w": [float(x) for x in weights.w],
        "n_draws": weights.n_draws,
        "seed": weights.seed,
    }


def build_report(outcome, inputs_echo, seed):
    """Machine report of a composite run; round-trips losslessly as JSON."""
    return {
        "inputs": inputs_echo,
        "t_n": outcome.original.statistic,
        "t_prime": outcome.auxiliary.statistic,
        "t_safe": outcome.t_safe,
        "alpha_star": outcome.original.p_value,
        "gamma_star": outcome.auxiliary.p_value,
        "alpha": outcome.original.alpha,
        "gamma": outcome.auxiliary.alpha,
        "c_alpha": outcome.original.critical_value,
        "c_gamma_prime": outcome.auxiliary.critical_value,
        "c_alpha_safe": outcome.c_alpha_safe,
        "alpha_safe": outcome.alpha_safe,
        "d1": outcome.d1,
        "d2": outcome.d2,
        "conclusion": outcome.conclusion.value,
        "weights": _weights_block(outcome.original.weights_used),
        "version": __version__,
        "seed": seed,
    }


def dumps_report(obj) -> str:
    """Canonical serialization: sorted keys, full float round-trip precision.

    Strict JSON: a NaN or infinity raises NumericError (exit 3) instead of
    writing a token that JSON parsers reject.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"report holds a non-finite value: {exc}") from exc


def _check_out_path(path):
    """Validate the output location before any computation runs."""
    if path is None:
        return
    import os

    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InputError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise InputError(f"output path is a directory: {path}")


def _write_out(path, text):
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_summary(outcome):
    print(f"t_n = {outcome.original.statistic:.6g}   "
          f"alpha* = {outcome.original.p_value:.6g}   "
          f"c_alpha = {outcome.original.critical_value:.6g}")
    print(f"t'_n = {outcome.auxiliary.statistic:.6g}   "
          f"gamma* = {outcome.auxiliary.p_value:.6g}   "
          f"c'_gamma = {outcome.auxiliary.critical_value:.6g}")
    print(f"t_safe = {outcome.t_safe:.6g}   c_alpha_safe = {outcome.c_alpha_safe:.6g}   "
          f"alpha_safe = {outcome.alpha_safe:.6g}")
    print(f"certificate D1 = {outcome.d1}   original D2 = {outcome.d2}")
    print(f"Conclusion: {outcome.conclusion.value}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_composite(args):
    _check_out_path(args.out)
    if args.case is not None and args.input is not None:
        raise InputError("give either --input FILE or --case NAME, not both")
    if args.case is not None:
        stat, sub, cone, echo = _case_problem(args.case)
        doc, where = {}, args.case
    elif args.input is not None:
        stat, sub, cone, doc = _load_problem(args.input)
        echo, where = doc, args.input
    else:
        raise InputError("provide --input FILE or --case NAME")
    alpha, gamma, cfg = _levels_and_config(doc, args, where)
    outcome = safe_test(stat, sub, cone, alpha, gamma, cfg)
    return outcome, echo, cfg


def cmd_safe_test(args) -> int:
    outcome, echo, cfg = _run_composite(args)
    report = build_report(outcome, echo, cfg.seed)
    _write_out(args.out, dumps_report(report))
    _print_summary(outcome)
    return EXIT_OK


def cmd_dt(args) -> int:
    outcome, echo, cfg = _run_composite(args)
    report = build_report(outcome, echo, cfg.seed)
    for key in ("t_safe", "c_alpha_safe", "alpha_safe", "d1", "d2", "conclusion"):
        report.pop(key)
    _write_out(args.out, dumps_report(report))
    print(f"t_n = {outcome.original.statistic:.6g}   "
          f"alpha* = {outcome.original.p_value:.6g}")
    print(f"t'_n = {outcome.auxiliary.statistic:.6g}   "
          f"gamma* = {outcome.auxiliary.p_value:.6g}")
    return EXIT_OK


_POWER_COLUMNS = ("mean_label", "gamma", "n", "power_dt", "power_safe",
                  "se", "replications", "seed")


def cmd_power(args) -> int:
    _check_out_path(args.out)
    means = args.means.split(",") if args.means else list(MEAN_LABELS)
    unknown = [m for m in means if m not in MEAN_LABELS]
    if unknown:
        raise InputError(f"unknown mean labels: {', '.join(unknown)}")
    try:
        gammas = [float(g) for g in args.gammas.split(",")]
        ns = [int(n) for n in args.ns.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --gammas/--ns value: {exc}") from exc
    rows = power_grid(
        replications=args.reps,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        alpha=args.alpha if args.alpha is not None else 0.05,
        gammas=gammas, ns=ns, mean_labels=means, workers=args.workers,
    )
    if args.format == "json":
        text = dumps_report(rows)
    else:
        text = _rows_to_csv(rows, _POWER_COLUMNS)
    _write_out(args.out, text)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _rows_to_csv(rows, columns) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def cmd_weights(args) -> int:
    _check_out_path(args.out)
    if args.identity is not None and args.input is not None:
        raise InputError("give either --input FILE or --identity DIM, not both")
    if args.identity is not None:
        if args.identity < 1:
            raise InputError(f"--identity must be at least 1, not {args.identity}")
        sigma = np.eye(args.identity)
    elif args.input is not None:
        doc = _load_document(args.input)
        sigma = _numeric_array(_require(doc, "sigma", list, args.input), "sigma", args.input, 2)
    else:
        raise InputError("provide --input FILE with a 'sigma' matrix or --identity DIM")
    n_draws = args.mc_n if args.mc_n is not None else DEFAULT_MC_DRAWS
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    est = weights_monte_carlo(sigma, n_draws=n_draws, seed=seed)
    closed = None
    if est.p == 2:
        closed = weights_closed_form_2d(correlation_2x2(sigma))
    rows = []
    for j in range(est.p + 1):
        rows.append({
            "j": j,
            "weight": float(est.w[j]),
            "closed_form": float(closed.w[j]) if closed is not None else "",
            "n_draws": n_draws,
            "seed": seed,
        })
    if args.format == "json":
        payload = {"weights": [float(x) for x in est.w], "n_draws": n_draws,
                   "seed": seed, "version": __version__}
        if closed is not None:
            payload["closed_form"] = [float(x) for x in closed.w]
        text = dumps_report(payload)
    else:
        text = _rows_to_csv(rows, ("j", "weight", "closed_form", "n_draws", "seed"))
    _write_out(args.out, text)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote weights to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

#: The options several subcommands share; each subcommand declares only those it reads.
_OPTIONS = {
    "--input": dict(help="JSON problem or contingency-table document"),
    "--case": dict(choices=_CASES, help="run a built-in case instead of an input file"),
    "--alpha": dict(type=float, help="level of the original test (default 0.05)"),
    "--gamma": dict(type=float, help="level of the certificate pre-test (default 0.05)"),
    "--mc-n": dict(type=int, help=f"Monte Carlo draws for weights (default {DEFAULT_MC_DRAWS})"),
    "--seed": dict(type=int, help=f"seed for stochastic steps (default {DEFAULT_SEED})"),
    "--out": dict(help="output report path"),
    "--format": dict(choices=("json", "csv"), default="csv"),
}


def _add_options(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordersafe",
        description="Order-restricted tests with certificates against Type III errors",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text, func, *options):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_options(p, *options)
        p.set_defaults(func=func)
        return p

    composite = ("--input", "--case", "--alpha", "--gamma", "--mc-n", "--seed", "--out")
    subcommand("safe-test", "run the composite safe test", cmd_safe_test, *composite)
    subcommand("dt", "run the two base distance tests only", cmd_dt, *composite)

    p_power = subcommand("power", "reproduce the power comparison table", cmd_power,
                         "--alpha", "--seed", "--out", "--format")
    p_power.add_argument("--reps", type=int, default=100_000,
                         help="replications per cell (default 1e5)")
    p_power.add_argument("--means", type=str, default=None,
                         help="comma-separated mean labels (default all)")
    p_power.add_argument("--gammas", type=str, default="0.1,0.05,0.01")
    p_power.add_argument("--ns", type=str, default="10,20,50")
    p_power.add_argument("--workers", type=int, default=1)

    p_weights = subcommand("weights", "estimate mixture weights by Monte Carlo", cmd_weights,
                           "--mc-n", "--seed", "--out", "--format")
    p_weights.add_argument("--input", type=str, default=None,
                           help="JSON document with a 'sigma' matrix")
    p_weights.add_argument("--identity", type=int, default=None,
                           help="use an identity covariance of this dimension (at least 1)")

    p_case = subcommand("case", "reproduce a built-in case study", cmd_safe_test,
                        "--alpha", "--gamma", "--mc-n", "--seed", "--out")
    p_case.add_argument("case", choices=_CASES)
    p_case.set_defaults(input=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OrderSafeError as exc:
        # remaining library contract violations stem from bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
