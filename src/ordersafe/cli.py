"""Command-line surface: run tests from JSON documents, reproduce the case
studies and the power table, and estimate mixture weights.

Exit codes are disjoint and exhaustive: 0 success (regardless of the
statistical conclusion), 2 input error, 3 numeric error or infeasible
level, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import _arguments as check
from .chibar import (
    DEFAULT_MC_DRAWS,
    DEFAULT_SEED,
    orthant_weights,
    weights_monte_carlo,
)
from .errors import ContractViolationError, InternalInvariantError, NumericError, OrderSafeError
from .geometry import ConeSpec, LinearSubspace, Metric
from .testing import Statistic, WeightConfig, _base_tests, safe_test

# Each process runs one command, and most never read `studies` or `csv`: the
# commands that do import them where they use them, so the rest never load them.

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


#: The fields of each kind of document. The run reads every field that it accepts, so a
#: report echoes only what was read; any other field, also inside 'mc', is an input error.
_FIELDS = {"statistic": ("s_n", "sigma_n", "n", "order", "restriction"),
           "table": ("control", "treatment", "labels"),
           "levels": ("alpha", "gamma", "mc"),  # of a statistic and of a table
           "mc": ("N", "seed"), "weights": ("sigma",)}


def _only(doc, fields, where, what, rule=""):
    """doc, once each of its keys is one of fields."""
    for key in doc:
        if key not in fields:
            raise InputError(f"{where}: {key!r} is not a field of {what} ({', '.join(fields)}){rule}")
    return doc


def _require(doc, key, where):
    """doc[key], present and not null; the library rule it reaches decides its type."""
    if doc.get(key) is None:
        raise InputError(f"{where}: required field {key!r} is missing or null")
    return doc[key]


def _numeric_array(value, key, path, ndim):
    """A JSON vector (ndim 1) or matrix (ndim 2) of numbers as a float array:
    what the library's array rule refuses is an input error; a non-finite
    entry is left to the library, as for any other caller."""
    try:
        return check.array(value, key, ndim, finite=False)
    except ContractViolationError:
        shape = "vector" if ndim == 1 else "matrix"
        raise InputError(f"{path}: field {key!r} must be a {shape} of numbers") from None


def _cone_and_subspace(doc, dim, where):
    if "restriction" in doc and "order" in doc:
        raise InputError(f"{where}: give either 'restriction' or 'order', not both")
    if "restriction" in doc:
        r = _numeric_array(doc["restriction"], "restriction", where, 2)
        return ConeSpec(r), LinearSubspace.from_constraint(r)
    if "order" not in doc:
        raise InputError(f"{where}: need a 'restriction' matrix or an 'order' name")
    order = doc["order"]
    if order == "simple":
        cone = ConeSpec.simple_order(dim)
    elif order == "tree":
        cone = ConeSpec.tree_order(dim)
    elif isinstance(order, dict) and set(order) == {"umbrella"}:
        cone = ConeSpec.umbrella_order(dim, order["umbrella"])
    else:
        raise InputError(f"{where}: 'order' must be 'simple', 'tree', or {{'umbrella': peak}}")
    return cone, LinearSubspace.span_of_ones(dim)


def _problem(doc, where):
    """(statistic, sub, cone) of a problem document, read from a file or a
    built-in case; where the library refuses it, that is an input error."""
    kind = "table" if any(key in doc for key in _FIELDS["table"]) else "statistic"
    _only(doc, _FIELDS[kind] + _FIELDS["levels"], where, f"a {kind}",
          "; a document is a table or a statistic with a cone, not both")
    try:
        if kind == "table":
            from .studies import ContingencyTable2xK, build_stochastic_order

            labels = _require(doc, "labels", where) if "labels" in doc else None
            problem = build_stochastic_order(ContingencyTable2xK(
                _require(doc, "control", where), _require(doc, "treatment", where), labels))
            return problem.statistic(), problem.subspace(), problem.cone()
        s_n = _numeric_array(_require(doc, "s_n", where), "s_n", where, 1)
        sigma = _numeric_array(_require(doc, "sigma_n", where), "sigma_n", where, 2)
        stat = Statistic(s_n=s_n, sigma_n=Metric(sigma), n=_require(doc, "n", where))
        cone, sub = _cone_and_subspace(doc, s_n.size, where)
        return stat, sub, cone
    except OrderSafeError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _case_document(name):
    """A built-in case as (the document an --input file would hold, its report echo)."""
    from .studies import CS_TABLE5, CS_TABLE6, doubled_table, silvapulle_case

    if name == "silvapulle":
        stat, _ = silvapulle_case()
        doc = {"s_n": stat.s_n.tolist(), "sigma_n": stat.sigma_n.sigma.tolist(), "n": stat.n}
        return {**doc, "restriction": [[1.0, 0.0], [0.0, 1.0]]}, {"case": name, **doc}
    table = {"cs-table5": CS_TABLE5, "cs-table6": CS_TABLE6,
             "cs-table5-doubled": doubled_table(CS_TABLE5)}[name]
    doc = {"control": list(table.control), "treatment": list(table.treatment),
           "labels": list(table.labels)}
    return doc, {"case": name, **doc}


def _given(**options):
    """The options that were given, those not None; the callee's defaults stand for the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _levels_and_config(doc, args, where):
    """alpha, gamma and WeightConfig: each option over its document field over its default."""
    alpha = args.alpha if args.alpha is not None else doc.get("alpha", 0.05)
    gamma = args.gamma if args.gamma is not None else doc.get("gamma", 0.05)
    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        raise InputError(f"{where}: 'mc' must be an object with N and seed")
    _only(mc_doc, _FIELDS["mc"], where, "'mc'")
    config = {name: mc_doc[key] for name, key in (("n_draws", "N"), ("seed", "seed"))
              if key in mc_doc}
    config.update(_given(n_draws=args.mc_n, seed=args.seed))
    try:
        return check.level(alpha, "alpha"), check.level(gamma, "gamma"), WeightConfig(**config)
    except OrderSafeError as exc:
        raise InputError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _base_report(original, auxiliary, inputs_echo, seed):
    """The keys of a report that the two base tests decide: the dt report."""
    w = original.weights_used
    return {
        "inputs": inputs_echo,
        "t_n": original.statistic,
        "t_prime": auxiliary.statistic,
        "alpha_star": original.p_value,
        "gamma_star": auxiliary.p_value,
        "alpha": original.alpha,
        "gamma": auxiliary.alpha,
        "c_alpha": original.critical_value,
        "c_gamma_prime": auxiliary.critical_value,
        "weights": {"source": w.source, "w": [float(x) for x in w.w], "n_draws": w.n_draws,
                    "seed": w.seed},
        "version": __version__,
        "seed": seed,
    }


def build_report(outcome, inputs_echo, seed):
    """Machine report of a composite run; round-trips losslessly as JSON."""
    return {**_base_report(outcome.original, outcome.auxiliary, inputs_echo, seed),
            "t_safe": outcome.t_safe, "c_alpha_safe": outcome.c_alpha_safe,
            "alpha_safe": outcome.alpha_safe, "d1": outcome.d1, "d2": outcome.d2,
            "conclusion": outcome.conclusion.value}


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
    """Validate the output location of any command before it runs."""
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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

def _composite_problem(args):
    """(statistic, sub, cone, inputs echo, alpha, gamma, WeightConfig) of a run."""
    if args.case is not None and args.input is not None:
        raise InputError("give either --input FILE or --case NAME, not both")
    if args.case is not None:
        doc, echo = _case_document(args.case)
    elif args.input is not None:
        doc = echo = _load_document(args.input)
    else:
        raise InputError("provide --input FILE or --case NAME")
    where = args.case or args.input
    return (*_problem(doc, where), echo, *_levels_and_config(doc, args, where))


def cmd_safe_test(args) -> int:
    stat, sub, cone, echo, alpha, gamma, cfg = _composite_problem(args)
    outcome = safe_test(stat, sub, cone, alpha, gamma, cfg)
    _write_out(args.out, dumps_report(build_report(outcome, echo, cfg.seed)))
    _print_summary(outcome)
    return EXIT_OK


def cmd_dt(args) -> int:
    """The two base tests only: the composite's joint solve never runs."""
    stat, sub, cone, echo, alpha, gamma, cfg = _composite_problem(args)
    original, auxiliary = _base_tests(stat, sub, cone, alpha, gamma, cfg)
    _write_out(args.out, dumps_report(_base_report(original, auxiliary, echo, cfg.seed)))
    print(f"t_n = {original.statistic:.6g}   alpha* = {original.p_value:.6g}")
    print(f"t'_n = {auxiliary.statistic:.6g}   gamma* = {auxiliary.p_value:.6g}")
    return EXIT_OK


_POWER_COLUMNS = ("mean_label", "gamma", "n", "power_dt", "power_safe",
                  "se", "replications", "seed")


def cmd_power(args) -> int:
    from .studies import power_grid

    lists = {"mean_labels": (args.means, str), "gammas": (args.gammas, float),
             "ns": (args.ns, int)}
    try:
        given = {name: [kind(x) for x in text.split(",")]
                 for name, (text, kind) in lists.items() if text is not None}
    except ValueError as exc:
        raise InputError(f"bad --gammas/--ns value: {exc}") from exc
    rows = power_grid(**given, **_given(replications=args.reps, seed=args.seed,
                                        alpha=args.alpha, workers=args.workers))
    return _emit(args, rows, rows, _POWER_COLUMNS, f"{len(rows)} rows")


def cmd_weights(args) -> int:
    if args.identity is not None and args.input is not None:
        raise InputError("give either --input FILE or --identity DIM, not both")
    if args.identity is not None:
        sigma = np.eye(check.integer(args.identity, 1, "--identity", "at least 1"))
    elif args.input is not None:
        doc = _only(_load_document(args.input), _FIELDS["weights"], args.input,
                    "a weights document")
        sigma = _numeric_array(_require(doc, "sigma", args.input), "sigma", args.input, 2)
    else:
        raise InputError("provide --input FILE with a 'sigma' matrix or --identity DIM")
    given = _given(n_draws=args.mc_n, seed=args.seed)
    # the weight rule's weights: echoed where it uses the closed form (p = 1, and p = 2 with
    # -1 < rho < 1), and the command's estimate where it runs Monte Carlo on the same inputs
    rule = orthant_weights(sigma, **given) if len(sigma) <= 2 else None
    source = getattr(rule, "source", None)
    est = rule if source == "monte_carlo" else weights_monte_carlo(sigma, **given)
    closed = rule.w if source == "closed_form" else None
    rows = [{"j": j, "weight": float(est.w[j]),
             "closed_form": float(closed[j]) if closed is not None else "",
             "n_draws": est.n_draws, "seed": est.seed} for j in range(est.p + 1)]
    payload = {"weights": [float(x) for x in est.w], "n_draws": est.n_draws,
               "seed": est.seed, "version": __version__}
    if closed is not None:
        payload["closed_form"] = [float(x) for x in closed]
    return _emit(args, payload, rows, ("j", "weight", "closed_form", "n_draws", "seed"),
                 "weights")


def _emit(args, payload, rows, columns, what) -> int:
    """payload as JSON or rows as CSV, per --format: to --out, else to stdout."""
    if args.format == "json":
        text = dumps_report(payload)
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_out(args.out, text)
        print(f"wrote {what} to {args.out}")
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
    p_power.add_argument("--reps", type=int, help="replications per cell (default 1e5)")
    p_power.add_argument("--means", help="comma-separated mean labels (default all)")
    p_power.add_argument("--gammas")
    p_power.add_argument("--ns")
    p_power.add_argument("--workers", type=int)

    p_weights = subcommand("weights", "estimate mixture weights by Monte Carlo", cmd_weights,
                           "--mc-n", "--seed", "--out", "--format")
    p_weights.add_argument("--input", help="JSON document with a 'sigma' matrix")
    p_weights.add_argument("--identity", type=int,
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
        _check_out_path(args.out)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, OrderSafeError) as exc:
        # the remaining library errors (contract, capability) stem from bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
