"""The public surface cannot regrow: every name in ordersafe.__all__ is read
by another module of the package or listed under "Public API" in README.
Every argument rule lives in ordersafe._arguments, and a sweep over every
exported callable checks that a bad argument raises only OrderSafeError."""

import ast
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordersafe
import ordersafe.isotonic
from ordersafe import (
    ChiBarWeights,
    Conclusion,
    ConeSpec,
    ConsistencyCheck,
    ContingencyTable2xK,
    LinearSubspace,
    Metric,
    ContractViolationError,
    OrderSafeError,
    PowerResult,
    PowerScenario,
    SafeOutcome,
    Statistic,
    StochasticOrderProblem,
    WeightConfig,
    build_stochastic_order,
    consistency_region,
    delta,
    doubled_table,
    dt_type_a,
    dt_type_b,
    joint_tail,
    mixture_upper_tail,
    p_value,
    power_grid,
    project_cone,
    project_subspace,
    run_power_scenario,
    safe_test,
    silvapulle_case,
    simulation_means,
    solve_critical,
    weights_closed_form_2d,
    weights_monte_carlo,
)
from ordersafe.chibar import attained_level, chi2_sf, correlation_2x2, weights_exact
from ordersafe.geometry import project_orthant_batch
from ordersafe.isotonic import WeightedSeries, pava, simple_order_consistency
from ordersafe.testing import resolve_weights

SRC = pathlib.Path(ordersafe.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"

RETIRED = {
    "acceptance_member_type_a", "acceptance_member_type_b", "in_polar_orthant",
    "face_dimension", "SingularMatrixError", "minmax_project",
    "tree_order_consistency", "umbrella_consistency", "UmbrellaCheck", "FULL_SPACE",
    "safe_level_2d", "solve_nominal_level", "mixture_lower_tail", "chi2_cdf", "polar_complement",
    "av",
}
#: The 50 names the package exported when it imported every module eagerly,
#: less FULL_SPACE, which delta's problem word replaced, and less the four
#: that only tests read: safe_level_2d, solve_nominal_level,
#: mixture_lower_tail and polar_complement.
EXPORTED = {
    "DEFAULT_MC_DRAWS", "DEFAULT_SEED", "ChiBarWeights", "joint_tail", "mixture_upper_tail",
    "solve_critical", "weights_closed_form_2d", "weights_monte_carlo", "CapabilityError",
    "ContractViolationError", "DegenerateVarianceError", "InfeasibleLevelError",
    "InternalInvariantError", "NotPositiveDefiniteError", "NumericError", "OrderSafeError",
    "ConeSpec", "LinearSubspace", "Metric", "project_cone", "project_subspace", "CS_TABLE5",
    "CS_TABLE6", "ContingencyTable2xK", "PowerResult", "PowerScenario",
    "StochasticOrderProblem", "build_stochastic_order", "doubled_table", "power_grid",
    "run_power_scenario", "silvapulle_case", "simulation_means", "Conclusion",
    "ConsistencyCheck", "SafeOutcome", "Statistic", "TestResult", "WeightConfig",
    "consistency_region", "delta", "dt_type_a", "dt_type_b", "p_value", "safe_test",
}
ISOTONIC = {"WeightedSeries", "IsotonicFit", "pava", "SplitCheck", "simple_order_consistency"}


def _names_read(path):
    """(names, attributes): every identifier a module reads by name or
    imports, and every attribute it loads. An attribute such as
    result.p_value is a field of some object, not a read of an export."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def _readme_api():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section))


def _public_members(tree):
    """(name, class) of each public module-level function (class None) and
    each public method, property and field of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, None
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, node.name
                elif isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                    yield item.target.id, node.name


def test_every_exported_name_has_a_caller_or_is_documented():
    """src/ holds only what an entry point runs. Each exported name is read by
    a module other than its owner, or listed in README's Public API. Beyond
    the exports, each public function of a module must be called in src/ or
    bench/, and each public method, property and field of a class read as an
    attribute there, or be listed in README's Public API."""
    owners = ordersafe._OWNERS
    reads = {path.stem: _names_read(path) for path in SRC.glob("*.py")
             if path.stem != "__init__"}
    api = _readme_api()
    orphans = [name for name in ordersafe.__all__ if name not in api and not any(
        name in names for module, (names, _) in reads.items() if module != owners[name])]
    assert orphans == []
    every_read = [*reads.values(), *map(_names_read, BENCH.glob("*.py"))]
    names = set().union(*(names for names, _ in every_read))
    attributes = set().union(*(attributes for _, attributes in every_read))
    unread = [f"{path.stem}.{f'{owner}.' if owner else ''}{name}"
              for path in sorted(SRC.glob("*.py"))
              for name, owner in _public_members(ast.parse(path.read_text()))
              if name not in api and name not in attributes
              and not (owner is None and name in names)]
    assert unread == []


def test_each_lazy_name_is_its_owners_object():
    """The namespace imports a name's owner on first use and hands out the
    owner's own object; the surface is the one the eager imports exported."""
    assert len(ordersafe.__all__) == len(EXPORTED) and set(ordersafe.__all__) == EXPORTED
    for name in ordersafe.__all__:
        owner = importlib.import_module(f"ordersafe.{ordersafe._OWNERS[name]}")
        assert getattr(ordersafe, name) is getattr(owner, name)
    assert not hasattr(ordersafe, "no_such_name")
    with pytest.raises(AttributeError, match="module 'ordersafe' has no attribute 'no_such_name'"):
        ordersafe.no_such_name
    star = {}
    exec("from ordersafe import *", star)
    assert set(star) - {"__builtins__"} == EXPORTED


def test_a_bare_import_lists_every_name_and_reaches_the_submodules():
    code = ("import json, ordersafe; print(json.dumps([dir(ordersafe), [getattr(ordersafe, m)"
            ".__name__ for m in ('chibar', 'geometry', 'testing', 'studies', 'errors')]]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(
        SRC.parent)), capture_output=True, text=True, timeout=60, check=True)
    listed, submodules = json.loads(proc.stdout)
    assert EXPORTED <= set(listed)
    assert submodules == [f"ordersafe.{m}" for m in (
        "chibar", "geometry", "testing", "studies", "errors")]


def test_the_library_example_prints_what_its_comments_state():
    """The python block under "## Library" in README runs in a fresh
    interpreter, and each print gives the value its comment states (a
    trailing "..." marks a prefix)."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip().strip('"') for line in code.splitlines()
                if line.startswith("print(")]
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(
        SRC.parent)), capture_output=True, text=True, timeout=60, check=True)
    printed = proc.stdout.splitlines()
    assert len(printed) == len(expected) == 2
    for line, want in zip(printed, expected):
        if want.endswith("..."):
            assert line.startswith(want[:-3])
        else:
            assert line == want


def test_retired_routes_and_isotonic_stay_out_of_the_namespace():
    exported = set(ordersafe.__all__)
    assert not exported & (RETIRED | ISOTONIC)
    assert not RETIRED & set(dir(ordersafe.isotonic))
    defined = {node.name for path in SRC.glob("*.py") for node in ast.walk(
        ast.parse(path.read_text())) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not RETIRED & defined
    public = {name for name, value in vars(ordersafe.isotonic).items()
              if not name.startswith("_")
              and getattr(value, "__module__", None) == "ordersafe.isotonic"}
    assert public == ISOTONIC


BOUNDARY_MODULES = ("geometry", "chibar", "studies", "testing", "isotonic", "cli")
RETIRED_RULES = {
    "_is_integer", "_check_dimension", "_as_vector", "_read_only_matrix", "_require_instance",
    "_check_count", "_check_chi2_args", "_check_nonnegative", "_check_draws_and_seed",
}


def _module_functions(tree):
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _raises_contract_violation(function):
    return any(isinstance(node, ast.Raise) and node.exc is not None
               and "ContractViolationError" in ast.unparse(node.exc)
               for node in ast.walk(function))


def test_argument_rules_have_one_owner():
    """The rules are defined in _arguments alone, their type predicates are read
    nowhere else, and no module borrows another's private rule helper."""
    rules = set(_module_functions(ast.parse((SRC / "_arguments.py").read_text())))
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in BOUNDARY_MODULES}
    for name, tree in trees.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & (rules | RETIRED_RULES), name
        predicates = [ast.unparse(node) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and ast.unparse(node) in (
                          "np.integer", "numbers.Real", "numbers.Integral")]
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        assert predicates == [] and "numbers" not in imported, name
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                helpers = _module_functions(trees[node.module])
                borrowed = [alias.name for alias in node.names if alias.name.startswith("_")
                            and alias.name in helpers
                            and _raises_contract_violation(helpers[alias.name])]
                assert borrowed == [], (name, node.module)


def test_testing_reads_no_chibar_private():
    """The composite region's level has one owner, chibar.attained_level."""
    tree = ast.parse((SRC / "testing.py").read_text())
    borrowed = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "chibar"
                for alias in node.names if alias.name.startswith("_")]
    assert borrowed == []


# ---------------------------------------------------------------------------
# The contract sweep: one cheap base call per exported callable, each argument
# replaced in turn by a bad value.
# ---------------------------------------------------------------------------

_W = ChiBarWeights([0.25, 0.5, 0.25])
_M2, _M3 = Metric(np.eye(2)), Metric(np.eye(3))
_ORTHANT2 = ConeSpec.orthant(2)
_SUB3, _CONE3 = LinearSubspace.span_of_ones(3), ConeSpec.simple_order(3)
_STAT3 = Statistic(s_n=[1.0, 0.0, 2.0], sigma_n=_M3, n=5)
_CFG = WeightConfig(n_draws=64, seed=1)
_TABLE = ContingencyTable2xK(control=(5, 11, 1), treatment=(3, 8, 4))
_PROBLEM = build_stochastic_order(_TABLE)
_SCENARIO = PowerScenario(theta=[0.5, 0.5], sigma=_M2, n=10, alpha=0.05, gamma=0.1,
                          replications=8, seed=1)
_RESULT = ordersafe.TestResult(statistic=1.0, p_value=0.5, critical_value=2.0, weights_used=_W,
                     alpha=0.05)
_SERIES = WeightedSeries([1.0, 0.0, 2.0], [1.0, 2.0, 1.0])

#: (function, keyword arguments) base calls, keyed by exported name; a class
#: carries its alternative constructors and methods.
BASE_CALLS = {
    "ChiBarWeights": [(ChiBarWeights, dict(w=[0.25, 0.5, 0.25], source="monte_carlo",
                                           n_draws=64, seed=1))],
    "ConeSpec": [
        (ConeSpec, dict(restriction=[[1.0, -1.0]])),
        (ConeSpec.orthant, dict(dim=2)),
        (ConeSpec.simple_order, dict(dim=3)),
        (ConeSpec.tree_order, dict(dim=3)),
        (ConeSpec.umbrella_order, dict(dim=3, peak=1)),
    ],
    "ConsistencyCheck": [(ConsistencyCheck, dict(consistent=True, type3_risk=False))],
    "ContingencyTable2xK": [(ContingencyTable2xK, dict(control=(1, 2), treatment=(3, 4),
                                                       labels=("a", "b")))],
    "LinearSubspace": [
        (LinearSubspace, dict(basis=[[1.0], [1.0]])),
        (LinearSubspace.from_constraint, dict(a=[[1.0, -1.0]])),
        (LinearSubspace.zero, dict(m=2)),
        (LinearSubspace.span_of_ones, dict(m=2)),
    ],
    "Metric": [
        (Metric, dict(sigma=[[2.0, 0.5], [0.5, 1.0]])),
        (_M2.norm_sq, dict(u=[1.0, 2.0])),
    ],
    "PowerResult": [(PowerResult, dict(power_dt=0.5, power_safe=0.4, se=0.1, replications=8,
                                       seed=1))],
    "PowerScenario": [(PowerScenario, dict(theta=[0.5, 0.5], sigma=_M2, n=10, alpha=0.05,
                                           gamma=0.1, replications=8, seed=1))],
    "SafeOutcome": [(SafeOutcome, dict(original=_RESULT, auxiliary=_RESULT, d1=1, d2=1,
                                       conclusion=Conclusion.SAFE_REJECT, alpha_safe=0.05,
                                       c_alpha_safe=2.0, t_safe=1.0))],
    "Statistic": [(Statistic, dict(s_n=[1.0, 0.0, 2.0], sigma_n=_M3, n=5))],
    "StochasticOrderProblem": [(StochasticOrderProblem, dict(
        theta_hat=_PROBLEM.theta_hat, restriction=_PROBLEM.restriction,
        sigma_n=_PROBLEM.sigma_n, n=_PROBLEM.n))],
    "TestResult": [(ordersafe.TestResult, dict(statistic=1.0, p_value=0.5, critical_value=2.0,
                                     weights_used=_W, alpha=0.05))],
    "WeightConfig": [(WeightConfig, dict(n_draws=64, seed=1))],
    "build_stochastic_order": [(build_stochastic_order, dict(table=_TABLE))],
    "consistency_region": [(consistency_region, dict(theta=[1.0, 0.0, 2.0], cone=_CONE3,
                                                     metric=_M3))],
    "delta": [
        (delta, dict(theta=[1.0, -1.0], cone=_ORTHANT2, metric=_M2, problem="type_a")),
        (delta, dict(theta=[1.0, -1.0], cone=_ORTHANT2, metric=_M2, problem="type_b")),
    ],
    "doubled_table": [(doubled_table, dict(table=_TABLE))],
    "dt_type_a": [(dt_type_a, dict(stat=_STAT3, sub=_SUB3, cone=_CONE3))],
    "dt_type_b": [(dt_type_b, dict(stat=_STAT3, cone=_CONE3))],
    "joint_tail": [(joint_tail, dict(weights=_W, c1=1.0, c2=2.0))],
    "mixture_upper_tail": [(mixture_upper_tail, dict(weights=_W, t=1.0))],
    "p_value": [(p_value, dict(statistic_value=1.0, weights=_W, problem="type_b"))],
    "power_grid": [(power_grid, dict(replications=8, seed=1, alpha=0.05, gammas=(0.1,),
                                     ns=(10,), mean_labels=("theta1",), workers=1))],
    "project_cone": [(project_cone, dict(x=[1.0, -1.0], cone=_ORTHANT2, metric=_M2))],
    "project_subspace": [(project_subspace, dict(x=[1.0, 2.0], sub=LinearSubspace.span_of_ones(2),
                                                 metric=_M2))],
    "run_power_scenario": [(run_power_scenario, dict(scenario=_SCENARIO, workers=1))],
    "safe_test": [(safe_test, dict(stat=_STAT3, sub=_SUB3, cone=_CONE3, alpha=0.05, gamma=0.05,
                                   weight_cfg=_CFG))],
    "silvapulle_case": [(silvapulle_case, {})],
    "simulation_means": [(simulation_means, {})],
    "solve_critical": [
        (solve_critical, dict(weights=_W, alpha=0.05, mode="marginal", c2=None)),
        (solve_critical, dict(weights=_W, alpha=0.05, mode="joint", c2=2.0)),
    ],
    "weights_closed_form_2d": [(weights_closed_form_2d, dict(rho=0.2))],
    "weights_monte_carlo": [(weights_monte_carlo, dict(psi=np.eye(2), n_draws=64, seed=1))],
}

#: Public functions of the modules that the package does not re-export.
MODULE_CALLS = [
    (chi2_sf, dict(t=1.0, df=2)),
    (attained_level, dict(weights=_W, c_alpha=1.0, c_gamma=2.0)),
    (correlation_2x2, dict(psi=[[2.0, 0.5], [0.5, 1.0]])),
    (weights_exact, dict(psi=np.eye(3))),
    (project_orthant_batch, dict(points=[[1.0, -1.0], [-1.0, 2.0]], metric=_M2)),
    (resolve_weights, dict(stat=_STAT3, sub=_SUB3, cone=_CONE3, cfg=_CFG)),
    (WeightedSeries, dict(values=[1.0, 0.0, 2.0], weights=[1.0, 2.0, 1.0])),
    (pava, dict(series=_SERIES)),
    (simple_order_consistency, dict(series=_SERIES)),
]

#: The bad values of the sweep, each substituted for every argument in turn.
BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, "a", None, -1, 2.5]),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.integers(max_value=-1),
    st.lists(st.integers(0, 3), max_size=3).map(lambda shape: np.zeros(shape)),
    st.lists(st.text(max_size=2), min_size=1, max_size=3).map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=3).map(np.array),
)


def test_every_exported_callable_has_a_base_call():
    exported = {name for name in ordersafe.__all__ if callable(getattr(ordersafe, name))}
    errors = {name for name in exported if isinstance(getattr(ordersafe, name), type)
              and issubclass(getattr(ordersafe, name), BaseException)}
    assert set(BASE_CALLS) == exported - errors - {"Conclusion"}


def _calls():
    for calls in BASE_CALLS.values():
        yield from calls
    yield from MODULE_CALLS


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bad=BAD_VALUES)
@example(bad=math.nan)
@example(bad=math.inf)
@example(bad=-math.inf)
@example(bad=True)
@example(bad="a")                      # joint_tail(w, "a", 2.0)
@example(bad=None)                     # mixture_upper_tail(None, 1.0), doubled_table(None), ...
@example(bad=-1)
@example(bad=2.5)
@example(bad=np.zeros((2, 3, 4)))
@example(bad=np.array(["a", "b"]))
@example(bad=np.array([True, False]))
@example(bad="0.05")                   # solve_critical(w, "0.05"), safe_test(..., "0.05", 0.05)
@example(bad="1")                      # mixture_upper_tail(w, "1"), solve_critical(..., c2="1")
@example(bad="0.2")                    # weights_closed_form_2d("0.2")
@example(bad=("zz",))                  # power_grid(mean_labels=("zz",))
@example(bad=5)                        # ContingencyTable2xK((1, 2), (3, 4), 5)
@example(bad=[None, {"a": 1}])         # ContingencyTable2xK((1, 2), (3, 4), [None, {"a": 1}])
@example(bad=["a", "b"])               # PowerScenario(theta=["a", "b"]), ChiBarWeights(["a", "b"])
@example(bad=["a", "b", "c"])          # project_cone(["a", "b", "c"], ...), Statistic
@example(bad=[["a", "b"]])             # ConeSpec([["a", "b"]]), project_orthant_batch
@example(bad=[["a"]])                  # LinearSubspace.from_constraint([["a"]])
@example(bad=np.eye(2, dtype=bool))    # Metric(np.eye(2, dtype=bool))
@example(bad=np.array([True, False, True]))  # Statistic(np.array([True, False, True]), ...)
@example(bad=np.eye(3, dtype=str))     # weights_exact of a str matrix
@example(bad=[1.0, 2.0, 3.0])          # Metric(np.eye(2)).norm_sq of a length-3 vector
@example(bad=[True, False])            # Metric(np.eye(2)).norm_sq([True, False])
@example(bad=[1.0, True])              # Statistic([1.0, True], ...), Metric(np.eye(2)).norm_sq
@example(bad=[[1.0, True], [True, 2.0]])  # Metric([[1.0, True], [True, 2.0]])
def test_a_bad_argument_raises_only_ordersafe_errors(bad):
    for function, base in _calls():
        for name in base:
            if name == "workers" and isinstance(bad, int) and bad > 2:
                continue  # a pool stays at two threads at most
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    function(**{**base, name: bad})
                except OrderSafeError:
                    pass


@pytest.mark.parametrize("call", [
    lambda: Metric(np.eye(2, dtype=bool)),
    lambda: Metric([["1", "0"], ["0", "1"]]),
    lambda: Statistic(s_n=np.array([True, False, True]), sigma_n=_M3, n=5),
    lambda: Statistic(s_n=["1", "0", "2"], sigma_n=_M3, n=5),
    lambda: ConeSpec(np.array([[True, False]])),
    lambda: LinearSubspace(np.array([[True], [True]])),
    lambda: LinearSubspace.from_constraint([["1", "-1"]]),
    lambda: ChiBarWeights(np.array([True, False])),
    lambda: ChiBarWeights(["0.5", "0.5"]),
    lambda: ChiBarWeights([0.5, 0.5], n_draws="x"),
    lambda: ChiBarWeights([0.5, 0.5], seed=1.5),
    lambda: _M2.norm_sq([True, False]),
    lambda: Metric([[1.0, True], [True, 2.0]]),
    lambda: Statistic([1.0, True], _M2, 3),
], ids=["metric-bool", "metric-str", "statistic-bool", "statistic-str", "cone-bool",
        "basis-bool", "constraint-str", "weights-bool", "weights-str", "weights-n_draws-str",
        "weights-seed-float", "norm_sq-bool", "metric-bool-in-list", "statistic-bool-in-list"])
def test_values_numpy_would_convert_are_refused(call):
    """Bool and str arrays used to become floats, and any n_draws was stored."""
    with pytest.raises(ContractViolationError):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: _M2.norm_sq([1.0, True]), "u"),
    (lambda: LinearSubspace([[1.0, 2.0], [np.True_, 2.0]]), "basis"),
    (lambda: LinearSubspace(([0.5], [False])), "basis"),
], ids=["vector", "matrix-numpy-bool", "tuple-of-lists"])
def test_a_bool_at_any_depth_of_a_list_is_refused_by_name(call, name):
    """numpy converts these to floats; the array rule names the bool instead."""
    with pytest.raises(ContractViolationError, match=f"^{name} must hold numbers, not bool"):
        call()
