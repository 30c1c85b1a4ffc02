"""Order-restricted hypothesis tests with certificates of validity.

Distance tests for subspace-vs-cone and cone-vs-complement problems, the
chi-bar-square machinery behind their null distributions, and a composite
safe test whose certificate pre-test drives the probability of rejecting
in favor of an alternative that does not hold (a Type III error) to zero
in large samples.

Every exported name is imported from its owner module on first use
(PEP 562), so ``import ordersafe`` loads neither numpy nor any submodule.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

#: Each exported name and the submodule that defines it.
_OWNERS = {name: owner for owner, names in {
    "chibar": ("DEFAULT_MC_DRAWS", "DEFAULT_SEED", "ChiBarWeights", "joint_tail",
               "mixture_upper_tail", "solve_critical", "weights_closed_form_2d",
               "weights_monte_carlo"),
    "errors": ("CapabilityError", "ContractViolationError", "DegenerateVarianceError",
               "InfeasibleLevelError", "InternalInvariantError", "NotPositiveDefiniteError",
               "NumericError", "OrderSafeError"),
    "geometry": ("ConeSpec", "LinearSubspace", "Metric", "project_cone", "project_subspace"),
    "studies": ("CS_TABLE5", "CS_TABLE6", "ContingencyTable2xK", "PowerResult", "PowerScenario",
                "StochasticOrderProblem", "build_stochastic_order", "doubled_table",
                "power_grid", "run_power_scenario", "silvapulle_case", "simulation_means"),
    "testing": ("Conclusion", "ConsistencyCheck", "SafeOutcome", "Statistic", "TestResult",
                "WeightConfig", "consistency_region", "delta", "dt_type_a", "dt_type_b",
                "p_value", "safe_test"),
}.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name):
    if name in _OWNERS:
        value = getattr(_import_module(f"{__name__}.{_OWNERS[name]}"), name)
    elif name in _OWNERS.values():
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
