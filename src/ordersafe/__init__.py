"""Order-restricted hypothesis tests with certificates of validity.

Distance tests for subspace-vs-cone and cone-vs-complement problems, the
chi-bar-square machinery behind their null distributions, and a composite
safe test whose certificate pre-test drives the probability of rejecting
in favor of an alternative that does not hold (a Type III error) to zero
in large samples.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .chibar import (
    DEFAULT_MC_DRAWS,
    DEFAULT_SEED,
    ChiBarWeights,
    joint_tail,
    mixture_lower_tail,
    mixture_upper_tail,
    safe_level_2d,
    solve_critical,
    solve_nominal_level,
    weights_closed_form_2d,
    weights_monte_carlo,
)
from .errors import (
    CapabilityError,
    ContractViolationError,
    DegenerateVarianceError,
    InfeasibleLevelError,
    InternalInvariantError,
    NotPositiveDefiniteError,
    NumericError,
    OrderSafeError,
)
from .geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    polar_complement,
    project_cone,
    project_subspace,
)
from .studies import (
    CS_TABLE5,
    CS_TABLE6,
    ContingencyTable2xK,
    PowerResult,
    PowerScenario,
    StochasticOrderProblem,
    build_stochastic_order,
    doubled_table,
    power_grid,
    run_power_scenario,
    silvapulle_case,
    simulation_means,
)
from .testing import (
    FULL_SPACE,
    Conclusion,
    ConsistencyCheck,
    SafeOutcome,
    Statistic,
    TestResult,
    WeightConfig,
    consistency_region,
    delta,
    dt_type_a,
    dt_type_b,
    p_value,
    safe_test,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
