"""Distance tests, their p-values, and the composite safe test.

Two problem types are supported. Type A tests a linear-subspace null
against a cone alternative containing it ("testing for an order"); type B
tests a cone null against its complement ("testing against an order"). The
composite safe test couples the type A test at level alpha with a type B
certificate pre-test at level gamma, so the null is rejected only when the
data are also compatible with the cone, protecting against rejections in
directions outside both hypotheses (Type III errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chibar import (
    DEFAULT_MC_DRAWS,
    DEFAULT_SEED,
    EXACT_MAX_DIM,
    ChiBarWeights,
    correlation_2x2,
    joint_tail,
    mixture_upper_tail,
    solve_critical,
    weights_closed_form_1d,
    weights_closed_form_2d,
    weights_exact,
    weights_monte_carlo,
)
from .errors import ContractViolationError, InternalInvariantError, NumericError
from .geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    _as_vector,
    _is_integer,
    project_cone,
    project_subspace,
)

#: Statistics within this distance of a critical value resolve to "reject".
REJECT_TOL = 1e-10

#: Sentinel for the unconstrained alternative of a type B pairing.
FULL_SPACE = "full_space"


@dataclass(frozen=True)
class Statistic:
    """An asymptotically Gaussian estimate with its scaled covariance.

    s_n estimates the parameter, sigma_n estimates the covariance of the
    root-n limit law, and n is the sample size behind the estimate.
    """

    s_n: np.ndarray
    sigma_n: Metric
    n: int

    def __post_init__(self):
        s = _as_vector(self.s_n, self.sigma_n.dim, "s_n")
        # above 2**53 the float products n * distance would round n itself
        if isinstance(self.n, bool) or not 1 <= int(self.n) <= 2**53:
            raise ContractViolationError("n must be a positive integer no larger than 2**53")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "s_n", s)
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return self.s_n.shape[0]


@dataclass(frozen=True)
class WeightConfig:
    """The Monte Carlo settings of resolve_weights.

    resolve_weights uses the closed forms for one- and two-dimensional
    orthant reductions, Kudô's exact face decomposition (weights_exact) for
    3 <= p <= EXACT_MAX_DIM (8), and Monte Carlo face counting beyond and
    wherever the exact quadrature fails (correlations very near +-1);
    n_draws and seed matter only where Monte Carlo runs, whose KKT
    certificate decides each draw's face and whose chunk streams come from
    the one seeding helper it shares with the power harness. Monte Carlo
    weights at any p come from calling weights_monte_carlo.
    """

    n_draws: int = DEFAULT_MC_DRAWS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not _is_integer(self.n_draws) or self.n_draws < 1:
            raise ContractViolationError(
                f"Monte Carlo size n_draws must be a positive integer, not {self.n_draws!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ContractViolationError(
                f"seed must be a nonnegative integer, not {self.seed!r}")


@dataclass(frozen=True)
class TestResult:
    """A single distance test: statistic, p-value, critical value, level."""

    statistic: float
    p_value: float
    critical_value: float
    weights_used: ChiBarWeights
    alpha: float

    @property
    def reject(self) -> bool:
        return self.statistic >= self.critical_value - REJECT_TOL


class Conclusion(Enum):
    """The four decision rows of the composite procedure."""

    SAFE_REJECT = "Safely, reject the Null."
    DO_NOT_REJECT = "Do not reject the Null."
    LIKELY_TYPE_III = "A likely Type III error. Revisit assumptions."
    DO_NOT_REJECT_REVISIT = "Do not reject the Null. Revisit assumptions."


_CONCLUSION_BY_DECISION = {
    (1, 1): Conclusion.SAFE_REJECT,
    (1, 0): Conclusion.DO_NOT_REJECT,
    (0, 1): Conclusion.LIKELY_TYPE_III,
    (0, 0): Conclusion.DO_NOT_REJECT_REVISIT,
}


@dataclass(frozen=True)
class SafeOutcome:
    """Joint outcome of the original test and its certificate pre-test.

    d1 = 1 means the certificate of validity was issued (auxiliary null not
    rejected at level gamma); d2 = 1 means the original null was rejected at
    level alpha. t_safe is the original statistic gated by the certificate,
    alpha_safe the exact attained level of the composite rejection region,
    and c_alpha_safe the recalibrated critical value solving the joint tail
    equation at level alpha.
    """

    original: TestResult
    auxiliary: TestResult
    d1: int
    d2: int
    conclusion: Conclusion
    alpha_safe: float
    c_alpha_safe: float
    t_safe: float


def _validate_pairing(stat: Statistic, sub: LinearSubspace, cone: ConeSpec) -> np.ndarray:
    r = cone.as_polyhedral()
    if r.shape[1] != stat.dim:
        raise ContractViolationError("cone and statistic dimensions disagree")
    if sub.ambient_dim != stat.dim:
        raise ContractViolationError("subspace and statistic dimensions disagree")
    b = sub.basis
    if b.size and np.max(np.abs(r @ b)) > 1e-8 * (1.0 + np.abs(r).max()):
        raise ContractViolationError(
            "null subspace is not contained in the cone (R @ basis != 0)"
        )
    return r


def _reduced_psi(stat: Statistic, sub: LinearSubspace, cone: ConeSpec) -> np.ndarray:
    """Covariance of the transformed problem eta = R theta on the orthant.

    Requires the null subspace to be exactly the kernel of R, which is the
    case for every supported pairing (a point null with a full-rank R, or
    the equal-means diagonal with a difference matrix).
    """
    r = _validate_pairing(stat, sub, cone)
    if sub.dim != stat.dim - r.shape[0]:
        raise ContractViolationError(
            "weights require the null subspace to equal the kernel of the "
            f"restriction matrix (dim {stat.dim - r.shape[0]}, got {sub.dim})"
        )
    return r @ stat.sigma_n.sigma @ r.T


def resolve_weights(stat: Statistic, sub: LinearSubspace, cone: ConeSpec,
                    cfg: WeightConfig = WeightConfig()) -> ChiBarWeights:
    """Mixture weights of the orthant-reduced problem under the given config."""
    psi = _reduced_psi(stat, sub, cone)
    p = psi.shape[0]
    if p > EXACT_MAX_DIM:
        return weights_monte_carlo(psi, n_draws=cfg.n_draws, seed=cfg.seed)
    if p > 2:
        try:
            return weights_exact(psi)
        except NumericError:
            return weights_monte_carlo(psi, n_draws=cfg.n_draws, seed=cfg.seed)
    if p == 1:
        return weights_closed_form_1d()
    return weights_closed_form_2d(correlation_2x2(psi))


def dt_type_a(stat: Statistic, sub: LinearSubspace, cone: ConeSpec) -> float:
    """Distance test for a subspace null against a cone alternative.

    n times the drop in squared metric distance when the null set is
    enlarged to the cone; nonnegative by construction and clamped at zero
    against roundoff.
    """
    _validate_pairing(stat, sub, cone)
    metric = stat.sigma_n
    d_null = metric.norm_sq(stat.s_n - project_subspace(stat.s_n, sub, metric))
    d_alt = metric.norm_sq(stat.s_n - project_cone(stat.s_n, cone, metric))
    value = stat.n * (d_null - d_alt)
    _require_finite(value, "type A")
    if value < -1e-10:
        raise InternalInvariantError(f"distance drop is negative beyond tolerance: {value}")
    return max(value, 0.0)


def dt_type_b(stat: Statistic, cone: ConeSpec) -> float:
    """Distance test for a cone null: n times squared distance to the cone."""
    metric = stat.sigma_n
    if cone.as_polyhedral().shape[1] != stat.dim:
        raise ContractViolationError("cone and statistic dimensions disagree")
    value = stat.n * metric.norm_sq(stat.s_n - project_cone(stat.s_n, cone, metric))
    _require_finite(value, "type B")
    return max(value, 0.0)


def _require_finite(value: float, kind: str) -> None:
    if not np.isfinite(value):
        raise NumericError(f"the {kind} statistic is not finite ({value}); the data "
                           "overflow double precision")


def p_value(statistic_value: float, weights: ChiBarWeights, problem: str) -> float:
    """Asymptotic p-value of a distance test statistic.

    problem="type_a" evaluates the face-dimension mixture directly;
    problem="type_b" evaluates the complementary-dimension mixture, the null
    law of the polar residual at the least favorable point (the apex), so
    the value is conservative elsewhere on the cone.
    """
    if statistic_value < 0:
        raise ContractViolationError("statistic must be nonnegative")
    if problem == "type_a":
        return mixture_upper_tail(weights, statistic_value)
    if problem == "type_b":
        return mixture_upper_tail(weights.complement(), statistic_value)
    raise ContractViolationError(f"unknown problem kind {problem!r}")


def safe_test(stat: Statistic, sub: LinearSubspace, cone: ConeSpec, alpha: float,
              gamma: float, weight_cfg: WeightConfig = WeightConfig()) -> SafeOutcome:
    """Run the composite safe test at levels (alpha, gamma).

    Computes the original statistic t, the auxiliary statistic t', both
    p-values, the marginal critical values c_alpha and c'_gamma, the gated
    statistic t_safe = t * 1{t' < c'_gamma}, the recalibrated critical value
    solving the joint tail equation at alpha, and the attained level of the
    composite region. The conclusion is selected by the decision pair
    (d1, d2) = (certificate issued, original null rejected).
    """
    if not (0.0 < alpha < 1.0 and 0.0 < gamma < 1.0):
        raise ContractViolationError("alpha and gamma must lie in (0, 1)")
    weights = resolve_weights(stat, sub, cone, weight_cfg)
    t_orig = dt_type_a(stat, sub, cone)
    t_aux = dt_type_b(stat, cone)
    alpha_star = p_value(t_orig, weights, "type_a")
    gamma_star = p_value(t_aux, weights, "type_b")
    c_alpha = solve_critical(weights, alpha, "marginal")
    c_gamma = solve_critical(weights.complement(), gamma, "marginal")
    t_safe = t_orig if t_aux < c_gamma else 0.0
    c_alpha_safe = solve_critical(weights, alpha, "joint", c2=c_gamma)
    alpha_safe = joint_tail(weights, c_alpha, c_gamma)

    d1 = int(gamma_star >= gamma)
    d2 = int(alpha_star <= alpha)
    conclusion = _CONCLUSION_BY_DECISION[(d1, d2)]
    if conclusion is Conclusion.SAFE_REJECT and t_safe < c_alpha_safe - REJECT_TOL:
        raise InternalInvariantError(
            "safe rejection reported but the gated statistic is below its "
            f"recalibrated critical value ({t_safe} < {c_alpha_safe})"
        )
    original = TestResult(
        statistic=t_orig, p_value=alpha_star, critical_value=c_alpha,
        weights_used=weights, alpha=alpha,
    )
    auxiliary = TestResult(
        statistic=t_aux, p_value=gamma_star, critical_value=c_gamma,
        weights_used=weights.complement(), alpha=gamma,
    )
    return SafeOutcome(
        original=original, auxiliary=auxiliary, d1=d1, d2=d2,
        conclusion=conclusion, alpha_safe=alpha_safe,
        c_alpha_safe=c_alpha_safe, t_safe=t_safe,
    )


def _project_set(x, target, metric: Metric) -> np.ndarray:
    if target == FULL_SPACE:
        return np.asarray(x, dtype=float)
    if isinstance(target, LinearSubspace):
        return project_subspace(x, target, metric)
    if isinstance(target, ConeSpec):
        return project_cone(x, target, metric)
    raise ContractViolationError(f"cannot project onto {type(target).__name__}")


def delta(theta, null_set, alt_set, metric: Metric) -> float:
    """Population drift of the distance test at a fixed parameter value.

    The difference of squared metric distances to the null and alternative
    sets; the test statistic grows like n times this quantity, so a strictly
    positive value (beyond 1e-8) predicts rejection with probability one in
    the large-sample limit. Pass FULL_SPACE as the alternative for cone-null
    pairings.

    Evaluated in Moreau form, ||P_alt theta||^2 - ||P_null theta||^2, which
    equals the difference of squared distances for any closed convex cone,
    subspace or the full space because dist^2(theta, S) = ||theta||^2 -
    ||P_S theta||^2. The common ||theta||^2 never enters, so a theta in the
    polar cone gives a drift at the square of the projector's roundoff
    rather than at its first power.
    """
    theta = np.asarray(theta, dtype=float)
    value = (metric.norm_sq(_project_set(theta, alt_set, metric))
             - metric.norm_sq(_project_set(theta, null_set, metric)))
    if value < -1e-10:
        raise InternalInvariantError(f"distance drop negative beyond tolerance: {value}")
    return max(value, 0.0)


@dataclass(frozen=True)
class ConsistencyCheck:
    """Whether the subspace-vs-cone test separates at theta, and how.

    consistent means rejection probability tends to one; type3_risk means
    that happens although theta is outside the cone, so rejecting would
    endorse an alternative that does not hold.
    """

    consistent: bool
    type3_risk: bool


def consistency_region(theta, sub: LinearSubspace, cone: ConeSpec,
                       metric: Metric) -> ConsistencyCheck:
    """Classify theta by the asymptotic behavior of the subspace-vs-cone test.

    The test separates exactly when theta lies outside the polar of
    (cone intersect null-perp), detected through the Moreau decomposition as
    a nonvanishing drift delta(theta); the Type III regime additionally
    requires theta to be outside the cone itself.
    """
    theta = np.asarray(theta, dtype=float)
    drift = delta(theta, sub, cone, metric)
    consistent = bool(np.sqrt(drift) > 1e-8)
    dist_cone = metric.norm_sq(theta - project_cone(theta, cone, metric))
    outside_cone = bool(np.sqrt(max(dist_cone, 0.0)) > 1e-8)
    return ConsistencyCheck(consistent=consistent, type3_risk=consistent and outside_cone)
