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

from . import _arguments as check
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
from .geometry import ConeSpec, LinearSubspace, Metric, project_cone, project_subspace

#: Sentinel for the unconstrained alternative of a type B pairing.
FULL_SPACE = "full_space"


@dataclass(frozen=True)
class Statistic:
    """An asymptotically Gaussian estimate with its scaled covariance.

    s_n estimates the parameter, sigma_n estimates the covariance of the
    root-n limit law, and n is the sample size behind the estimate.

    Both distance statistics come from the one cone projection of s_n, so a
    Statistic remembers its squared distance to the last cone it was
    projected onto: dt_type_a, dt_type_b and safe_test on one Statistic and
    one ConeSpec project once. The memo is keyed by the cone's identity (a
    ConeSpec is immutable, so the same object has the same restriction
    matrix; an equal but distinct cone projects again), holds no error, and
    is one (cone, distance) tuple written by a single attribute store, so a
    thread never reads one cone with another's distance. It is not a field:
    ==, repr and dataclasses.replace ignore it, and a new Statistic starts
    without one.
    """

    s_n: np.ndarray
    sigma_n: Metric
    n: int

    def __post_init__(self):
        s = check.vector(self.s_n, "s_n", check.instance(self.sigma_n, Metric, "sigma_n").dim)
        # above 2**53 the float products n * distance would round n itself
        n = check.integer(self.n, 1, "n")
        if n > 2**53:
            raise ContractViolationError(f"n must be no larger than 2**53, not {n!r}")
        object.__setattr__(self, "s_n", s)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_cone_memo", None)

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
        object.__setattr__(self, "n_draws", check.integer(self.n_draws, 1, "n_draws"))
        object.__setattr__(self, "seed", check.integer(self.seed, 0, "seed"))


@dataclass(frozen=True)
class TestResult:
    """A single distance test; reject, the one accept/reject rule, is p-value <= level."""

    statistic: float
    p_value: float
    critical_value: float
    weights_used: ChiBarWeights
    alpha: float

    @property
    def reject(self) -> bool:
        return self.p_value <= self.alpha


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

    d1 = 1 means the certificate of validity was issued (auxiliary.reject is
    False: gamma* > gamma); d2 = 1 means original.reject (alpha* <= alpha).
    t_safe = t * d1 is the original statistic gated by the certificate,
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


def _validate_pairing(dim: int, sub: LinearSubspace, cone: ConeSpec) -> np.ndarray:
    check.instance(sub, LinearSubspace, "sub")
    r = check.instance(cone, ConeSpec, "cone").as_polyhedral()
    if r.shape[1] != dim:
        raise ContractViolationError("cone and statistic dimensions disagree")
    if sub.ambient_dim != dim:
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
    r = _validate_pairing(stat.dim, sub, cone)
    if sub.dim != stat.dim - r.shape[0]:
        raise ContractViolationError(
            "weights require the null subspace to equal the kernel of the "
            f"restriction matrix (dim {stat.dim - r.shape[0]}, got {sub.dim})"
        )
    return r @ stat.sigma_n.sigma @ r.T


def resolve_weights(stat: Statistic, sub: LinearSubspace, cone: ConeSpec,
                    cfg: WeightConfig = WeightConfig()) -> ChiBarWeights:
    """Mixture weights of the orthant-reduced problem under the given config."""
    check.instance(stat, Statistic, "stat")
    check.instance(cfg, WeightConfig, "cfg")
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
    against roundoff. The distance to the cone comes from the Statistic's
    memo, so dt_type_b on the same Statistic and cone does not project again.
    """
    check.instance(stat, Statistic, "stat")
    _validate_pairing(stat.dim, sub, cone)
    metric = stat.sigma_n
    d_cone = _cone_distance_sq(stat, cone)
    d_null = metric.norm_sq(stat.s_n - project_subspace(stat.s_n, sub, metric))
    value = stat.n * (d_null - d_cone)
    _require_finite(value, "type A")
    return _clamped_drop(value, stat.s_n, metric, stat.n)


def dt_type_b(stat: Statistic, cone: ConeSpec) -> float:
    """Distance test for a cone null: n times squared distance to the cone.

    The distance comes from the Statistic's memo, shared with dt_type_a.
    """
    check.instance(stat, Statistic, "stat")
    if check.instance(cone, ConeSpec, "cone").as_polyhedral().shape[1] != stat.dim:
        raise ContractViolationError("cone and statistic dimensions disagree")
    value = stat.n * _cone_distance_sq(stat, cone)
    _require_finite(value, "type B")
    return max(value, 0.0)


def _cone_distance_sq(stat: Statistic, cone: ConeSpec) -> float:
    """Squared metric distance from s_n to the cone, projected once per
    Statistic and cone (see Statistic). Read and written as one tuple."""
    memo = stat._cone_memo
    if memo is not None and memo[0] is cone:
        return memo[1]
    metric = stat.sigma_n
    d_cone = metric.norm_sq(stat.s_n - project_cone(stat.s_n, cone, metric))
    object.__setattr__(stat, "_cone_memo", (cone, d_cone))
    return d_cone


def _clamped_drop(drop: float, x, metric: Metric, n: int = 1) -> float:
    """max(drop, 0) for drop = n (dist^2(x, null) - dist^2(x, alt)), which
    exact arithmetic keeps nonnegative. Both sets hold 0, so both distances
    and their roundoff scale with ||x||^2: only a drop below
    -1e-10 (1 + n ||x||^2) is an error, and ||x||^2 is computed only then."""
    if drop < -1e-10 and drop < -1e-10 * (1.0 + n * metric.norm_sq(x)):
        raise InternalInvariantError(f"distance drop is negative beyond tolerance: {drop}")
    return max(drop, 0.0)


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
    statistic_value = check.real(statistic_value, "statistic_value", nonnegative=True)
    check.instance(weights, ChiBarWeights, "weights")
    if check.choice(problem, ("type_a", "type_b"), "problem kind") == "type_b":
        weights = weights.complement()
    return mixture_upper_tail(weights, statistic_value)


def safe_test(stat: Statistic, sub: LinearSubspace, cone: ConeSpec, alpha: float,
              gamma: float, weight_cfg: WeightConfig = WeightConfig()) -> SafeOutcome:
    """Run the composite safe test at levels (alpha, gamma).

    Computes the original statistic t, the auxiliary statistic t', both
    p-values, the marginal critical values c_alpha and c'_gamma, the gated
    statistic t_safe = t * d1, the recalibrated critical value solving the
    joint tail equation at alpha, and the attained level of the composite
    region. The conclusion is selected by the decision pair (d1, d2) =
    (certificate issued, original null rejected), read by TestResult.reject.
    t and t' come from dt_type_a and dt_type_b, which share one cone
    projection through the Statistic's memo.
    """
    check.instance(stat, Statistic, "stat")
    alpha, gamma = check.level(alpha, "alpha"), check.level(gamma, "gamma")
    weights = resolve_weights(stat, sub, cone, weight_cfg)
    polar = weights.complement()
    t_orig = dt_type_a(stat, sub, cone)
    t_aux = dt_type_b(stat, cone)
    alpha_star = mixture_upper_tail(weights, t_orig)
    gamma_star = mixture_upper_tail(polar, t_aux)
    c_alpha = solve_critical(weights, alpha, "marginal")
    c_gamma = solve_critical(polar, gamma, "marginal")
    c_alpha_safe = solve_critical(weights, alpha, "joint", c2=c_gamma)
    alpha_safe = joint_tail(weights, c_alpha, c_gamma)
    original = TestResult(
        statistic=t_orig, p_value=alpha_star, critical_value=c_alpha,
        weights_used=weights, alpha=alpha,
    )
    auxiliary = TestResult(
        statistic=t_aux, p_value=gamma_star, critical_value=c_gamma,
        weights_used=polar, alpha=gamma,
    )
    d1, d2 = int(not auxiliary.reject), int(original.reject)
    t_safe = t_orig if d1 else 0.0
    conclusion = _CONCLUSION_BY_DECISION[(d1, d2)]
    if conclusion is Conclusion.SAFE_REJECT and joint_tail(weights, t_safe, c_gamma) > alpha:
        raise InternalInvariantError(
            "safe rejection reported but the gated statistic's joint tail "
            f"exceeds alpha ({t_safe} against c'_gamma = {c_gamma})"
        )
    return SafeOutcome(
        original=original, auxiliary=auxiliary, d1=d1, d2=d2,
        conclusion=conclusion, alpha_safe=alpha_safe,
        c_alpha_safe=c_alpha_safe, t_safe=t_safe,
    )


def _project_set(x, target, metric: Metric) -> np.ndarray:
    if isinstance(target, LinearSubspace):
        return project_subspace(x, target, metric)
    if isinstance(target, ConeSpec):
        return project_cone(x, target, metric)
    return x  # FULL_SPACE


def _set_kind(target) -> str:
    if isinstance(target, LinearSubspace):
        return "subspace"
    if isinstance(target, ConeSpec):
        return "cone"
    if isinstance(target, str) and target == FULL_SPACE:
        return "FULL_SPACE"
    return type(target).__name__


def delta(theta, null_set, alt_set, metric: Metric) -> float:
    """Population drift of the distance test at a fixed parameter value.

    The difference of squared metric distances to the null and alternative
    sets; the test statistic grows like n times this quantity, so a strictly
    positive value predicts rejection with probability one in the
    large-sample limit; consistency_region decides that, with its own
    threshold. Pass FULL_SPACE as the alternative for cone-null pairings.

    Evaluated in Moreau form, ||P_alt theta||^2 - ||P_null theta||^2, which
    equals the difference of squared distances for any closed convex cone,
    subspace or the full space because dist^2(theta, S) = ||theta||^2 -
    ||P_S theta||^2. The common ||theta||^2 never enters, so a theta in the
    polar cone gives a drift at the square of the projector's roundoff
    rather than at its first power.

    Two pairings are defined: a subspace null against a cone alternative,
    which must contain it, as for consistency_region; and a cone or
    subspace null against FULL_SPACE. Any other pairing raises
    ContractViolationError before anything is projected.
    """
    theta = check.vector(theta, "theta", check.instance(metric, Metric, "metric").dim)
    pairing = (_set_kind(null_set), _set_kind(alt_set))
    if pairing == ("subspace", "cone"):
        _validate_pairing(metric.dim, null_set, alt_set)
    elif pairing not in (("cone", "FULL_SPACE"), ("subspace", "FULL_SPACE")):
        raise ContractViolationError(
            f"delta is defined for a subspace null against a cone, or a cone or "
            f"subspace null against FULL_SPACE; got a {pairing[0]} null against "
            f"a {pairing[1]} alternative")
    value = (metric.norm_sq(_project_set(theta, alt_set, metric))
             - metric.norm_sq(_project_set(theta, null_set, metric)))
    return _clamped_drop(value, theta, metric)


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
    (cone intersect null-perp), that is when the drift delta(theta) is
    positive; the Type III regime additionally requires theta to be outside
    the cone itself. The null must lie in the cone (ContractViolationError
    otherwise), so sqrt(delta(theta)) is the distance from P_cone theta to
    the null, and that distance is measured directly: a difference of two
    rounded squared norms would put roundoff (about 4e-16, past the 1e-8
    threshold once square-rooted) on a point whose cone projection lies in
    the null.
    """
    theta = check.vector(theta, "theta", check.instance(metric, Metric, "metric").dim)
    _validate_pairing(metric.dim, sub, cone)
    proj = project_cone(theta, cone, metric)
    consistent = metric.norm(proj - project_subspace(proj, sub, metric)) > 1e-8
    outside_cone = metric.norm(theta - proj) > 1e-8
    return ConsistencyCheck(consistent=consistent, type3_risk=consistent and outside_cone)
