"""Distance tests, their p-values, and the composite safe test.

Two problem types are supported. Type A tests the null L = ker R against
the cone C = {theta : R theta >= 0} ("testing for an order"); type B tests
C against its complement ("testing against an order"). The composite safe
test couples the type A test at level alpha with a type B certificate
pre-test at level gamma, so the null is rejected only when the data are
also compatible with the cone, protecting against rejections in directions
outside both hypotheses (Type III errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _arguments as check
from .chibar import (
    DEFAULT_MC_DRAWS,
    DEFAULT_SEED,
    ChiBarWeights,
    attained_level,
    mixture_upper_tail,
    orthant_weights,
    solve_critical,
)
from .errors import ContractViolationError, InternalInvariantError, NumericError
from .geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    _column_norms,
    _dual_active_set,
    project_cone,
    project_subspace,
)


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
        object.__setattr__(self, "s_n", s)
        object.__setattr__(self, "n", check.sample_size(self.n))
        object.__setattr__(self, "_cone_memo", None)

    @property
    def dim(self) -> int:
        return self.s_n.shape[0]


@dataclass(frozen=True)
class WeightConfig:
    """The Monte Carlo settings of resolve_weights, used only where
    chibar.orthant_weights, which states the weight rule, runs Monte Carlo."""

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
    """R, once the null is ker R: the one pairing rule of type A, for which
    alone the chi-bar law holds (dt_type_a and resolve_weights)."""
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
    # R has full row rank, so a subspace of ker R with its dimension is ker R
    if sub.dim != dim - r.shape[0]:
        raise ContractViolationError(
            "the null subspace must be the kernel of the restriction matrix "
            f"(dim {dim - r.shape[0]}, got {sub.dim})"
        )
    return r


def resolve_weights(stat: Statistic, sub: LinearSubspace, cone: ConeSpec,
                    cfg: WeightConfig = WeightConfig()) -> ChiBarWeights:
    """Mixture weights of the orthant-reduced problem, Psi = R Sigma R', by
    chibar.orthant_weights under the given config."""
    check.instance(stat, Statistic, "stat")
    check.instance(cfg, WeightConfig, "cfg")
    r = _validate_pairing(stat.dim, sub, cone)
    return orthant_weights(r @ stat.sigma_n.sigma @ r.T, cfg.n_draws, cfg.seed)


def dt_type_a(stat: Statistic, sub: LinearSubspace, cone: ConeSpec) -> float:
    """Distance test for a subspace null against a cone alternative.

    The null must be the kernel of the cone's R (ContractViolationError
    otherwise). n times the drop in squared metric distance when the null
    set is enlarged to the cone; nonnegative by construction and clamped at
    zero against roundoff. The distance to the cone comes from the Statistic's
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


def _clamped_drop(drop: float, x, metric: Metric, n: int) -> float:
    """max(drop, 0) for drop = n (dist^2(x, null) - dist^2(x, alt)), which
    exact arithmetic keeps nonnegative. Both sets hold 0, so both distances
    and their roundoff scale with s = 1 + n ||x||^2: a drop below -1e-10 s
    is a breach. Within u cond(Sigma) s, for unit roundoff u, it is the
    roundoff of an ill-conditioned Sigma and raises NumericError; beyond, it
    raises InternalInvariantError. s and cond(Sigma) are computed only then."""
    if drop < -1e-10:
        scale = 1.0 + n * metric.norm_sq(x)
        if drop < -1e-10 * scale:
            cond = np.linalg.cond(metric.sigma)
            if drop >= -np.finfo(float).eps * cond * scale:
                raise NumericError(f"distance drop is negative ({drop:.3g}) within the "
                                   f"roundoff of an ill-conditioned sigma, cond {cond:.3g}")
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


def _base_tests(stat: Statistic, sub: LinearSubspace, cone: ConeSpec, alpha: float,
                gamma: float, weight_cfg: WeightConfig) -> tuple[TestResult, TestResult]:
    """The two base tests of safe_test, and all that the dt command reports:
    the type A test of t at alpha and the type B pre-test of t' at gamma,
    each with its p-value and marginal critical value."""
    check.instance(stat, Statistic, "stat")
    alpha, gamma = check.level(alpha, "alpha"), check.level(gamma, "gamma")
    weights = resolve_weights(stat, sub, cone, weight_cfg)
    polar = weights.complement()
    t, t_aux = dt_type_a(stat, sub, cone), dt_type_b(stat, cone)
    return (TestResult(t, mixture_upper_tail(weights, t),
                       solve_critical(weights, alpha, "marginal"), weights, alpha),
            TestResult(t_aux, mixture_upper_tail(polar, t_aux),
                       solve_critical(polar, gamma, "marginal"), polar, gamma))


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

    The composite region is {t >= c_alpha, t' < c'_gamma}, where the apex
    (t = 0) never rejects and t' = 0 always certifies; alpha_safe is its
    level, chibar.attained_level(weights, c_alpha, c'_gamma).
    """
    original, auxiliary = _base_tests(stat, sub, cone, alpha, gamma, weight_cfg)
    weights, alpha = original.weights_used, original.alpha
    c_alpha, c_gamma = original.critical_value, auxiliary.critical_value
    c_alpha_safe = solve_critical(weights, alpha, "joint", c2=c_gamma)
    alpha_safe = attained_level(weights, c_alpha, c_gamma)
    d1, d2 = int(not auxiliary.reject), int(original.reject)
    t_safe = original.statistic if d1 else 0.0
    conclusion = _CONCLUSION_BY_DECISION[(d1, d2)]
    if conclusion is Conclusion.SAFE_REJECT and attained_level(weights, t_safe, c_gamma) > alpha:
        raise InternalInvariantError(
            "safe rejection reported but the gated statistic's joint tail "
            f"exceeds alpha ({t_safe} against c'_gamma = {c_gamma})"
        )
    return SafeOutcome(
        original=original, auxiliary=auxiliary, d1=d1, d2=d2,
        conclusion=conclusion, alpha_safe=alpha_safe,
        c_alpha_safe=c_alpha_safe, t_safe=t_safe,
    )


def _checked(theta, cone, metric):
    """theta as a float vector and the R of cone, checked against metric."""
    theta = check.vector(theta, "theta", check.instance(metric, Metric, "metric").dim)
    r = check.instance(cone, ConeSpec, "cone").as_polyhedral()
    if r.shape[1] != metric.dim:
        raise ContractViolationError("cone and metric dimensions disagree")
    return theta, r


def _type_a_drift(r, proj, lam, g):
    y = r @ proj
    y[lam > 0] = 0.0
    return g.norm_sq(y)


def delta(theta, cone: ConeSpec, metric: Metric, problem: str) -> float:
    """Population drift at theta of the type A or type B distance test (the
    problem word of p_value): the statistic grows like n times it, and
    consistency_region reads it. From one projection P_C theta with KKT
    multipliers lam: type B is ||theta - P_C theta||^2; type A is
    d(P_C theta, ker R)^2 = y' G^-1 y with y = R P_C theta, G = R sigma R',
    and y exactly 0 on the rows where lam > 0 (complementarity)."""
    theta, r = _checked(theta, cone, metric)
    problem = check.choice(problem, ("type_a", "type_b"), "problem kind")
    proj, lam = _dual_active_set(theta, r, metric)
    if problem == "type_b":
        return metric.norm_sq(theta - proj)
    return _type_a_drift(r, proj, lam, Metric(r @ metric.sigma @ r.T))


@dataclass(frozen=True)
class ConsistencyCheck:
    """Whether the type A test separates at theta, and how.

    consistent means rejection probability tends to one; type3_risk means
    that happens although theta is outside the cone, so rejecting would
    endorse an alternative that does not hold.
    """

    consistent: bool
    type3_risk: bool


def consistency_region(theta, cone: ConeSpec, metric: Metric) -> ConsistencyCheck:
    """Classify theta by its type A drift, and its type B drift for the Type
    III regime, each positive past (1e-8)^2 s. s = (R theta)' G^-1 (R theta),
    G = R sigma R', is theta's own squared distance from ker R: it scales
    with theta as both drifts do and, like them, ignores shifts along ker R.
    Both drifts and s come from one projection and one factorization of G.

    theta is on ker R, so not consistent, where every |(R theta)_i| is at
    most 8 (m + 1) u ||r_i|| ||theta||, u = 2^-53, m = len(theta) and r_i
    row i of R: (m + 1) u ||r_i|| ||theta|| bounds, to first order, R theta
    for a kernel vector rounded to doubles and multiplied out in m-term
    sums, and an SVD kernel vector's R theta reached 3.5 times it over
    270,000 random R, m = 2..10, columns scaled by up to 10^+-6."""
    theta, r = _checked(theta, cone, metric)
    proj, lam = _dual_active_set(theta, r, metric)
    g = Metric(r @ metric.sigma @ r.T)
    r_theta = r @ theta
    # the norms of R's rows and of theta, without overflow at any finite scale
    norms = _column_norms(np.column_stack([r.T, theta]), np.empty(r.shape[0] + 1))
    on_null = (abs(r_theta) <= 8 * (theta.size + 1) * 2.0**-53 * norms[-1] * norms[:-1]).all()
    floor = 1e-8 ** 2 * g.norm_sq(r_theta)
    consistent = not on_null and _type_a_drift(r, proj, lam, g) > floor
    type3_risk = consistent and metric.norm_sq(theta - proj) > floor
    return ConsistencyCheck(consistent=consistent, type3_risk=type3_risk)
