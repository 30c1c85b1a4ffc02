"""Scenario builders and reproduction harnesses for the worked studies.

Covers three study families: the bivariate power comparison of the plain
distance test against the composite safe test over a ring of mean vectors,
the classic negative-mean example where the distance test rejects a
positivity null it should not, and the 2 x 3 contingency-table comparison
of two trinomial samples under a stochastic-order alternative.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chibar import (
    DEFAULT_SEED,
    _seeded_chunks,
    correlation_2x2,
    solve_critical,
    weights_closed_form_2d,
)
from .errors import ContractViolationError, DegenerateVarianceError
from .geometry import ConeSpec, LinearSubspace, Metric, _orthant_operators, _project_orthant_t
from .testing import Statistic, _is_integer

_POWER_CHUNK = 1 << 14

#: Angles (degrees, from the positive horizontal axis) of the six non-null
#: mean settings used by the power study; all lie on the circle of radius 3/4.
MEAN_ANGLES_DEG = {
    "theta1": 45.0,
    "theta2": 15.0,
    "theta3": 0.0,
    "theta4": -15.0,
    "theta5": -45.0,
    "theta6": -60.0,
}

MEAN_RADIUS = 0.75

MEAN_LABELS = ("theta0",) + tuple(MEAN_ANGLES_DEG)


def simulation_means() -> dict[str, np.ndarray]:
    """The seven mean settings: the origin plus six points on the 3/4 circle."""
    means = {"theta0": np.zeros(2)}
    for label, deg in MEAN_ANGLES_DEG.items():
        rad = np.radians(deg)
        means[label] = MEAN_RADIUS * np.array([np.cos(rad), np.sin(rad)])
    return means


def _check_count(name, value, least):
    if not _is_integer(value) or value < least:
        raise ContractViolationError(
            f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class PowerScenario:
    """One cell of the power study: a mean, a covariance, and run settings."""

    theta: np.ndarray
    sigma: Metric
    n: int
    alpha: float
    gamma: float
    replications: int
    seed: int

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (2,):
            raise ContractViolationError("theta must be a 2-vector")
        if self.sigma.dim != 2:
            raise ContractViolationError("sigma must be 2 x 2")
        for name, least in (("n", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        if not (0 < self.alpha < 1 and 0 < self.gamma < 1):
            raise ContractViolationError("alpha and gamma must lie in (0, 1)")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class PowerResult:
    """Rejection frequencies of the two tests with a binomial standard error.

    se is the larger of the two binomial standard errors, zero when the
    replication count does not support an estimate.
    """

    power_dt: float
    power_safe: float
    se: float
    replications: int
    seed: int


def run_power_scenario(scenario: PowerScenario, workers: int = 1) -> PowerResult:
    """Estimate rejection frequencies of the plain and composite tests.

    Each replication observes the mean of n Gaussian draws, here sampled
    directly from its exact law N(theta, sigma/n). The plain test rejects
    when the projection statistic reaches its mixture critical value; the
    composite additionally requires the certificate, i.e. the residual
    statistic staying below the auxiliary critical value. Replications are
    generated in fixed-size chunks with seeds spawned deterministically from
    the scenario seed and counts merged in chunk order, so results are
    identical for any worker count. This is the one-scenario case of the
    pass power_grid makes over the whole grid.
    """
    return _run_scenarios([scenario], workers)[0]


def _run_scenarios(scenarios, workers) -> list[PowerResult]:
    """All chunks of all scenarios through one pool; one result per scenario.

    Critical values are solved once per distinct pair of mixture weights and
    level, and the orthant projector's operator table is built once per
    scenario. Each chunk works coordinate-major on (2, size) arrays.
    """
    workers = _check_count("workers", workers, 1)
    critical = {}

    def critical_value(weights, level):
        key = (tuple(weights.w), level)
        if key not in critical:
            critical[key] = solve_critical(weights, level, "marginal")
        return critical[key]

    plans, jobs = [], []
    for index, scenario in enumerate(scenarios):
        w = weights_closed_form_2d(correlation_2x2(scenario.sigma.sigma))
        plans.append((
            scenario,
            scenario.sigma.chol_lower / np.sqrt(scenario.n),
            scenario.sigma.inverse(),
            _orthant_operators(scenario.sigma),
            critical_value(w, scenario.alpha),
            critical_value(w.complement(), scenario.gamma),
        ))
        jobs += [(index, child, size) for child, size
                 in _seeded_chunks(scenario.seed, scenario.replications, _POWER_CHUNK)]

    def one_chunk(job):
        index, child, size = job
        scenario, chol, minv, table, c_alpha, c_gamma = plans[index]
        rng = np.random.default_rng(child)
        xbar = scenario.theta[:, None] + chol @ rng.standard_normal((size, 2)).T
        proj = _project_orthant_t(xbar, table)[0]
        diff = xbar - proj
        t = scenario.n * (proj * (minv @ proj)).sum(axis=0)
        t_aux = scenario.n * (diff * (minv @ diff)).sum(axis=0)
        reject_dt = t >= c_alpha
        return index, int(reject_dt.sum()), int((reject_dt & (t_aux < c_gamma)).sum())

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(one_chunk, jobs))
    else:
        counts = [one_chunk(job) for job in jobs]
    n_dt, n_safe = [0] * len(plans), [0] * len(plans)
    for index, dt, safe in counts:
        n_dt[index] += dt
        n_safe[index] += safe

    results = []
    for scenario, dt, safe in zip(scenarios, n_dt, n_safe):
        reps = scenario.replications
        p_dt = dt / reps
        p_safe = safe / reps
        if reps > 1:
            se = max(np.sqrt(p * (1.0 - p) / reps) for p in (p_dt, p_safe))
        else:
            se = 0.0
        results.append(PowerResult(power_dt=p_dt, power_safe=p_safe, se=float(se),
                                   replications=reps, seed=scenario.seed))
    return results


def power_grid(replications: int = 100_000, seed: int = DEFAULT_SEED,
               alpha: float = 0.05, gammas=(0.1, 0.05, 0.01), ns=(10, 20, 50),
               mean_labels=MEAN_LABELS, workers: int = 1) -> list[dict]:
    """Run the full power study grid and return one row per cell.

    Cell seeds are the 64-bit states generated from the root seed, so the
    grid is reproducible as a whole while cells stay independent. The
    critical values are solved once: c_alpha for the grid and c_gamma per
    gamma. The chunks of every cell go through one pool of the given number
    of worker threads, and each cell's counts are merged in chunk order, so
    the rows equal those of run_power_scenario cell by cell at any worker
    count.
    """
    seed = _check_count("seed", seed, 0)
    means = simulation_means()
    labels = list(mean_labels)
    cells = [(lab, g, n) for lab in labels for g in gammas for n in ns]
    cell_seeds = np.random.SeedSequence(seed).generate_state(len(cells), np.uint64)
    sigma = Metric(np.eye(2))
    scenarios = [
        PowerScenario(theta=means[label], sigma=sigma, n=n, alpha=alpha, gamma=gamma,
                      replications=replications, seed=int(cell_seed))
        for (label, gamma, n), cell_seed in zip(cells, cell_seeds)
    ]
    results = _run_scenarios(scenarios, workers)
    return [
        {"mean_label": label, "gamma": gamma, "n": n,
         "power_dt": result.power_dt, "power_safe": result.power_safe,
         "se": result.se, "replications": result.replications, "seed": result.seed}
        for (label, gamma, n), result in zip(cells, results)
    ]


@dataclass(frozen=True)
class ContingencyTable2xK:
    """Counts of a control row and a treatment row over ordered categories."""

    control: tuple[int, ...]
    treatment: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, control, treatment, labels=None):
        control, treatment = tuple(control), tuple(treatment)
        if not all(_is_integer(c) for c in control + treatment):
            raise ContractViolationError("counts must be integers")
        control = tuple(int(c) for c in control)
        treatment = tuple(int(c) for c in treatment)
        if len(control) != len(treatment) or len(control) < 2:
            raise ContractViolationError("rows must share a length of at least 2")
        if any(c < 0 for c in control + treatment):
            raise ContractViolationError("counts must be nonnegative")
        if sum(control + treatment) > 2**53:
            raise ContractViolationError("the total count must not exceed 2**53")
        if labels is None:
            labels = tuple(f"cat{i + 1}" for i in range(len(control)))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(control):
                raise ContractViolationError("labels must match the number of categories")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return len(self.control)


def doubled_table(table: ContingencyTable2xK) -> ContingencyTable2xK:
    """Every cell count multiplied by two; proportions are unchanged."""
    return ContingencyTable2xK(
        control=tuple(2 * c for c in table.control),
        treatment=tuple(2 * c for c in table.treatment),
        labels=table.labels,
    )


@dataclass(frozen=True)
class StochasticOrderProblem:
    """The cumulative-proportion reduction of a 2 x K ordered-category table.

    theta_hat stacks the first K-1 cumulative proportions of each row,
    restriction maps them to the pairwise differences w_n whose
    nonnegativity expresses the stochastic ordering, and sigma_n is the
    pooled-null covariance estimate scaled to the total count n.
    """

    theta_hat: np.ndarray
    restriction: np.ndarray
    sigma_n: Metric
    n: int
    w_n: np.ndarray

    def statistic(self) -> Statistic:
        return Statistic(s_n=self.theta_hat, sigma_n=self.sigma_n, n=self.n)

    def cone(self) -> ConeSpec:
        return ConeSpec.polyhedral(self.restriction)

    def subspace(self) -> LinearSubspace:
        return LinearSubspace.from_constraint(self.restriction)

    @property
    def v_n(self) -> np.ndarray:
        """Covariance of w_n on the root-n scale: R sigma_n R'."""
        return self.restriction @ self.sigma_n.sigma @ self.restriction.T


def build_stochastic_order(table: ContingencyTable2xK) -> StochasticOrderProblem:
    """Reduce a 2 x K table to the cumulative-difference testing problem.

    The parameter is theta = (control cumulatives, treatment cumulatives)
    over the first K-1 categories, estimated by maximum likelihood cell
    proportions. The covariance of each block is estimated under the pooled
    null (both rows share one distribution) and scaled by n over the row
    total; the equality null is then theta in ker(R) and the ordered
    alternative is R theta >= 0 with R = [I, -I].
    """
    k = table.k
    n1, n2 = sum(table.control), sum(table.treatment)
    if n1 < 1 or n2 < 1:
        raise ContractViolationError("each row needs at least one observation")
    n = n1 + n2
    control = np.asarray(table.control, dtype=float)
    treatment = np.asarray(table.treatment, dtype=float)
    p_cum = np.cumsum(control / n1)[: k - 1]
    q_cum = np.cumsum(treatment / n2)[: k - 1]
    theta_hat = np.concatenate([p_cum, q_cum])

    pooled_cum = np.cumsum((control + treatment) / n)[: k - 1]
    if np.any(pooled_cum <= 0.0) or np.any(pooled_cum >= 1.0):
        raise DegenerateVarianceError(
            "a pooled cumulative proportion is 0 or 1; the null covariance "
            "estimate is degenerate"
        )
    # cumulative multinomial covariance: cov(c_i, c_j) = c_min (1 - c_max)
    low = np.minimum.outer(pooled_cum, pooled_cum)
    high = np.maximum.outer(pooled_cum, pooled_cum)
    sigma0 = low * (1.0 - high)

    sigma_n = np.zeros((2 * (k - 1), 2 * (k - 1)))
    sigma_n[: k - 1, : k - 1] = (n / n1) * sigma0
    sigma_n[k - 1 :, k - 1 :] = (n / n2) * sigma0
    restriction = np.hstack([np.eye(k - 1), -np.eye(k - 1)])
    w_n = restriction @ theta_hat
    return StochasticOrderProblem(
        theta_hat=theta_hat, restriction=restriction,
        sigma_n=Metric(sigma_n), n=n, w_n=w_n,
    )


#: The two published 2 x 3 tables compared throughout the case studies.
CS_TABLE5 = ContingencyTable2xK(
    control=(5, 11, 1), treatment=(3, 8, 4), labels=("Worse", "Same", "Better")
)
CS_TABLE6 = ContingencyTable2xK(
    control=(0, 16, 1), treatment=(8, 3, 4), labels=("Worse", "Same", "Better")
)


def silvapulle_case() -> tuple[Statistic, dict]:
    """The negative-mean positivity example with its reference anchor values.

    Five bivariate observations with mean (-3, -2) under an interclass
    correlation 0.9 covariance, tested for a positive-orthant alternative.
    The anchors record the statistic, the 5% critical value of the mixture,
    and bounds on the two p-values.
    """
    sigma = Metric(np.array([[1.0, 0.9], [0.9, 1.0]]))
    stat = Statistic(s_n=np.array([-3.0, -2.0]), sigma_n=sigma, n=5)
    anchors = {
        "t_n": 12.89,
        "t_n_tol": 0.01,
        "c_alpha_05": 4.915,
        "c_alpha_05_tol": 0.001,
        "alpha_star_below": 0.001,
        "gamma_star_below": 1e-6,
    }
    return stat, anchors
