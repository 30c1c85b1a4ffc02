"""Scenario builders and reproduction harnesses for the worked studies.

Covers three study families: the bivariate power comparison of the plain
distance test against the composite safe test over a ring of mean vectors,
the classic negative-mean example where the distance test rejects a
positivity null it should not, and the 2 x 3 contingency-table comparison
of two trinomial samples under a stochastic-order alternative.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import _arguments as check
from .chibar import DEFAULT_SEED, _seeded_chunks, orthant_weights, solve_critical
from .errors import ContractViolationError, DegenerateVarianceError, InternalInvariantError
from .geometry import (ConeSpec, LinearSubspace, Metric, _Workspace, _orthant_blocks,
                       _orthant_operators)
from .testing import Statistic

_POWER_CHUNK = 1 << 14
_POWER_PASS = 1 << 16  # the widest counting pass: four chunks (see _run_scenarios)

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
        theta = check.vector(self.theta, "theta", 2)
        if check.instance(self.sigma, Metric, "sigma").dim != 2:
            raise ContractViolationError("sigma must be 2 x 2")
        object.__setattr__(self, "n", check.sample_size(self.n))
        for name, least in (("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, check.integer(getattr(self, name), least, name))
        for name in ("alpha", "gamma"):
            object.__setattr__(self, name, check.level(getattr(self, name), name))
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
    when the projection statistic reaches its critical value off the apex,
    and the composite when the certificate is also issued; _count_rejections
    states both rules with their atoms. Replications are
    generated in fixed-size chunks with seeds spawned deterministically from
    the scenario seed, counted in passes of up to four consecutive chunks
    (see _run_scenarios), and the integer counts are summed, so results are
    identical for any worker count. This is the one-scenario case of the
    pool power_grid runs over the whole grid.
    """
    return _run_scenarios([check.instance(scenario, PowerScenario, "scenario")], workers)[0]


def _run_scenarios(scenarios, workers) -> list[PowerResult]:
    """All passes of all scenarios through one pool; one result per scenario.

    The scenarios share one metric (a mix is an internal error): its weights,
    sigma^-1 and orthant operator table are made once, with one critical
    value per distinct alpha and per distinct gamma. A job is a pass: up to
    four consecutive chunks of one scenario, each drawn from its own seeded
    stream into its own columns, then one _count_rejections call. Over one
    chunk the count's numpy calls are too short for a second thread to run
    beside them; over four they overlap. Each thread that runs passes gets
    one workspace for the call, sized for the widest pass.
    """
    workers = check.integer(workers, 1, "workers")
    if not scenarios:
        return []
    metric = scenarios[0].sigma
    if any(not np.array_equal(s.sigma.sigma, metric.sigma) for s in scenarios):
        raise InternalInvariantError("the scenarios of one power pass mix metrics")
    w = orthant_weights(metric.sigma)
    minv, table = metric.inverse(), _orthant_operators(metric)
    polar = w.complement()
    c_alpha = {a: solve_critical(w, a, "marginal") for a in {s.alpha for s in scenarios}}
    c_gamma = {g: solve_critical(polar, g, "marginal") for g in {s.gamma for s in scenarios}}
    step, jobs = _POWER_PASS // _POWER_CHUNK, []
    for index, scenario in enumerate(scenarios):
        chunks = list(_seeded_chunks(scenario.seed, scenario.replications, _POWER_CHUNK))
        jobs += [(index, chunks[i:i + step]) for i in range(0, len(chunks), step)]
    capacity = 2 * min(_POWER_PASS, max(s.replications for s in scenarios))
    local = threading.local()

    def one_pass(job):
        index, run = job
        scenario = scenarios[index]
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = _Workspace(capacity)
        width = sum(size for _, size in run)
        draws = work.view("draws", (width, 2))
        xbar = work.view("points", (2, width))
        chol = metric.chol_lower / np.sqrt(scenario.n)
        lo = 0
        for child, size in run:
            hi = lo + size
            np.random.default_rng(child).standard_normal(out=draws[lo:hi])
            np.matmul(chol, draws[lo:hi].T, out=xbar[:, lo:hi])
            lo = hi
        xbar += scenario.theta[:, None]
        return (index,) + _count_rejections(xbar, minv, scenario.n, table,
                                            c_alpha[scenario.alpha], c_gamma[scenario.gamma],
                                            work)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(one_pass, jobs))
    else:
        counts = [one_pass(job) for job in jobs]
    n_dt, n_safe = [0] * len(scenarios), [0] * len(scenarios)
    for index, dt, safe in counts:
        n_dt[index] += dt
        n_safe[index] += safe

    results = []
    for scenario, dt, safe in zip(scenarios, n_dt, n_safe):
        reps = scenario.replications
        p_dt, p_safe = dt / reps, safe / reps
        se = max(np.sqrt(p * (1.0 - p) / reps) for p in (p_dt, p_safe)) if reps > 1 else 0.0
        results.append(PowerResult(power_dt=p_dt, power_safe=p_safe, se=float(se),
                                   replications=reps, seed=scenario.seed))
    return results


def _count_rejections(xbar, minv, n, table, c_alpha, c_gamma, work) -> tuple[int, int]:
    """(plain, composite) rejection counts over the columns of a (2, size)
    array of means, from the projector's blocks in the workspace.

    The harness passes a run of up to four chunks, so the 60 or so numpy
    calls here are paid once per run, and each column is decided on its own.
    So a pass counts what its chunks would, bit for bit under the grid's
    identity metric. Under another metric a column that was a chunk's only
    one, or its last open one at a support, is rounded by gemv there and by
    gemm in the pass, which moves a count only at a tie within an ulp.
    t = n theta' M theta and t' = n r' M r with r = x - theta, M = sigma^{-1},
    are rounded as over the whole pass at once. The atoms follow the p-value
    rule of TestResult.reject: the apex (theta = 0, t = 0, alpha* = 1) never
    rejects and the full support (r = 0, t' = 0, gamma* = 1) always
    certifies. Elsewhere t >= c_alpha rejects and t' < c'_gamma certifies,
    which agrees with the p-value except where a tail lies within 1e-10 of
    its level, a band a continuous draw hits with probability of order 1e-9.
    The counts do not depend on the order of the rows.
    """
    size = xbar.shape[1]

    def statistic(v):
        # n (v * (M @ v)).sum(axis=0) per column; numpy multiplies a lone
        # column by gemv and several by gemm, so a lone column of a wider
        # pass goes through gemm beside a zero column. Not dead code: at
        # p = 2 gemv and gemm differ in the last bit for about half of random
        # (M, v) on OpenBLAS, and without the pad the counts leave those of
        # the reference chunk (test_power_counts_equal_the_reference_chunk)
        h = v.shape[1]
        if h == 1 < size:
            v = np.concatenate((v, np.zeros_like(v)), axis=1)
        mv = np.matmul(minv, v, out=work.view("mv", v.shape))
        mv *= v
        t = mv.sum(axis=0, out=work.view("t", (v.shape[1],)))
        t *= n
        return t[:h]

    n_dt = n_safe = 0
    for x, theta, face, _ in _orthant_blocks(xbar, table, work):
        if face == 0:
            continue
        reject = np.greater_equal(statistic(theta), c_alpha,
                                  out=work.view("reject", (theta.shape[1],), bool))
        dt = int(np.count_nonzero(reject))
        n_dt += dt
        if face == 2:
            n_safe += dt
            continue
        resid = np.subtract(x, theta, out=work.view("resid", x.shape))
        accept = np.less(statistic(resid), c_gamma,
                         out=work.view("accept", (x.shape[1],), bool))
        n_safe += int(np.count_nonzero(np.logical_and(reject, accept, out=accept)))
    return n_dt, n_safe


def power_grid(replications: int = 100_000, seed: int = DEFAULT_SEED,
               alpha: float = 0.05, gammas=(0.1, 0.05, 0.01), ns=(10, 20, 50),
               mean_labels=MEAN_LABELS, workers: int = 1) -> list[dict]:
    """Run the full power study grid and return one row per cell.

    Cell seeds are the 64-bit states generated from the root seed, so the
    grid is reproducible as a whole while cells stay independent. The
    critical values are solved once: c_alpha for the grid and c_gamma per
    gamma. The passes of every cell go through one pool of the given number
    of worker threads, and each cell's counts are summed, so the rows equal
    those of run_power_scenario cell by cell at any worker count.
    """
    seed = check.integer(seed, 0, "seed")
    means = simulation_means()
    labels = [check.choice(label, means, "mean label")
              for label in check.items(mean_labels, "mean_labels")]
    gammas, ns = check.items(gammas, "gammas"), check.items(ns, "ns")
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
        control = tuple(check.integer(c, 0, "counts", "nonnegative integers")
                        for c in check.items(control, "control"))
        treatment = tuple(check.integer(c, 0, "counts", "nonnegative integers")
                          for c in check.items(treatment, "treatment"))
        if len(control) != len(treatment) or len(control) < 2:
            raise ContractViolationError("rows must share a length of at least 2")
        if sum(control + treatment) > 2**53:
            raise ContractViolationError("the total count must not exceed 2**53")
        if labels is None:
            labels = tuple(f"cat{i + 1}" for i in range(len(control)))
        else:
            labels = tuple(str(s) for s in check.items(labels, "labels"))
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
    check.instance(table, ContingencyTable2xK, "table")
    return ContingencyTable2xK(
        control=tuple(2 * c for c in table.control),
        treatment=tuple(2 * c for c in table.treatment),
        labels=table.labels,
    )


@dataclass(frozen=True)
class StochasticOrderProblem:
    """The cumulative-proportion reduction of a 2 x K ordered-category table.

    theta_hat stacks the first K-1 cumulative proportions of each row,
    restriction maps them to the pairwise differences whose nonnegativity
    expresses the stochastic ordering, and sigma_n is the pooled-null
    covariance estimate scaled to the total count n.
    """

    theta_hat: np.ndarray
    restriction: np.ndarray
    sigma_n: Metric
    n: int

    def statistic(self) -> Statistic:
        return Statistic(s_n=self.theta_hat, sigma_n=self.sigma_n, n=self.n)

    def cone(self) -> ConeSpec:
        return ConeSpec(self.restriction)

    def subspace(self) -> LinearSubspace:
        return LinearSubspace.from_constraint(self.restriction)


def build_stochastic_order(table: ContingencyTable2xK) -> StochasticOrderProblem:
    """Reduce a 2 x K table to the cumulative-difference testing problem.

    The parameter is theta = (control cumulatives, treatment cumulatives)
    over the first K-1 categories, estimated by maximum likelihood cell
    proportions. The covariance of each block is estimated under the pooled
    null (both rows share one distribution) and scaled by n over the row
    total; the equality null is then theta in ker(R) and the ordered
    alternative is R theta >= 0 with R = [I, -I].
    """
    k = check.instance(table, ContingencyTable2xK, "table").k
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
    return StochasticOrderProblem(
        theta_hat=theta_hat, restriction=restriction, sigma_n=Metric(sigma_n), n=n,
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
