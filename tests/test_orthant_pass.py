"""The in-place orthant pass against the reference pass it replaced.

project_orthant_batch, the Monte Carlo face counts and the power chunk's
rejection counts must equal the reference forms in conftest bit for bit:
the same projections, the same counts, and power counts that agree even
where a critical value equals a row's own statistic, so that a one-ulp
change in any statistic would flip a count.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe import studies
from ordersafe.chibar import (
    _MC_CHUNK,
    _seeded_chunks,
    correlation_2x2,
    solve_critical,
    weights_closed_form_2d,
    weights_monte_carlo,
)
from ordersafe.errors import InternalInvariantError, NumericError
from ordersafe.geometry import Metric, _Workspace, _orthant_operators, project_orthant_batch
from ordersafe.studies import PowerScenario, power_grid, run_power_scenario

from conftest import power_chunk_oracle, project_orthant_t_oracle, random_spd


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@st.composite
def _orthant_rows(draw):
    """Rows on and near the faces of the orthant projection under a random
    SPD sigma at p = 1..6, plus plain Gaussian rows, a few rows scaled to
    about 1e200 and sometimes a NaN row; n may be 0.

    A face row is x = theta - sigma mu with theta_S >= 0 and mu_C >= 0 on
    complementary supports, then moved by up to twice 1e-10 (1 + ||x||),
    about the activity tolerance 1e-10 ||x|| at these unit-scale rows,
    either way in a few coordinates of theta and mu, so that its
    certificate lands within +-tol of the boundary.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 6))
    n = draw(st.sampled_from([0, 1, 2, 3, 40, 300]))
    sigma = random_spd(rng, p, 0.1, 10.0)
    rows = []
    for _ in range(n):
        support = rng.random(p) < 0.5
        theta = np.where(support, rng.exponential(size=p), 0.0)
        mu = np.where(support, 0.0, rng.exponential(size=p))
        tol = 1e-10 * (1.0 + np.linalg.norm(theta) + np.linalg.norm(sigma @ mu))
        nudge = rng.random(p) < 0.5
        theta = np.where(nudge & ~support, rng.uniform(-2, 2, p) * tol, theta)
        mu = np.where(nudge & support, rng.uniform(-2, 2, p) * tol, mu)
        rows.append(theta - sigma @ mu)
    pts = np.array(rows).reshape(n, p)
    plain = rng.random(n) < 0.3
    pts[plain] = rng.standard_normal((int(plain.sum()), p)) * 2.0
    huge = rng.random(n) < 0.1
    pts[huge] *= 1e200
    nan_row = n > 0 and draw(st.integers(0, 3)) == 0
    if nan_row:
        pts[rng.integers(n), rng.integers(p)] = np.nan
    return sigma, pts, nan_row


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_orthant_rows())
def test_batch_projection_equals_the_reference_pass(problem):
    sigma, pts, nan_row = problem
    metric = Metric(sigma)
    table = _orthant_operators(metric)
    xt = np.ascontiguousarray(pts.T)
    if nan_row:
        with pytest.raises(NumericError, match="no feasible candidate"):
            project_orthant_t_oracle(xt, table)
        with pytest.raises(NumericError, match="no feasible candidate"):
            project_orthant_batch(pts, metric)
        return
    want = project_orthant_t_oracle(xt, table)[0].T
    got = project_orthant_batch(pts, metric)
    assert got.shape == pts.shape and got.flags.f_contiguous
    assert _bits(got) == _bits(want)


def _mc_counts_oracle(psi, n_draws, seed):
    metric = Metric(psi)
    table = _orthant_operators(metric)
    counts = np.zeros(metric.dim + 1, dtype=np.int64)
    for child, size in _seeded_chunks(seed, n_draws, _MC_CHUNK):
        rng = np.random.default_rng(child)
        xt = metric.chol_lower @ rng.standard_normal((size, metric.dim)).T
        counts += project_orthant_t_oracle(xt, table)[1]
    return counts


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 5_000, _MC_CHUNK, _MC_CHUNK + 1, _MC_CHUNK + 7_001]))
def test_monte_carlo_counts_equal_the_reference_pass(p, seed, n_draws):
    """Counts over whole and partial chunks, under identity and random SPD psi."""
    rng = np.random.default_rng(seed)
    psi = np.eye(p) if seed % 3 == 0 else random_spd(rng, p, 0.05, 20.0)
    got = weights_monte_carlo(psi, n_draws=n_draws, seed=seed % 1000)
    want = _mc_counts_oracle(psi, n_draws, seed % 1000)
    assert got.w.tolist() == (want / float(n_draws)).tolist()


def _power_sigma(rng, kind):
    """Identity, correlation +-0.999 or a random SPD matrix, scaled by 2^-40, 1 or 2^40."""
    if kind == "identity":
        sigma = np.eye(2)
    elif kind == "random":
        sigma = random_spd(rng, 2, 0.1, 10.0)
    else:
        rho = 0.999 if kind == "plus" else -0.999
        sigma = np.array([[1.0, rho], [rho, 1.0]])
    return sigma * 2.0 ** int(rng.choice([-40, 0, 40]))


def _chunk_means(rng, sigma, n, size):
    """(2, size) means drawn as the power harness draws them, with theta on the
    scale of sigma: inside the orthant, outside it, or at the origin."""
    scale = np.sqrt(sigma[0, 0] / n)
    theta = scale * rng.choice([0.0, 1.0, 3.0]) * rng.standard_normal(2)
    chol = Metric(sigma).chol_lower / np.sqrt(n)
    return theta[:, None] + chol @ rng.standard_normal((size, 2)).T


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["identity", "random", "plus", "minus"]),
       st.sampled_from([1, 2, 3, 700, 16_384]),
       st.sampled_from([10, 20, 50]))
def test_power_counts_equal_the_reference_chunk(seed, kind, size, n):
    """Critical values at the reference's own t and t' of sampled rows, one
    ulp above them, and 0 (the value at alpha or gamma near 1): every pair
    gives the reference's counts."""
    rng = np.random.default_rng(seed)
    sigma = _power_sigma(rng, kind)
    metric = Metric(sigma)
    minv, table = metric.inverse(), _orthant_operators(metric)
    xbar = _chunk_means(rng, sigma, n, size)
    _, _, t, t_aux = power_chunk_oracle(xbar, minv, n, table, 0.0, 0.0)
    pairs = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    for j in rng.choice(size, min(size, 12), replace=False):
        pairs += [(t[j], t_aux[j]), (np.nextafter(t[j], np.inf), np.nextafter(t_aux[j], np.inf)),
                  (t[j], 0.0), (0.0, t_aux[j])]
    work = _Workspace(2 * size)
    for c_alpha, c_gamma in pairs:
        c_alpha, c_gamma = float(c_alpha), float(c_gamma)
        want = power_chunk_oracle(xbar, minv, n, table, c_alpha, c_gamma)[:2]
        got = studies._count_rejections(np.ascontiguousarray(xbar), minv, n, table,
                                        c_alpha, c_gamma, work)
        assert got == want, (c_alpha, c_gamma)


def _scenario_counts_oracle(scenario):
    """(plain, composite) counts of run_power_scenario by the reference chunk."""
    sigma = scenario.sigma
    w = weights_closed_form_2d(correlation_2x2(sigma.sigma))
    c_alpha = solve_critical(w, scenario.alpha, "marginal")
    c_gamma = solve_critical(w.complement(), scenario.gamma, "marginal")
    chol = sigma.chol_lower / np.sqrt(scenario.n)
    minv, table = sigma.inverse(), _orthant_operators(sigma)
    n_dt = n_safe = 0
    for child, size in _seeded_chunks(scenario.seed, scenario.replications, studies._POWER_CHUNK):
        rng = np.random.default_rng(child)
        xbar = scenario.theta[:, None] + chol @ rng.standard_normal((size, 2)).T
        dt, safe, _, _ = power_chunk_oracle(xbar, minv, scenario.n, table, c_alpha, c_gamma)
        n_dt, n_safe = n_dt + dt, n_safe + safe
    return n_dt, n_safe


def _counts(result):
    return round(result.power_dt * result.replications), round(result.power_safe * result.replications)


_CHUNK = studies._POWER_CHUNK


@pytest.mark.parametrize("alpha, gamma, replications", [
    # id alpha-gamma, with the replication count after it past three chunks
    pytest.param(alpha, gamma, reps, id=f"{alpha}-{gamma}" + (f"-{reps}" if i else ""))
    for i, reps in enumerate([2 * _CHUNK + 123, 4 * _CHUNK + 123, 9 * _CHUNK - 7])
    for alpha, gamma in [(0.05, 0.05), (0.9, 0.05), (0.05, 0.9), (0.95, 0.99)]])
@pytest.mark.parametrize("rho, scale", [(0.0, 1.0), (0.999, 2.0**-40), (-0.999, 2.0**40)])
def test_scenario_counts_equal_the_reference_chunks(alpha, gamma, replications, rho, scale):
    """Whole scenarios against their chunks counted one by one: three chunks
    (one pass), five (a pass of four and a partial fifth) and nine (passes of
    four, four and a partial ninth), the last chunk partial each time; at
    alpha or gamma near 1 the critical value is 0 and the apex and interior
    shortcuts count."""
    sigma = Metric(scale * np.array([[1.0, rho], [rho, 1.0]]))
    theta = np.sqrt(scale) * np.array([0.2, -0.1])
    scenario = PowerScenario(theta=theta, sigma=sigma, n=20, alpha=alpha, gamma=gamma,
                             replications=replications, seed=5)
    result = run_power_scenario(scenario)
    assert _counts(result) == _scenario_counts_oracle(scenario)
    assert result.power_dt == _scenario_counts_oracle(scenario)[0] / scenario.replications


class TestWorkspaceReuse:
    @pytest.mark.parametrize("order", [("full", "partial", "full"),
                                       ("partial", "full", "partial")])
    def test_one_thread_reuses_its_workspace_across_chunk_sizes(self, order):
        """With one worker the calling thread runs every chunk in one
        workspace; a partial chunk between full ones (and the reverse)
        leaves each scenario's counts as the reference gives them."""
        full, partial = studies._POWER_CHUNK, 5_001
        sizes = {"full": full, "partial": partial}
        scenarios = [
            PowerScenario(theta=np.array([0.1 * i, -0.2]), sigma=Metric(np.eye(2)), n=10,
                          alpha=0.05, gamma=0.1, replications=sizes[kind], seed=40 + i)
            for i, kind in enumerate(order)
        ]
        results = studies._run_scenarios(scenarios, 1)
        for scenario, result in zip(scenarios, results):
            assert _counts(result) == _scenario_counts_oracle(scenario)

    def test_concurrent_grids_equal_sequential_grids(self):
        """Two two-worker grids at once, each from its own thread, with a
        short switch interval so that the four workers interleave."""
        settings = [dict(replications=20_000, seed=seed, gammas=(0.1, 0.01), ns=(10, 50),
                         mean_labels=("theta0", "theta5"), workers=2) for seed in (3, 4)]
        sequential = [power_grid(**kwargs) for kwargs in settings]
        concurrent = [None, None]
        start = threading.Barrier(2, timeout=60)

        def run(i):
            start.wait()
            concurrent[i] = power_grid(**settings[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == sequential


def test_a_workspace_refuses_a_name_past_its_slots():
    """A power pass takes all 16 slots; a 17th name is an internal error,
    not a write into another name's buffer."""
    work = _Workspace(4)
    views = [work.view(f"name{i}", (4,)) for i in range(_Workspace._SLOTS)]
    assert len({v.__array_interface__["data"][0] for v in views}) == 16
    with pytest.raises(InternalInvariantError, match="workspace has no buffer left for 'name16'"):
        work.view("name16", (4,))


def test_chunked_draws_match_plain_draws():
    """The chunk drawn into a workspace is the chunk drawn into fresh arrays."""
    child = next(_seeded_chunks(7, 10, 10))[0]
    work = _Workspace(2 * 10)
    drawn = np.random.default_rng(child).standard_normal(out=work.view("draws", (10, 2)))
    assert drawn.tobytes() == np.random.default_rng(child).standard_normal((10, 2)).tobytes()
