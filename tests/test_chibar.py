import json
import math
import os
import subprocess
import sys
import threading
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe import chibar
from ordersafe.chibar import (
    EXACT_MAX_DIM,
    ChiBarWeights,
    _orthant_probabilities,
    attained_level,
    correlation_2x2,
    joint_tail,
    mixture_upper_tail,
    orthant_weights,
    solve_critical,
    weights_closed_form_2d,
    weights_exact,
    weights_monte_carlo,
)
from ordersafe.errors import (
    CapabilityError,
    ContractViolationError,
    InfeasibleLevelError,
    NotPositiveDefiniteError,
    NumericError,
)
from ordersafe.geometry import ConeSpec

from conftest import (
    PARITY_PSI,
    ROUNDOFF_CASES,
    chi2_cdf,
    mixture_lower_tail,
    mp_chi2_sf,
    orthant_probabilities_oracle,
    random_spd,
    safe_level_2d,
    weights_exact_oracle,
)

QUADRANT = weights_closed_form_2d(0.0)


class TestClosedFormWeights:
    def test_independent_case_is_quarter_half_quarter(self):
        np.testing.assert_allclose(QUADRANT.w, [0.25, 0.5, 0.25], atol=1e-15)

    def test_interclass_09(self):
        w = weights_closed_form_2d(0.9)
        assert w.w[2] == pytest.approx(0.5 - np.arccos(0.9) / (2 * np.pi), abs=1e-15)
        assert w.w[2] == pytest.approx(0.4282, abs=5e-5)
        # the 5% critical value of this mixture is the documented 4.915
        assert solve_critical(w, 0.05) == pytest.approx(4.915, abs=1e-3)

    def test_perfect_correlation_limit(self):
        w = weights_closed_form_2d(1.0 - 1e-12)
        np.testing.assert_allclose(w.w, [0.0, 0.5, 0.5], atol=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            weights_closed_form_2d(1.0)

    def test_weights_normalized_and_nonnegative(self, rng):
        for _ in range(25):
            w = weights_closed_form_2d(rng.uniform(-0.99, 0.99))
            assert np.all(w.w >= 0)
            assert w.w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**1023, 2.0**-565, 2.0**-1020])
    def test_correlation_is_scale_free(self, scale):
        """psi_00 psi_11 would leave double range; the correlation must not."""
        psi = np.array([[1.0, 0.9], [0.9, 0.5]])
        assert correlation_2x2(scale * psi) == correlation_2x2(psi)

    def test_complement_reverses(self):
        w = weights_closed_form_2d(0.3)
        np.testing.assert_allclose(w.complement().w, w.w[::-1])
        np.testing.assert_allclose(w.complement().complement().w, w.w)


class TestMonteCarloWeights:
    @pytest.mark.parametrize("setting", [{"n_draws": True}, {"n_draws": 2.5},
                                         {"seed": True}, {"seed": 1.5}])
    def test_sizes_and_seeds_must_be_integers(self, setting):
        with pytest.raises(ContractViolationError):
            weights_monte_carlo(np.eye(2), **{"n_draws": 100, **setting})

    def test_numpy_integers_are_accepted(self):
        w = weights_monte_carlo(np.eye(2), n_draws=np.int64(100), seed=np.int64(3))
        assert np.array_equal(w.w, weights_monte_carlo(np.eye(2), n_draws=100, seed=3).w)

    def test_identity_2d(self):
        w = weights_monte_carlo(np.eye(2), n_draws=200_000, seed=7)
        np.testing.assert_allclose(w.w, [0.25, 0.5, 0.25], atol=0.005)
        assert w.w.sum() == pytest.approx(1.0, abs=0.0)  # counts / N is exact

    def test_matches_closed_form_under_correlation(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        w = weights_monte_carlo(sigma, n_draws=200_000, seed=11)
        expected = weights_closed_form_2d(0.9)
        np.testing.assert_allclose(w.w, expected.w, atol=0.005)

    def test_one_dimensional_symmetry(self):
        w = weights_monte_carlo(np.eye(1), n_draws=100_000, seed=3)
        np.testing.assert_allclose(w.w, [0.5, 0.5], atol=0.006)

    def test_deterministic_given_seed(self):
        a = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=42)
        b = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=42)
        np.testing.assert_array_equal(a.w, b.w)
        c = weights_monte_carlo(np.eye(2), n_draws=70_000, seed=43)
        assert not np.array_equal(a.w, c.w)

    @pytest.mark.parametrize("p, counts", [
        (3, (10035, 18419, 9926, 1620)),
        (5, (6664, 15174, 12627, 4663, 827, 45)),
        (9, (4062, 11227, 12872, 8101, 2961, 665, 98, 14, 0, 0)),
        (7, (5026, 12921, 13059, 6747, 1926, 297, 23, 1)),
    ])
    def test_pinned_face_counts(self, p, counts):
        """Seeded face counts on simple-order R R' are fixed to the bit."""
        r = ConeSpec.simple_order(p + 1).as_polyhedral()
        w = weights_monte_carlo(r @ r.T, n_draws=40_000, seed=11)
        assert w.w.tolist() == [c / 40_000 for c in counts]

    @pytest.mark.parametrize("p, counts", [
        (3, (5019, 14963, 15049, 4969)),
        (5, (1283, 6183, 12497, 12428, 6328, 1281)),
        (7, (308, 2242, 6407, 10928, 10968, 6592, 2214, 341)),
        (9, (77, 692, 2841, 6534, 9759, 9821, 6658, 2881, 652, 85)),
    ])
    def test_pinned_identity_face_counts(self, p, counts):
        """Seeded face counts under an identity psi are fixed to the bit,
        the values of the least-objective projector this one replaced."""
        w = weights_monte_carlo(np.eye(p), n_draws=40_000, seed=11)
        assert w.w.tolist() == [c / 40_000 for c in counts]

    @pytest.mark.parametrize("scale", [2.0**1000, 1e308])
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("order", ["identity", "simple"])
    def test_face_counts_do_not_depend_on_scale(self, order, p, scale):
        """Draws of scale * psi square past double range; their faces are
        those of psi (simple-order R R' / 2 keeps the scaled diagonal finite)."""
        r = ConeSpec.simple_order(p + 1).as_polyhedral()
        psi = np.eye(p) if order == "identity" else 0.5 * (r @ r.T)
        want = weights_monte_carlo(psi, n_draws=40_000, seed=11).w
        np.testing.assert_array_equal(
            weights_monte_carlo(scale * psi, n_draws=40_000, seed=11).w, want)

    def test_a_parity_breach_is_a_numeric_error_naming_cond(self):
        """Each draw adds +-1 to N sum_j (-1)^j w_j. On PARITY_PSI the exact
        weights end in a singular face block, and Monte Carlo's projection
        misreads nearly every draw: 994 standard errors at N = 1e6. Roundoff
        decides nearly every draw's face here, so the count moves with the
        activity tolerance."""
        with pytest.raises(NumericError, match="face block"):
            weights_exact(PARITY_PSI)
        with pytest.raises(NumericError, match=r"parity identity by -0\.994 \(994 standard "
                                               r"errors\).*cond 1\.22e\+16"):
            orthant_weights(PARITY_PSI)

    def test_the_parity_bound_is_six_standard_errors(self):
        """The bound is |N sum_j (-1)^j w_j| <= 6 sqrt(N). PARITY_PSI at
        N = 400 reads -398, 19.9 standard errors, which a bound of 60 would
        pass. Psi = I at p = 3, N = 64, seed 9272 reads -34, 4.25 standard
        errors: chance, which a bound of 4 would refuse."""
        with pytest.raises(NumericError, match=r"by -0\.995 \(19\.9 standard errors\)"):
            weights_monte_carlo(PARITY_PSI, n_draws=400, seed=1729)
        w = weights_monte_carlo(np.eye(3), n_draws=64, seed=9272)
        assert round(64 * (w.w @ (-1.0) ** np.arange(4))) == -34

    def test_three_dimensional_weights_sum_to_one(self, rng):
        sigma = random_spd(rng, 3)
        w = weights_monte_carlo(sigma, n_draws=50_000, seed=5)
        assert w.p == 3
        assert w.w.sum() == pytest.approx(1.0, abs=0.0)


def equicorrelation(d, rho):
    c = np.full((d, d), float(rho))
    np.fill_diagonal(c, 1.0)
    return c


def mp_equicorrelated_orthant(d, rho):
    """Independent oracle: P(X >= 0) for d equicorrelated N(0, 1), rho >= 0.

    X_i = sqrt(rho) Z + sqrt(1 - rho) Y_i, so conditioning on Z leaves a
    product: P = int phi(z) Phi(z sqrt(rho / (1 - rho)))^d dz.
    """
    a = mpmath.sqrt(mpmath.mpf(rho) / (1 - mpmath.mpf(rho)))
    f = lambda z: mpmath.npdf(z) * mpmath.ncdf(a * z) ** d
    return float(mpmath.quad(f, [-mpmath.inf, -1, 0, 1, mpmath.inf]))


class TestExactWeights:
    def test_low_dimensions_match_closed_forms(self):
        np.testing.assert_allclose(weights_exact(np.eye(1)).w, [0.5, 0.5], rtol=0, atol=1e-15)
        for rho in (-0.95, -0.3, 0.0, 0.45, 0.9, 0.99):
            psi = np.array([[4.0, 2.0 * rho * 0.7], [2.0 * rho * 0.7, 0.49]])
            np.testing.assert_allclose(weights_exact(psi).w, weights_closed_form_2d(rho).w,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_identity_gives_binomial_weights(self, p):
        """Exact to the bit: every c_0k is 0, the branch where t = s / c_0k
        divides by 1 and must leave t = 0."""
        w = weights_exact(np.eye(p))
        expected = [math.comb(p, j) / 2**p for j in range(p + 1)]
        assert w.w.tolist() == expected
        assert (w.source, w.n_draws, w.seed) == ("exact", None, None)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orthant_helper_at_equicorrelation_half(self, d):
        nodes = np.polynomial.legendre.leggauss(16)
        prob = _orthant_probabilities({d: equicorrelation(d, 0.5)[None]}, nodes)[d][0]
        assert prob == pytest.approx(1.0 / (d + 1), abs=1e-15)

    def test_near_singular_equicorrelation(self):
        """rho = 0.99 at p = 5 needs more than the first pass's nodes.

        For equicorrelated psi every face term of one size is equal: the
        first factor is equicorrelated with rho / (1 + m rho), m = p - j,
        the second with -rho / (1 + (m - 2) rho) in dimension m. For j >= 2
        that dimension is at most 3, where the orthant law is Sheppard's.
        """
        p, rho = 5, 0.99
        w = weights_exact(equicorrelation(p, rho))
        assert abs(w.w.sum() - 1.0) <= 1e-12
        assert abs(w.w @ (-1.0) ** np.arange(p + 1)) <= 1e-12
        for j in range(2, p + 1):
            m = p - j
            s = math.asin(-rho / (1.0 + (m - 2) * rho)) if m >= 2 else 0.0
            second = [1.0, 0.5, 0.25 + s / (2 * math.pi), 0.125 + 3 * s / (4 * math.pi)][m]
            expected = math.comb(p, j) * mp_equicorrelated_orthant(j, rho / (1 + m * rho)) * second
            assert w.w[j] == pytest.approx(expected, rel=0, abs=1e-12), j

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            weights_exact(np.eye(EXACT_MAX_DIM + 1))

    def test_non_finite_weights_are_numeric_errors(self, monkeypatch):
        monkeypatch.setattr(chibar, "_kudo_weights", lambda corr, prec, nodes: np.full(5, np.nan))
        with pytest.raises(NumericError, match="not finite"):
            weights_exact(np.eye(4))

    @pytest.mark.parametrize("psi, passes", [
        (np.eye(3), [16]),
        (equicorrelation(7, 0.99), [16, 32, 64]),
    ])
    def test_node_schedule_exits(self, monkeypatch, psi, passes):
        """Each pass runs once, in order, and the first to meet the identities
        returns. A psi that misses them at every pass is
        test_monte_carlo_where_the_exact_quadrature_fails."""
        kudo, seen = chibar._kudo_weights, []
        def counted(corr, prec, nodes):
            seen.append(nodes[0].size)
            return kudo(corr, prec, nodes)
        monkeypatch.setattr(chibar, "_kudo_weights", counted)
        assert weights_exact(psi).source == "exact"
        assert seen == passes

    @pytest.mark.parametrize("p", range(3, 8))
    @pytest.mark.parametrize("order", ["simple", "tree"])
    def test_monte_carlo_oracle(self, order, p):
        """Face counts at N = 2e5 lie within 4 binomial standard errors."""
        rng = np.random.default_rng(100 + p)
        r = getattr(ConeSpec, f"{order}_order")(p + 1).as_polyhedral()
        psi = r @ random_spd(rng, p + 1) @ r.T
        exact = weights_exact(psi).w
        n = 200_000
        mc = weights_monte_carlo(psi, n_draws=n, seed=p).w
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(mc - exact) <= 4.0 * se), (mc, exact)


@st.composite
def _spd_matrices(draw):
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_spd(rng, p, 0.1, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_spd_matrices())
def test_exact_weights_identities_and_polar_duality(psi):
    """Sum and parity identities, nonnegativity, and w(psi^-1) = reversed w(psi)."""
    w = weights_exact(psi).w
    assert np.all(w >= -1e-15)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(w @ (-1.0) ** np.arange(w.size)) <= 1e-12
    np.testing.assert_allclose(weights_exact(np.linalg.inv(psi)).w, w[::-1], rtol=0, atol=1e-12)


@st.composite
def _spd_up_to_eight(draw):
    p = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_spd(rng, p, draw(st.sampled_from([0.5, 0.05])), 2.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_spd_up_to_eight())
def test_exact_weights_match_the_reference_bit_for_bit(psi):
    """The cached tables and one gather per level change no bit of the weights."""
    want = weights_exact_oracle(psi)
    if want is None:
        with pytest.raises(NumericError):
            weights_exact(psi)
    else:
        assert np.array_equal(weights_exact(psi).w, want)


def test_near_singular_weights_match_the_reference_bit_for_bit():
    """Equicorrelation 0.99 at p = 5 doubles the nodes, reading more cached rules."""
    assert np.array_equal(weights_exact(equicorrelation(5, 0.99)).w,
                          weights_exact_oracle(equicorrelation(5, 0.99)))


def test_node_doubling_at_p7_matches_the_reference_bit_for_bit():
    """Equicorrelation 0.99 at p = 7 misses the identities at 16 and 32 nodes,
    so weights_exact walks every Plackett level, d = 4 to 7, at 64 nodes."""
    corr = equicorrelation(7, 0.99)
    prec = np.linalg.inv(corr)
    for n in (16, 32):
        w = chibar._kudo_weights(corr, prec, chibar._gauss_legendre(n))
        assert chibar._identity_residual(w) > chibar._EXACT_TOL
    assert np.array_equal(weights_exact(corr).w, weights_exact_oracle(corr))


def _leaf_cost(d, n):
    """Rough count of Sheppard evaluations behind one d x d orthant probability."""
    if d <= 3:
        return 1
    return (d - 1) * n * (_leaf_cost(d - 2, n) if d >= 6 else 1) + _leaf_cost(d - 1, n)


def _correlation_stack(rng, m, d, near_one=None, zeros=False):
    """(m, d, d) Gram stack of unit vectors: near_one = (eps, sign) makes one
    entry about sign (1 - eps^2 / 2), and zeros puts exact zeros in row 0."""
    b = rng.standard_normal((m, d, d + 1))
    if d >= 2 and near_one is not None:
        (a, c), (eps, sign) = rng.choice(d, 2, replace=False), near_one
        b[:, c] = sign * b[:, a] + eps * rng.standard_normal((m, d + 1))
    if d >= 2 and zeros:
        # c_0k = e_0 . b_k is a sum of exact zeros for every k with b_k[0] = 0
        b[:, rng.random(d) < 0.5, 0] = 0.0
        b[:, 0] = 0.0
        b[:, 0, 0] = 1.0
    b /= np.linalg.norm(b, axis=2, keepdims=True)
    return b @ b.transpose(0, 2, 1)


def _assert_orthant_bits(corr, n):
    nodes = np.polynomial.legendre.leggauss(n)
    got = _orthant_probabilities({corr.shape[1]: corr}, nodes)[corr.shape[1]]
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, orthant_probabilities_oracle(corr, nodes))


@pytest.mark.parametrize("d", range(1, 9))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_orthant_probabilities_match_the_broadcast_form_bit_for_bit(d, data):
    """The in-place kernel and its c_0k = 0 branch change no bit of the
    plain broadcast form, on stacks with exact zeros in row 0 and entries
    within 1e-3 of +-1."""
    n = data.draw(st.sampled_from([1, 2, 3, 5, 8, 16]))
    m = data.draw(st.integers(1, 4))
    near_one = data.draw(st.none() | st.tuples(st.floats(1e-4, 0.04), st.sampled_from([1.0, -1.0])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_orthant_bits(_correlation_stack(rng, m, d, near_one, data.draw(st.booleans())), n)


@pytest.mark.parametrize("d", range(4, 8))
def test_orthant_stacks_across_the_chunk_split_match_bit_for_bit(d):
    """Stacks of step - 1 up to 2 step + 1 matrices, step the chunk size read
    from the module, with the most nodes that keep the stack cheap (one node
    at d = 7): the chunks share buffers, and the last one is short. The
    lower stacks of the walk cross their own splits on the way down."""
    n = next((n for n in (16, 8, 5, 3, 2)
              if (2 * chibar._ORTHANT_CHUNK // ((d - 1) * n) + 1) * _leaf_cost(d, n) <= 400_000), 1)
    step = max(1, chibar._ORTHANT_CHUNK // ((d - 1) * n))
    rng = np.random.default_rng(40 + d)
    for m in (step - 1, step, step + 1, 2 * step + 1):
        _assert_orthant_bits(_correlation_stack(rng, m, d, (1e-3, -1.0), zeros=m % 2 == 1), n)


@pytest.mark.parametrize("d", range(4, 9))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_orthant_probability_bits_do_not_depend_on_the_stack(d, data):
    """Every orthant probability has the bits of its matrix evaluated alone
    when it sits in a shuffled stack beside stacks of every lower
    dimension, with chunks and stack cuts of a few matrices, so that the
    walk crosses chunk boundaries and cuts at every level."""
    n = data.draw(st.sampled_from([1, 2, 3] if d == 8 else [1, 2, 3, 5]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    near_one = data.draw(st.none() | st.just((1e-3, -1.0)))
    stacks = {k: _correlation_stack(rng, data.draw(st.integers(1 if k == d else 0, 4)), k, near_one,
                                    data.draw(st.booleans())) for k in range(1, d + 1)}
    nodes = np.polynomial.legendre.leggauss(n)
    alone = {k: np.array([_orthant_probabilities({k: c[None]}, nodes)[k][0] for c in stack])
             for k, stack in stacks.items()}
    assert np.array_equal(alone[d], orthant_probabilities_oracle(stacks[d], nodes))
    order = {k: rng.permutation(len(stack)) for k, stack in stacks.items()}
    chunk = data.draw(st.integers(1, 3 * (d - 1) * n))
    cut = data.draw(st.integers(1, 3 * (d - 1) * n * (d - 2) ** 2))
    with mock.patch.object(chibar, "_ORTHANT_CHUNK", chunk), \
            mock.patch.object(chibar, "_STACK_FLOATS", cut):
        got = _orthant_probabilities({k: stacks[k][order[k]] for k in stacks}, nodes)
    for k in stacks:
        assert np.array_equal(got[k], alone[k][order[k]]), k


@pytest.mark.parametrize("p", range(3, 9))
@pytest.mark.parametrize("order", ["simple", "tree"])
def test_exact_weights_equal_a_kudo_sum_on_the_oracle(order, p):
    """weights_exact at every p it supports equals the face decomposition
    summed over the broadcast-form orthant probabilities."""
    rng = np.random.default_rng(300 + p)
    r = getattr(ConeSpec, f"{order}_order")(p + 1).as_polyhedral()
    psi = r @ random_spd(rng, p + 1) @ r.T
    assert np.array_equal(weights_exact(psi).w, weights_exact_oracle(psi))


def _table_caches(module):
    return {name: f for name, f in vars(module).items() if hasattr(f, "cache_info")}


class TestExactTables:
    def test_tables_are_read_only(self):
        x, g = chibar._gauss_legendre(16)
        i, j = chibar._triu_pairs(4)
        for table in (x, g, chibar._subsets(6, 3), chibar._subsets(6, 3)[::-1],
                      chibar._rest(5), i, j):
            with pytest.raises(ValueError):
                table[0] = table[-1]

    def test_threads_building_the_tables_agree_with_a_serial_run(self):
        """Four threads race to build every table from empty caches."""
        psi = random_spd(np.random.default_rng(7), 7)
        serial = weights_exact(psi).w
        for cache in _table_caches(chibar).values():
            cache.cache_clear()
        start, results = threading.Barrier(4), [None] * 4

        def run(k):
            start.wait(timeout=60)
            results[k] = weights_exact(psi).w

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(np.array_equal(w, serial) for w in results)

    def test_import_builds_no_table(self):
        """Tables cost nothing until a weight is computed, so CLI start-up stays lean."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(chibar.__file__)))
        code = ("import json, sys, ordersafe.cli\n"
                "print(json.dumps({f'{m}.{n}': f.cache_info().currsize"
                " for m in sorted(sys.modules) if m.startswith('ordersafe')"
                " for n, f in vars(sys.modules[m]).items() if hasattr(f, 'cache_info')}))")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60, check=True)
        sizes = json.loads(proc.stdout)
        assert len(sizes) >= 4 and set(sizes.values()) == {0}, sizes


#: A 2 x 2 covariance that Cholesky accepts but whose correlation rounds to -1.
RHO_ROUNDS_TO_ONE = np.array(ROUNDOFF_CASES["rho"][1])


def _same(a, b):
    """Same weight bits, source label and Monte Carlo settings."""
    return (a.w.tolist(), a.source, a.n_draws, a.seed) == (b.w.tolist(), b.source, b.n_draws,
                                                            b.seed)


class TestOrthantWeights:
    """The one weight rule: each branch hands back its engine's weights,
    bit for bit and with its label."""

    def test_p1_is_one_half_each(self):
        w = orthant_weights([[3.0]], n_draws=64, seed=3)
        assert (w.w.tolist(), w.source, w.n_draws, w.seed) == ([0.5, 0.5], "closed_form", None,
                                                               None)

    def test_p2_is_the_closed_form_of_psi_as_given(self):
        # the last bit of psi_10 differs from psi_01, and only psi_01 is read
        psi = np.array([[4.0, 1.26], [np.nextafter(1.26, 2.0), 0.49]])
        w = orthant_weights(psi, n_draws=64, seed=3)
        assert _same(w, weights_closed_form_2d(correlation_2x2(psi)))
        assert w.source == "closed_form"

    @pytest.mark.parametrize("p", [3, 5, EXACT_MAX_DIM])
    def test_exact_from_three_to_the_cap(self, p):
        psi = random_spd(np.random.default_rng(p), p)
        w = orthant_weights(psi, n_draws=64, seed=3)
        assert _same(w, weights_exact(psi)) and w.source == "exact"

    def test_monte_carlo_beyond_the_cap(self):
        psi = random_spd(np.random.default_rng(9), EXACT_MAX_DIM + 1)
        w = orthant_weights(psi, n_draws=500, seed=3)
        assert _same(w, weights_monte_carlo(psi, n_draws=500, seed=3))
        assert (w.source, w.n_draws, w.seed) == ("monte_carlo", 500, 3)

    def test_monte_carlo_where_the_exact_quadrature_fails(self):
        psi = equicorrelation(4, 1.0 - 1e-6)
        with pytest.raises(NumericError, match="missed the sum and parity identities "
                                               "by .* at 128 quadrature nodes"):
            weights_exact(psi)
        w = orthant_weights(psi, n_draws=500, seed=3)
        assert _same(w, weights_monte_carlo(psi, n_draws=500, seed=3))

    def test_monte_carlo_where_a_p2_correlation_rounds_to_one(self):
        """Cholesky accepts this psi, but its correlation rounds to -1, where
        the closed form is undefined: Monte Carlo answers, like p >= 3."""
        assert correlation_2x2(RHO_ROUNDS_TO_ONE) == -1.0
        w = orthant_weights(RHO_ROUNDS_TO_ONE, n_draws=500, seed=3)
        assert _same(w, weights_monte_carlo(RHO_ROUNDS_TO_ONE, n_draws=500, seed=3))

    @pytest.mark.parametrize("kwargs", [
        dict(psi=None), dict(psi="a"), dict(psi=[1.0, 2.0]), dict(psi=np.zeros((2, 3))),
        dict(psi=np.zeros((0, 0))), dict(psi=np.zeros((2, 2, 2))), dict(psi=[[math.nan]]),
        dict(psi=[[1.0, math.inf], [math.inf, 1.0]]), dict(psi=np.eye(2, dtype=bool)),
        dict(psi=[[0.0, 0.0], [0.0, 1.0]]), dict(psi=[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                                      [0.0, 0.0, 1.0]]),
        dict(psi=np.eye(1), n_draws=0), dict(psi=np.eye(2), n_draws=True),
        dict(psi=np.eye(3), n_draws=2.5), dict(psi=np.eye(2), seed=-1),
        dict(psi=np.eye(3), seed="1"), dict(psi=[[1.0, 0.5], [0.2, 1.0]]),
    ])
    def test_bad_arguments_raise_contract_violations(self, kwargs):
        with pytest.raises(ContractViolationError):
            orthant_weights(**kwargs)

    @pytest.mark.parametrize("psi", [[[-1.0]], [[0.0]], [[1.0, 2.0], [2.0, 1.0]],
                                     [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    def test_a_psi_that_is_not_positive_definite(self, psi):
        with pytest.raises(NotPositiveDefiniteError):
            orthant_weights(psi, n_draws=64)


class TestMixtureTails:
    def test_nan_weight_rejected(self):
        with pytest.raises(ContractViolationError, match="sum to nan"):
            ChiBarWeights(w=np.array([np.nan, 0.5, 0.5]))

    def test_negative_weight_rejected(self):
        """The weights sum to 1, so only the sign rule refuses them."""
        with pytest.raises(ContractViolationError, match="weights must be nonnegative"):
            ChiBarWeights(w=np.array([-0.1, 0.6, 0.5]))

    def test_total_mass_at_zero(self):
        assert mixture_upper_tail(QUADRANT, 0.0) == 1.0

    def test_total_mass_is_exactly_one(self):
        """At t = 0 the tail is 1.0 even where the exact weights sum above 1."""
        r = ConeSpec.simple_order(6).as_polyhedral()
        w = weights_exact(r @ r.T)
        assert w.w.sum() > 1.0
        assert mixture_upper_tail(w, 0.0) == 1.0
        assert mixture_upper_tail(w, -0.0) == 1.0
        assert mixture_upper_tail(w, 1e-300) == pytest.approx(1.0 - w.w[0], abs=1e-15)

    def test_value_against_mpmath(self):
        t = 4.915
        expected = 0.5 * mp_chi2_sf(t, 1) + 0.25 * mp_chi2_sf(t, 2)
        assert mixture_upper_tail(QUADRANT, t) == pytest.approx(expected, abs=1e-12)
        assert mixture_upper_tail(QUADRANT, t) == pytest.approx(0.03472, abs=5e-5)

    def test_vanishes_at_infinity(self):
        assert mixture_upper_tail(QUADRANT, 1e6) == pytest.approx(0.0, abs=1e-300)

    def test_strictly_decreasing_beyond_zero(self):
        ts = np.linspace(0.01, 20.0, 200)
        vals = [mixture_upper_tail(QUADRANT, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ContractViolationError):
            mixture_upper_tail(QUADRANT, -0.5)

    def test_lower_tail_complements_upper(self):
        """P(mix >= t) + P(mix < t) = 1; the atom at zero is counted once."""
        for t in (0.0, 0.5, 3.0):
            total = mixture_upper_tail(QUADRANT, t) + mixture_lower_tail(QUADRANT, t)
            assert total == pytest.approx(1.0, abs=1e-12)
        # at t just above zero the atom has moved to the lower tail
        assert mixture_lower_tail(QUADRANT, 1e-300) == pytest.approx(
            QUADRANT.w[0], abs=1e-12
        )


class TestJointTail:
    def test_whole_space(self):
        assert joint_tail(QUADRANT, 0.0, 1e9) == 1.0

    def test_marginalizes_to_lower_tail_at_c1_zero(self):
        for c in (0.5, 2.0, 5.0):
            direct = (
                QUADRANT.w[0] * (1 - mp_chi2_sf(c, 2))
                + QUADRANT.w[1] * (1 - mp_chi2_sf(c, 1))
                + QUADRANT.w[2] * 1.0
            )
            assert joint_tail(QUADRANT, 0.0, c) == pytest.approx(direct, abs=1e-12)

    def test_monotone_in_both_arguments(self):
        base = joint_tail(QUADRANT, 2.0, 3.0)
        assert joint_tail(QUADRANT, 2.5, 3.0) <= base
        assert joint_tail(QUADRANT, 2.0, 3.5) >= base

    def test_agrees_with_gaussian_corner_formula(self):
        """Independent route: the two rejected corners have product form.

        P(T >= c1, T' < c2) = P(T >= c1) - 2 phibar(sqrt(c1)) phibar(sqrt(c2))
        for the independent quadrant problem, by classifying the four sign
        quadrants of the underlying Gaussian directly.
        """
        def phibar(z):
            return 0.5 * math.erfc(z / math.sqrt(2.0))

        c1 = solve_critical(QUADRANT, 0.05)
        c2 = solve_critical(QUADRANT, 0.1)
        lhs = joint_tail(QUADRANT, c1, c2)
        rhs = mixture_upper_tail(QUADRANT, c1) - 2.0 * phibar(math.sqrt(c1)) * phibar(math.sqrt(c2))
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestAttainedLevel:
    @pytest.mark.parametrize("c", [1e-8, 0.5, 4.0])
    def test_is_the_joint_tail_above_zero(self, c):
        c2 = solve_critical(QUADRANT.complement(), 0.05)
        assert attained_level(QUADRANT, c, c2) == joint_tail(QUADRANT, c, c2)

    def test_leaves_the_apex_out_at_zero(self):
        """w_1 P(chi2_1 < c2) + w_2: the joint tail at 0 less the apex's
        w_0 P(chi2_2 < c2), and the limit of the joint tail as c -> 0+."""
        c2 = solve_critical(QUADRANT.complement(), 0.05)
        level = attained_level(QUADRANT, 0.0, c2)
        assert level == pytest.approx(0.5 * chi2_cdf(c2, 1) + 0.25, abs=1e-15)
        assert level == pytest.approx(0.7301492887, abs=1e-10)
        assert level == pytest.approx(joint_tail(QUADRANT, 1e-12, c2), abs=1e-6)
        assert level < joint_tail(QUADRANT, 0.0, c2)

    @pytest.mark.parametrize("alpha, gamma, level, tabulated", [
        (0.1, 0.1, 0.0963235531, 0.0999950295),
        (0.1, 0.5, 0.0754191096, 0.0988158781),
    ])
    def test_is_the_one_composite_level_at_the_published_points(self, alpha, gamma, level,
                                                               tabulated):
        """The region's probability, not the published 2-d tabulation."""
        c_alpha = solve_critical(QUADRANT, alpha)
        c_gamma = solve_critical(QUADRANT.complement(), gamma)
        assert attained_level(QUADRANT, c_alpha, c_gamma) == pytest.approx(level, abs=1e-10)
        assert safe_level_2d(alpha, gamma) == pytest.approx(tabulated, abs=1e-10)


class TestSolveCritical:
    def test_documented_interclass_anchor(self):
        w = weights_closed_form_2d(0.9)
        assert solve_critical(w, 0.05) == pytest.approx(4.915, abs=1e-3)

    def test_round_trip_median(self):
        c = solve_critical(QUADRANT, 0.5)
        assert mixture_upper_tail(QUADRANT, c) == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_high_alpha_returns_zero(self):
        # tail drops to 1 - w0 = 0.75 just above zero
        assert solve_critical(QUADRANT, 0.80) == 0.0
        assert solve_critical(QUADRANT, 0.7499) > 0.0

    def test_joint_mode_round_trip(self):
        c2 = solve_critical(QUADRANT.complement(), 0.1)
        c = solve_critical(QUADRANT, 0.05, mode="joint", c2=c2)
        assert joint_tail(QUADRANT, c, c2) == pytest.approx(0.05, abs=1e-9)
        assert c <= solve_critical(QUADRANT, 0.05)

    def test_joint_mode_infeasible_names_supremum(self):
        """The refusal compares the joint tail at 0, which counts the apex,
        and names the level the region reaches as c -> 0+,
        w_1 P(chi2_1 < c2) + w_2, which is lower by w_0 P(chi2_2 < c2)."""
        c2 = solve_critical(QUADRANT.complement(), 0.1)
        sup = joint_tail(QUADRANT, 0.0, c2)
        reached = 0.5 * chi2_cdf(c2, 1) + 0.25
        assert reached == pytest.approx(sup - 0.25 * chi2_cdf(c2, 2), abs=1e-15)
        with pytest.raises(InfeasibleLevelError, match="as c -> 0[+]") as err:
            solve_critical(QUADRANT, sup + 0.01, mode="joint", c2=c2)
        assert err.value.attainable == pytest.approx(reached, abs=1e-15)
        assert joint_tail(QUADRANT, 1e-12, c2) == pytest.approx(reached, abs=1e-6)

    def test_joint_mode_slack_is_relative_to_the_level(self):
        """A level 100 times the supremum is infeasible, however small both are."""
        w = ChiBarWeights(w=np.array([0.5, 0.5 - 1e-12, 1e-12]))
        sup = joint_tail(w, 0.0, 1e-30)
        assert sup == pytest.approx(1e-12, rel=1e-3, abs=0.0)
        with pytest.raises(InfeasibleLevelError) as err:
            solve_critical(w, 1e-10, "joint", c2=1e-30)
        assert err.value.attainable == sup - 0.5 * chi2_cdf(1e-30, 2)

    def test_joint_mode_between_the_limit_and_the_tail_at_zero_returns_zero(self):
        """Above zero the composite's level climbs only to attained_level at 0,
        w_1 P(chi2_1 < c2) + w_2 = 0.7301... as c -> 0+. A level between that
        and the joint tail at 0 gets c = 0; one past the tail at 0 is refused,
        naming the same limit."""
        c2 = solve_critical(QUADRANT.complement(), 0.05)
        limit = attained_level(QUADRANT, 0.0, c2)
        assert limit == pytest.approx(0.7301492887, abs=1e-10)
        assert limit < 0.8 < joint_tail(QUADRANT, 0.0, c2) < 0.99
        assert solve_critical(QUADRANT, 0.8, "joint", c2) == 0.0
        with pytest.raises(InfeasibleLevelError, match="0.730149288") as err:
            solve_critical(QUADRANT, 0.99, "joint", c2)
        assert err.value.attainable == limit

    def test_alpha_range_validated(self):
        with pytest.raises(ContractViolationError):
            solve_critical(QUADRANT, 0.0)

    def test_nan_c2_rejected(self):
        with pytest.raises(ContractViolationError, match="nonnegative c2"):
            solve_critical(QUADRANT, 0.05, "joint", c2=math.nan)

    def test_infinite_c2_is_the_marginal_solution(self):
        assert (solve_critical(QUADRANT, 0.05, "joint", c2=math.inf)
                == solve_critical(QUADRANT, 0.05, "marginal"))


class TestSafeLevel2d:
    """The published 2-d tabulation (conftest.safe_level_2d), a formula of the
    reference evaluated through solve_critical on the quadrant weights."""

    def test_reference_values(self):
        assert safe_level_2d(0.1, 0.1) == pytest.approx(0.0999, abs=1e-4)
        assert safe_level_2d(0.1, 0.5) == pytest.approx(0.0988, abs=1e-4)

    def test_frozen_regression_values(self):
        assert safe_level_2d(0.1, 0.1) == pytest.approx(0.09999502952196, abs=1e-12)
        assert safe_level_2d(0.1, 0.5) == pytest.approx(0.09881587806904, abs=1e-12)

    def test_loose_certificate_costs_nothing(self):
        assert safe_level_2d(0.05, 1e-12) == pytest.approx(0.05, abs=1e-13)

    def test_never_exceeds_alpha_on_grid(self):
        for alpha in np.linspace(0.02, 0.5, 10):
            for gamma in np.linspace(0.02, 0.9, 10):
                assert safe_level_2d(alpha, gamma) <= alpha
