import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersafe.errors import (
    CapabilityError,
    ContractViolationError,
    NotPositiveDefiniteError,
    NumericError,
)
from ordersafe.geometry import (
    ConeSpec,
    LinearSubspace,
    Metric,
    project_cone,
    project_orthant_batch,
    project_subspace,
    _Workspace,
    _dual_active_set,
    _orthant_blocks,
    _orthant_operators,
)
from ordersafe.isotonic import WeightedSeries, pava
from ordersafe.testing import Statistic, dt_type_a, dt_type_b

from conftest import (
    ROUNDOFF_CASES,
    dual_active_set_oracle,
    enumerate_cone_oracle,
    face_dimension,
    in_polar_orthant,
    orthant_batch_oracle,
    random_full_rank,
    random_spd,
)


def interclass(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


class TestMetric:
    def test_inner_matches_explicit_2x2_inverse(self):
        """Oracle: invert the 2 x 2 interclass matrix by the adjugate formula."""
        rho = 0.9
        m = Metric(interclass(rho))
        det = 1.0 - rho**2
        inv = np.array([[1.0, -rho], [-rho, 1.0]]) / det
        u = np.array([1.0, 1.0])
        assert m.norm_sq(u) == pytest.approx(u @ inv @ u, abs=1e-12)
        assert m.norm_sq(u) == pytest.approx(2.0 / (1.0 + rho), abs=1e-12)
        e1, e2 = np.eye(2)
        assert e1 @ m.inverse() @ e2 == pytest.approx(-rho / det, abs=1e-12)

    def test_positive_definiteness_of_inner(self, rng):
        m = Metric(random_spd(rng, 4))
        for _ in range(50):
            u = rng.standard_normal(4)
            assert m.norm_sq(u) > 0
        assert m.norm_sq(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            Metric(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_asymmetry_of_1e_minus_8_relative_is_refused(self):
        """The symmetry tolerance is 1e-10 relative, far below 1e-8."""
        with pytest.raises(ContractViolationError, match="not symmetric"):
            Metric([[1.0, 1e-8], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e150])
    def test_symmetry_test_is_scale_free(self, scale):
        """Tiny and huge symmetric matrices factor; asymmetric ones are still out."""
        m = Metric(scale * interclass(0.5))
        np.testing.assert_allclose(m.chol_lower @ m.chol_lower.T, scale * interclass(0.5),
                                   rtol=1e-15, atol=0)
        with pytest.raises(ContractViolationError, match="not symmetric"):
            Metric(scale * np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_spd_without_repair(self):
        with pytest.raises(NotPositiveDefiniteError):
            Metric(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            Metric(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_huge_entries_symmetrize_without_overflow(self):
        sigma = 1e308 * interclass(0.5)
        m = Metric(sigma)
        np.testing.assert_array_equal(m.sigma, sigma)
        assert np.all(np.isfinite(m.chol_lower))

    def test_zero_sigma_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            Metric(np.zeros((2, 2)))

    def test_empty_sigma_rejected(self):
        with pytest.raises(ContractViolationError, match="sigma must be non-empty"):
            Metric(np.zeros((0, 0)))

    def test_factor_and_solve(self, rng):
        sigma = random_spd(rng, 6, 0.1, 10.0)
        m = Metric(sigma)
        chol = m.chol_lower
        assert not chol.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.chol_lower = chol
        np.testing.assert_array_equal(chol, np.tril(chol))
        np.testing.assert_allclose(chol @ chol.T, sigma, rtol=0, atol=1e-13)
        v = rng.standard_normal((6, 3))
        np.testing.assert_allclose(sigma @ m._solve(v), v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m._solve(v[:, 0]), m._solve(v)[:, 0], rtol=1e-14)

    def test_dimension_mismatch(self):
        m = Metric(np.eye(2))
        with pytest.raises(ContractViolationError):
            m.norm_sq([1.0, 0.0, 0.0])

    def test_rejects_non_finite_input(self):
        with pytest.raises(ContractViolationError):
            Metric(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ContractViolationError):
            Metric(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        m = Metric(np.eye(2))
        with pytest.raises(ContractViolationError):
            m.norm_sq([np.nan, 1.0])
        with pytest.raises(ContractViolationError):
            project_cone([1.0, -np.inf], ConeSpec.orthant(2), m)


class TestConeSpec:
    def test_named_orders_compile_to_expected_rows(self):
        np.testing.assert_allclose(
            ConeSpec.simple_order(3).as_polyhedral(),
            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
        )
        np.testing.assert_allclose(
            ConeSpec.tree_order(3).as_polyhedral(),
            [[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
        )
        np.testing.assert_allclose(
            ConeSpec.umbrella_order(3, peak=1).as_polyhedral(),
            [[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]],
        )

    def test_orthant_is_identity(self):
        np.testing.assert_allclose(ConeSpec.orthant(3).as_polyhedral(), np.eye(3))

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(ContractViolationError):
            ConeSpec([[1.0, 0.0], [2.0, 0.0]])

    def test_singular_value_ratio_of_5e_minus_9_is_full_rank(self):
        """The rank tolerance is 1e-10 relative, below this R's ratio 5e-9."""
        r = ConeSpec([[1.0, 0.0], [1.0, 1e-8]]).restriction
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[-1] / sv[0] == pytest.approx(5e-9, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_restriction_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="non-finite"):
            ConeSpec([[bad, 1.0, 0.0], [0.0, -1.0, 1.0]])

    def test_umbrella_peak_range(self):
        with pytest.raises(ContractViolationError):
            ConeSpec.umbrella_order(4, peak=4)

    @pytest.mark.parametrize("make", [
        lambda: ConeSpec.simple_order(3.7),
        lambda: ConeSpec.tree_order(4.0),
        lambda: ConeSpec.orthant(True),
        lambda: ConeSpec.simple_order(1),
        lambda: ConeSpec.orthant(0),
        lambda: ConeSpec.umbrella_order(4, True),
        lambda: ConeSpec.umbrella_order(4, 1.0),
        lambda: ConeSpec.umbrella_order(4, -1),
    ])
    def test_named_orders_take_integers_only(self, make):
        with pytest.raises(ContractViolationError):
            make()

    def test_numpy_integers_accepted(self):
        np.testing.assert_array_equal(ConeSpec.simple_order(np.int64(3)).as_polyhedral(),
                                      ConeSpec.simple_order(3).as_polyhedral())

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (2, 0)])
    def test_empty_restriction_rejected(self, shape):
        with pytest.raises(ContractViolationError):
            ConeSpec(np.zeros(shape))

    def test_restriction_is_read_only_for_every_kind(self):
        r = np.array([[1.0, -1.0, 0.0]])
        cones = [ConeSpec(r), ConeSpec.orthant(3), ConeSpec.simple_order(3),
                 ConeSpec.tree_order(3), ConeSpec.umbrella_order(3, 1)]
        for cone in cones:
            assert cone.as_polyhedral() is cone.restriction
            assert not cone.restriction.flags.writeable
        r[0, 0] = 7.0
        assert cones[0].restriction[0, 0] == 1.0

    def test_umbrella_rows_carry_no_negative_zero(self):
        for k in range(2, 7):
            for peak in range(k):
                r = ConeSpec.umbrella_order(k, peak).as_polyhedral()
                assert not np.any(np.signbit(r) & (r == 0)), (k, peak)

    def test_named_and_polyhedral_projections_agree(self, rng):
        """Projection through the compiled restriction matches the named cone."""
        for kind in ("simple", "tree", "umbrella"):
            k = 5
            cone = {
                "simple": ConeSpec.simple_order(k),
                "tree": ConeSpec.tree_order(k),
                "umbrella": ConeSpec.umbrella_order(k, peak=2),
            }[kind]
            poly = ConeSpec(cone.as_polyhedral())
            metric = Metric(random_spd(rng, k))
            for _ in range(20):
                x = rng.standard_normal(k) * 2
                a = project_cone(x, cone, metric)
                b = project_cone(x, poly, metric)
                np.testing.assert_allclose(a, b, atol=1e-8)


class TestLinearSubspace:
    def test_constraint_annihilates_basis(self):
        a = np.array([[1.0, -1.0, 0.0]])
        sub = LinearSubspace.from_constraint(a)
        assert sub.dim == 2
        assert np.max(np.abs(a @ sub.basis)) < 1e-12

    def test_dim_plus_rank_is_ambient(self, rng):
        a = random_full_rank(rng, 2, 5)
        sub = LinearSubspace.from_constraint(a)
        assert sub.dim + np.linalg.matrix_rank(a) == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrices_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="non-finite"):
            LinearSubspace.from_constraint([[1.0, bad, 0.0]])
        with pytest.raises(ContractViolationError, match="non-finite"):
            LinearSubspace([[1.0], [bad], [0.0]])

    def test_null_space_rank_rule(self):
        """Singular values at or below s_max * eps * max(q, m) count as zero."""
        eps = np.finfo(float).eps
        for tiny, dim in ((2.0 * eps, 1), (4.0 * eps, 0)):
            a = np.diag([1.0, tiny])
            sub = LinearSubspace.from_constraint(a)
            assert sub.dim == dim, tiny
            assert np.max(np.abs(a @ sub.basis), initial=0.0) <= tiny
        a = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        sub = LinearSubspace.from_constraint(a)
        assert sub.dim == 3 - np.linalg.matrix_rank(a) == 1
        np.testing.assert_allclose(a @ sub.basis, 0.0, atol=1e-15)
        np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(1), atol=1e-15)

    def test_zero_subspace(self):
        sub = LinearSubspace.zero(3)
        assert sub.dim == 0
        m = Metric(np.eye(3))
        np.testing.assert_allclose(project_subspace([1.0, 2.0, 3.0], sub, m), 0.0)

    @pytest.mark.parametrize("make", [LinearSubspace.zero, LinearSubspace.span_of_ones])
    @pytest.mark.parametrize("m", [-1, 0, 2.5, True, "3"])
    def test_ambient_dimension_is_a_positive_integer(self, make, m):
        """The dimension rule of the named ConeSpec orders."""
        with pytest.raises(ContractViolationError, match="integer dimension >= 1"):
            make(m)

    @pytest.mark.parametrize("basis", [
        [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
        [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-12]],
    ])
    def test_basis_without_full_column_rank_rejected(self, basis):
        """The rank rule of ConeSpec: smallest singular value <= 1e-10 * largest."""
        with pytest.raises(ContractViolationError, match="full column rank"):
            LinearSubspace(basis)

    def test_basis_is_stored_read_only(self):
        b = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        sub = LinearSubspace(b)
        np.testing.assert_array_equal(sub.basis, b)
        assert not sub.basis.flags.writeable
        b[0, 0] = 5.0
        assert sub.basis[0, 0] == 1.0


class TestProjectSubspace:
    def test_euclidean_mean_projection(self):
        sub = LinearSubspace(np.ones((2, 1)))
        m = Metric(np.eye(2))
        np.testing.assert_allclose(project_subspace([3.0, -1.0], sub, m), [1.0, 1.0])

    def test_idempotent_on_subspace(self, rng):
        sub = LinearSubspace(rng.standard_normal((4, 2)))
        m = Metric(random_spd(rng, 4))
        x = sub.basis @ rng.standard_normal(2)
        np.testing.assert_allclose(project_subspace(x, sub, m), x, atol=1e-10)

    def test_weighted_mean_formula(self):
        """Equal-weights diagonal metric projects onto the plain mean."""
        sub = LinearSubspace.span_of_ones(3)
        m = Metric(np.diag([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(
            project_subspace([1.0, 2.0, 3.0], sub, m), [2.0, 2.0, 2.0]
        )
        # cross-check against an unconstrained least-squares solve
        b = np.ones((3, 1))
        coef = np.linalg.lstsq(b, np.array([1.0, 2.0, 3.0]), rcond=None)[0]
        np.testing.assert_allclose(b @ coef, [2.0, 2.0, 2.0])

    def test_residual_metric_orthogonal_to_basis(self, rng):
        sub = LinearSubspace(rng.standard_normal((5, 2)))
        m = Metric(random_spd(rng, 5))
        x = rng.standard_normal(5)
        res = x - project_subspace(x, sub, m)
        for col in sub.basis.T:
            assert abs(res @ np.linalg.solve(m.sigma, col)) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError, match="subspace and metric dimensions disagree"):
            project_subspace([1.0, 2.0, 3.0], LinearSubspace.span_of_ones(2), Metric(np.eye(3)))


class TestProjectCone:
    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError, match="cone lives in dimension 2, metric in 3"):
            project_cone([1.0, 2.0, 3.0], ConeSpec.orthant(2), Metric(np.eye(3)))

    def test_a_singular_passive_system_is_a_numeric_error(self):
        """At cond(Sigma) = 1.4e16 a passive block of G is singular in
        floating point: the error names cond(G) instead of leaking numpy's
        LinAlgError."""
        x, sigma = ROUNDOFF_CASES["singular"]
        with pytest.raises(NumericError, match=r"singular in floating point, cond\(G\) = "):
            project_cone(x, ConeSpec.orthant(2), Metric(sigma))

    def test_interior_point_fixed(self):
        m = Metric(np.eye(2))
        np.testing.assert_allclose(
            project_cone([1.0, 2.0], ConeSpec.orthant(2), m), [1.0, 2.0]
        )

    def test_negative_orthant_to_apex(self):
        m = Metric(np.eye(2))
        np.testing.assert_allclose(
            project_cone([-3.0, -2.0], ConeSpec.orthant(2), m), [0.0, 0.0], atol=1e-12
        )

    def test_face_projection_under_correlation(self):
        """All four active sets enumerated by hand pick the x1 = 0 face."""
        m = Metric(interclass(0.9))
        proj = project_cone([-1.0, 2.0], ConeSpec.orthant(2), m)
        assert proj[0] == pytest.approx(0.0, abs=1e-12)
        # 1-d metric minimization over the face: d/dt of the quadratic form
        # (x - (0, t))' inv(sigma) (x - (0, t)) vanishes at t = x2 - rho x1
        assert proj[1] == pytest.approx(2.0 - 0.9 * (-1.0), abs=1e-10)
        # grid-search oracle over the face
        ts = np.linspace(0.0, 6.0, 60001)
        vals = [m.norm_sq(np.array([-1.0, 2.0]) - np.array([0.0, t])) for t in ts]
        assert proj[1] == pytest.approx(ts[int(np.argmin(vals))], abs=1e-3)

    def test_grid_search_oracle_2d(self, rng):
        """Dense grid over the orthant bounds the projection objective."""
        m = Metric(random_spd(rng, 2))
        x = rng.standard_normal(2) * 2
        proj = project_cone(x, ConeSpec.orthant(2), m)
        grid = np.linspace(0.0, 4.0, 201)
        best = min(
            m.norm_sq(x - np.array([a, b])) for a in grid for b in grid
        )
        assert m.norm_sq(x - proj) <= best + 1e-9

    def test_grid_search_oracle_3d_general_cone(self, rng):
        r = random_full_rank(rng, 2, 3)
        cone = ConeSpec(r)
        m = Metric(random_spd(rng, 3))
        x = rng.standard_normal(3) * 2
        proj = project_cone(x, cone, m)
        assert np.all(r @ proj >= -1e-9)
        # random feasible points cannot beat the projection
        for _ in range(2000):
            cand = rng.uniform(-3, 3, size=3)
            if np.all(r @ cand >= 0):
                assert m.norm_sq(x - proj) <= m.norm_sq(x - cand) + 1e-9

    def test_idempotence_and_moreau(self, rng):
        for _ in range(100):
            p = rng.integers(1, 6)
            mdim = p + rng.integers(0, 3)
            r = random_full_rank(rng, p, mdim)
            metric = Metric(random_spd(rng, mdim))
            cone = ConeSpec(r)
            x = rng.standard_normal(mdim) * 2
            proj = project_cone(x, cone, metric)
            comp = x - proj
            np.testing.assert_allclose(proj + comp, x, atol=1e-12)
            np.testing.assert_allclose(
                project_cone(proj, cone, metric), proj, atol=1e-10
            )
            inner = proj @ np.linalg.solve(metric.sigma, comp)
            assert abs(inner) <= 1e-8 * (1 + metric.norm_sq(x))

    def test_contraction(self, rng):
        m = Metric(random_spd(rng, 3))
        cone = ConeSpec(random_full_rank(rng, 2, 3))
        for _ in range(50):
            x, y = rng.standard_normal((2, 3)) * 2
            px = project_cone(x, cone, m)
            py = project_cone(y, cone, m)
            assert np.sqrt(m.norm_sq(px - py)) <= np.sqrt(m.norm_sq(x - y)) + 1e-8

    def test_equals_enumeration_oracle(self, rng):
        """The active-set solver matches 2^p active-set enumeration."""
        for _ in range(200):
            p = int(rng.integers(1, 11))
            mdim = p + int(rng.integers(0, 3))
            r = random_full_rank(rng, p, mdim)
            m = Metric(random_spd(rng, mdim))
            x = rng.standard_normal(mdim) * 2
            np.testing.assert_allclose(
                project_cone(x, ConeSpec(r), m),
                enumerate_cone_oracle(x, r, m),
                rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(x)),
            )
        for k, draws in ((8, 10), (14, 2)):
            for cone in (ConeSpec.simple_order(k), ConeSpec.tree_order(k),
                         ConeSpec.umbrella_order(k, peak=k // 2)):
                m = Metric(random_spd(rng, k))
                for _ in range(draws):
                    x = rng.standard_normal(k) * 2
                    r = cone.as_polyhedral()
                    np.testing.assert_allclose(
                        project_cone(x, cone, m),
                        enumerate_cone_oracle(x, r, m),
                        rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(x)),
                    )

    def test_many_rows_project_exactly(self, rng):
        """No row limit: 17 to 59 rows match the closed-form projections."""
        for p in (17, 40):
            m = Metric(np.diag(rng.uniform(0.5, 2.0, p)))
            x = rng.standard_normal(p) * 2
            np.testing.assert_allclose(
                project_cone(x, ConeSpec.orthant(p), m), np.clip(x, 0.0, None),
                rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(x)),
            )
        # diagonal sigma = diag(1 / w): the weighted isotonic fit is the projection
        for k in (18, 41, 60):
            w = rng.uniform(0.3, 2.0, k)
            x = rng.standard_normal(k) * 2
            np.testing.assert_allclose(
                project_cone(x, ConeSpec.simple_order(k), Metric(np.diag(1.0 / w))),
                pava(WeightedSeries(x, w)).fitted,
                rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(x)),
            )


class TestPolarMembership:
    def test_negative_orthant_identity(self):
        m = Metric(np.eye(2))
        assert in_polar_orthant([-1.0, -1.0], np.eye(2), m)

    def test_positive_correlation_excludes_point(self):
        m = Metric(interclass(0.25))
        assert not in_polar_orthant([-1.0, 0.5], np.eye(2), m)

    def test_negative_correlation_includes_point(self):
        m = Metric(interclass(-0.25))
        assert in_polar_orthant([-1.0, 0.2], np.eye(2), m)

    def test_matches_projection_to_apex(self, rng):
        """Membership iff the orthant projection of the transformed point is 0."""
        for _ in range(50):
            sigma = random_spd(rng, 2)
            m = Metric(sigma)
            theta = rng.standard_normal(2) * 2
            member = in_polar_orthant(theta, np.eye(2), m)
            proj = project_cone(theta, ConeSpec.orthant(2), m)
            assert member == bool(np.linalg.norm(proj) <= 1e-8)


def accepts(statistic, c):
    """The open acceptance ball of a statistic: strictly below critical value c."""
    return statistic < c


class TestAcceptanceRegions:
    """The acceptance regions {dist^2(s, L) - dist^2(s, C) < c/n} and
    {dist^2(s, C) < c/n}, open metric balls around the polar cone and the
    cone, decided by the distance statistics against their critical values."""

    def test_apex_always_accepted(self):
        stat = Statistic(np.zeros(2), Metric(np.eye(2)), 5)
        cone = ConeSpec.orthant(2)
        assert accepts(dt_type_a(stat, LinearSubspace.zero(2), cone), 3.0)
        assert accepts(dt_type_b(stat, cone), 3.0)

    def test_separated_point_rejected_for_all_reasonable_levels(self):
        """(-3, -2) sits squared distance 9 from the cone; c/n stays below 4."""
        stat = Statistic(np.array([-3.0, -2.0]), Metric(interclass(0.9)), 5)
        # c'_gamma at gamma = 1e-5 is about 19.34, so c/n < 4 < 9
        assert not accepts(dt_type_b(stat, ConeSpec.orthant(2)), 19.35)

    def test_boundary_is_excluded(self):
        """The fattening ball is open: exact boundary distance fails the test."""
        m = Metric(np.eye(2))
        cone = ConeSpec.orthant(2)
        c, n = 4.0, 4
        s = np.array([0.0, -1.0])  # squared distance 1.0 == c/n exactly
        assert not accepts(dt_type_b(Statistic(s, m, n), cone), c)
        assert accepts(dt_type_b(Statistic(s * 0.999, m, n), cone), c)

    def test_type_a_matches_statistic_drop(self, rng):
        """Membership iff dist^2(s, L) - dist^2(s, C) < c/n."""
        m = Metric(random_spd(rng, 2))
        sub = LinearSubspace.zero(2)
        cone = ConeSpec.orthant(2)
        for _ in range(25):
            s = rng.standard_normal(2)
            val = m.norm_sq(s) - m.norm_sq(s - project_cone(s, cone, m))
            t = dt_type_a(Statistic(s, m, 10), sub, cone)
            for c in (0.5, 2.0):
                assert accepts(t, c) == (val < c / 10)


class TestFaceDimension:
    @pytest.mark.parametrize(
        "x,expected",
        [([0.0, 0.0], 0), ([0.3, 0.0, 1.2], 2), ([1e-14, 1e-14], 2), ([1e-14, 1.0], 1)],
    )
    def test_counts_strictly_positive_coordinates(self, x, expected):
        """A coordinate counts when it exceeds 1e-10 ||x||, at any scale."""
        assert face_dimension(np.array(x)) == expected

    def test_apex_projection_has_dimension_zero(self):
        m = Metric(np.eye(2))
        proj = project_cone([-1.0, -1.0], ConeSpec.orthant(2), m)
        assert face_dimension(proj) == 0


class TestBatchProjection:
    @staticmethod
    def _rows(rng, p):
        """Random, inside, apex, exact-zero and 1e+-100-scaled points."""
        random = rng.standard_normal((40, p)) * 2
        inside = np.abs(rng.standard_normal((5, p)))
        zeros = rng.standard_normal((10, p))
        zeros[rng.random((10, p)) < 0.5] = 0.0
        zeros[:, 0] = 0.0
        return np.vstack([random, inside, np.zeros((1, p)), zeros,
                          random[:5] * 1e100, random[5:10] * 1e-100, zeros[:3] * 1e100])

    def test_matches_single_point_path(self, rng):
        """Every row equals project_cone and satisfies the orthant KKT system."""
        for p in range(1, 9):
            sigma = random_spd(rng, p)
            metric = Metric(sigma)
            pts = self._rows(rng, p)
            batch = project_orthant_batch(pts, metric)
            assert batch.shape == pts.shape
            cone = ConeSpec.orthant(p)
            for x, theta in zip(pts, batch):
                tol = 1e-9 * (1.0 + np.linalg.norm(x))
                np.testing.assert_allclose(theta, project_cone(x, cone, metric),
                                           rtol=0, atol=tol)
                mu = np.linalg.solve(sigma, theta - x)
                assert np.all(theta >= -tol)
                assert np.all(mu >= -tol)
                assert abs(mu @ theta) <= tol * (1.0 + np.linalg.norm(x))

    def test_feasibility_tolerance_scales_with_the_row(self):
        """A row is kept as it is when no coordinate falls below -1e-10 ||x||;
        further out it is projected. Rows 0.5 and 2 times 1e-10 (1 + ||x||)
        below zero fall on either side of that at ||x|| = 3 and 3e6."""
        metric = Metric(np.array([[1.0, 0.5], [0.5, 1.0]]))
        rows = []
        for scale in (1.0, 1e6):
            x = np.array([0.0, 3.0 * scale])
            tol = 1e-10 * (1.0 + np.linalg.norm(x))
            rows += [x - [0.5 * tol, 0.0], x - [2.0 * tol, 0.0]]
        pts = np.array(rows)
        got = project_orthant_batch(pts, metric)
        np.testing.assert_array_equal(got[[0, 2]], pts[[0, 2]])
        assert got[1, 0] == 0.0 and got[3, 0] == 0.0
        assert got[1, 1] != pts[1, 1] and got[3, 1] != pts[3, 1]

    def test_nan_row_is_a_numeric_error(self, rng):
        pts = rng.standard_normal((20, 3))
        pts[7, 1] = np.nan
        with pytest.raises(NumericError, match="no feasible candidate"):
            project_orthant_batch(pts, Metric(np.eye(3)))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_row_is_a_numeric_error(self, rng, value):
        pts = np.abs(rng.standard_normal((20, 3)))
        pts[4, 2] = value
        with pytest.raises(NumericError, match="no feasible candidate"):
            project_orthant_batch(pts, Metric(np.eye(3)))

    def test_rows_past_1e154_match_single_point_path(self, rng):
        """The squares of such rows overflow; their tolerance must not become inf."""
        sigma = random_spd(rng, 3)
        metric = Metric(sigma)
        pts = rng.standard_normal((30, 3)) * 1e200
        batch = project_orthant_batch(pts, metric)
        assert np.all(np.isfinite(batch))
        cone = ConeSpec.orthant(3)
        for x, theta in zip(pts, batch):
            np.testing.assert_allclose(theta, project_cone(x, cone, metric),
                                       rtol=0, atol=1e-9 * np.abs(x).max())

    def test_uncertified_row_raises_rather_than_returning_zeros(self):
        """With the apex left out of the table, (-1, -1) has no certified support."""
        metric = Metric(np.eye(2))
        table = [(k, comp) for k, comp in _orthant_operators(metric) if len(comp) < 2]
        xt = np.array([[1.0, -1.0], [2.0, -1.0]])
        with pytest.raises(NumericError, match="no feasible candidate"):
            list(_orthant_blocks(xt, table, _Workspace(4)))
        (x, theta, face, hit), = _orthant_blocks(np.ascontiguousarray(xt[:, :1]), table,
                                                 _Workspace(2))
        np.testing.assert_array_equal(theta, xt[:, :1])
        assert theta is x and face == 2 and hit.tolist() == [0]

    def test_bitwise_equal_to_least_objective_oracle(self, rng):
        """On well-conditioned sigma every row lands on the oracle's support,
        and the theta of that support is computed to the same bits."""
        for p in range(1, 10):
            for sigma in (np.eye(p), random_spd(rng, p, 0.1, 10.0)):
                metric = Metric(sigma)
                pts = rng.standard_normal((4000, p)) @ metric.chol_lower.T
                pts += 0.5 * rng.standard_normal(p)
                got = project_orthant_batch(pts, metric)
                np.testing.assert_array_equal(got, orthant_batch_oracle(pts, metric))

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_near_singular_sigma_agrees_with_oracle(self, rng, p, eps):
        """Under equicorrelation 1 - eps another in-tolerance support can
        certify first; such rows are rare and within tolerance of the oracle."""
        metric = Metric((1.0 - eps) * np.ones((p, p)) + eps * np.eye(p))
        pts = rng.standard_normal((10_000, p)) @ metric.chol_lower.T
        got = project_orthant_batch(pts, metric)
        want = orthant_batch_oracle(pts, metric)
        assert np.mean(np.any(got != want, axis=1)) <= 1e-3
        scale = 1.0 + np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-7 * scale)

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            project_orthant_batch(np.zeros((3, 17)), Metric(np.eye(17)))

    def test_certified_face_counts_match_scalar_face_dimension(self, rng):
        """The pass counts each row at the size of the support that certified
        it; those counts equal face_dimension over the projected rows."""
        for p in range(1, 10):
            for sigma in (np.eye(p), random_spd(rng, p, 0.1, 10.0)):
                metric = Metric(sigma)
                xt = metric.chol_lower @ rng.standard_normal((p, 4000))
                counts = np.zeros(p + 1, dtype=np.int64)
                for x, _, face, _ in _orthant_blocks(xt, _orthant_operators(metric),
                                                      _Workspace(p * 4000)):
                    counts[face] += x.shape[1]
                theta = project_orthant_batch(xt.T, metric)
                want = np.bincount([face_dimension(t) for t in theta], minlength=p + 1)
                np.testing.assert_array_equal(counts, want)
                assert counts.sum() == 4000


@st.composite
def _cone_problems(draw):
    """A random SPD sigma, a full-row-rank R and a point x.

    The matrices come from a drawn seed; x comes from hypothesis directly,
    so its entries include zeros, repeats and the ends of their range.
    """
    p = draw(st.integers(1, 12))
    m = p + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = random_full_rank(rng, p, m)
    sigma = random_spd(rng, m, 0.1, 10.0)
    x = draw(st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m))
    return r, sigma, np.array(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cone_problems())
def test_projection_satisfies_kkt(problem):
    """Primal feasibility, Moreau orthogonality, idempotence and lambda >= 0."""
    r, sigma, x = problem
    metric = Metric(sigma)
    cone = ConeSpec(r)
    theta = project_cone(x, cone, metric)
    tol = 1e-10 * (1.0 + np.linalg.norm(x))
    assert np.all(r @ theta >= -tol)
    assert abs(theta @ np.linalg.solve(sigma, x - theta)) <= 1e-10 * (1.0 + metric.norm_sq(x))
    np.testing.assert_allclose(project_cone(theta, cone, metric), theta, rtol=0, atol=tol)
    # theta - x = sigma R' lam with lam >= 0 (the residual lies in the polar cone)
    lam = np.linalg.solve(r @ sigma @ r.T, r @ (theta - x))
    np.testing.assert_allclose(sigma @ r.T @ lam, theta - x, rtol=0, atol=tol)
    assert np.all(lam >= -tol)


@st.composite
def _orthant_batches(draw):
    """A random SPD sigma and a few rows of hypothesis floats at one scale.

    The floats include zeros, repeats and the ends of their range; the
    scale 1e-100 or 1e100 moves whole rows far from unit size.
    """
    p = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = random_spd(rng, p, 0.1, 10.0)
    x = draw(st.lists(st.floats(-100.0, 100.0), min_size=n * p, max_size=n * p))
    scale = draw(st.sampled_from([1.0, 1e-100, 1e100]))
    return sigma, scale * np.array(x).reshape(n, p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_orthant_batches())
def test_batch_projection_satisfies_kkt(problem):
    """theta >= 0 and mu = sigma^{-1} (theta - x) >= 0 with mu' theta = 0,
    all to tolerance; idempotence; rows inside come back bit for bit."""
    sigma, pts = problem
    metric = Metric(sigma)
    batch = project_orthant_batch(pts, metric)
    assert batch.shape == pts.shape
    again = project_orthant_batch(batch, metric)
    for x, theta, twice in zip(pts, batch, again):
        tol = 1e-9 * (1.0 + np.linalg.norm(x))
        assert np.all(theta >= -tol)
        mu = np.linalg.solve(sigma, theta - x)
        assert np.all(mu >= -tol)
        assert abs(mu @ theta) <= tol * (1.0 + np.linalg.norm(x))
        np.testing.assert_allclose(twice, theta, rtol=0, atol=10 * tol)
    inside = np.abs(pts)
    assert project_orthant_batch(inside, metric).tobytes() == np.asfortranarray(inside).tobytes()
    with pytest.raises(NumericError, match="no feasible candidate"):
        project_orthant_batch(np.vstack([pts, np.full(pts.shape[1], np.nan)]), metric)


@st.composite
def _projection_problems(draw):
    """A named order or a random full-row-rank R at K = 2..14, a random SPD
    sigma with eigenvalues in (0.05, 20), and a point inside the cone,
    outside it or in its polar cone, scaled by 2^-40, 1 or 2^40. Every
    choice comes from the drawn seed, so that each spreads evenly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, region = rng.choice(["simple", "tree", "umbrella", "random"]), rng.integers(3)
    k = int(rng.integers(2, 15))
    if kind == "simple":
        r = ConeSpec.simple_order(k).restriction
    elif kind == "tree":
        r = ConeSpec.tree_order(k).restriction
    elif kind == "umbrella":
        r = ConeSpec.umbrella_order(k, int(rng.integers(k))).restriction
    else:
        r = random_full_rank(rng, int(rng.integers(1, k + 1)), k)
    sigma = random_spd(rng, k, 0.05, 20.0)
    # exponential draws with some exact zeros: points on faces as well as inside
    lam = rng.exponential(size=r.shape[0]) * (rng.random(r.shape[0]) < 0.7)
    if region == 0:  # inside: R x = lam
        pinv = np.linalg.pinv(r)
        x = pinv @ lam + (np.eye(k) - pinv @ r) @ rng.standard_normal(k)
    elif region == 1:  # polar: x = -sigma R' lam
        x = -sigma @ r.T @ lam
    else:
        x = rng.standard_normal(k)
    return r, sigma, 2.0 ** rng.choice([-40, 0, 40]) * x


@settings(max_examples=450, deadline=None, derandomize=True, database=None)
@given(_projection_problems())
def test_projection_matches_the_reference_loop_bit_for_bit(problem):
    """project_cone returns the reference loop's bits after as many
    np.linalg.solve calls, the multipliers are the loop's bits too, and the
    distance tests give the reference path's values. At 2^-40 most points fall under the absolute activity
    floor and come back unchanged, so 450 examples leave well over 100
    that run the loop."""
    r, sigma, x = problem
    metric, cone = Metric(sigma), ConeSpec(r)
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        theta = project_cone(x, cone, metric)
        solves = solve.call_count
        want, want_lam = dual_active_set_oracle(x, r, metric)
    assert np.array_equal(theta, want)
    assert solves == solve.call_count - solves
    assert np.array_equal(_dual_active_set(x, r, metric)[1], want_lam)
    sub = LinearSubspace.from_constraint(r)
    stat = Statistic(s_n=x, sigma_n=metric, n=50)
    d_cone = metric.norm_sq(x - want)
    d_null = metric.norm_sq(x - project_subspace(x, sub, metric))
    assert dt_type_b(stat, cone) == max(50 * d_cone, 0.0)
    assert dt_type_a(stat, sub, cone) == max(50 * (d_null - d_cone), 0.0)
