"""Geometry under an SPD-matrix metric.

Inner products and norms of the form <u, v> = u' S^{-1} v for an SPD
covariance S, projections onto linear subspaces and polyhedral cones,
Moreau decompositions, polar-cone membership, and the open-ball
acceptance regions built from those projections.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapabilityError,
    ContractViolationError,
    InternalInvariantError,
    NotPositiveDefiniteError,
    NumericError,
    SingularMatrixError,
)

#: Scale for "this coordinate/constraint is active" decisions. A value x is
#: treated as zero when |x| <= ZERO_TOL * (1 + norm(point)).
ZERO_TOL = 1e-10

_SYMMETRY_RTOL = 1e-10
_RANK_RTOL = 1e-10
_EXACT_MAX_ROWS = 16


def _as_vector(x, dim=None, name="x"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ContractViolationError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolationError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ContractViolationError(f"{name} has non-finite entries")
    return v


def _read_only_matrix(value, name, shape):
    """A read-only, C-ordered float copy of value, checked to be 2-d and finite."""
    m = np.array(value, dtype=float, order="C")
    if m.ndim != 2:
        raise ContractViolationError(f"{name} must be a {shape} matrix")
    if not np.all(np.isfinite(m)):
        raise ContractViolationError(f"{name} has non-finite entries")
    m.setflags(write=False)
    return m


def _full_row_rank(m) -> bool:
    """No more rows than columns, and smallest singular value > _RANK_RTOL * largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    return m.shape[0] <= m.shape[1] and bool(sv[-1] > _RANK_RTOL * sv[0])


def _activity_tol(xt) -> np.ndarray:
    """ZERO_TOL * (1 + ||x||) per column x of a (p, n) array; only columns whose
    squares overflow (past about 1e154) are rescaled by max|x|, inf giving NaN."""
    norm = np.sqrt(np.einsum("ij,ij->j", xt, xt))
    big = np.flatnonzero(np.isinf(norm))
    if big.size:
        scale = np.abs(xt[:, big]).max(axis=0)
        with np.errstate(invalid="ignore"):
            norm[big] = scale * np.sqrt(((xt[:, big] / scale) ** 2).sum(axis=0))
    return ZERO_TOL * (1.0 + norm)


@dataclass(frozen=True)
class Metric:
    """An SPD matrix with a cached Cholesky factorization.

    Defines the inner product <u, v> = u' sigma^{-1} v and the associated
    norm. The factorization is computed once at construction; a matrix that
    is not symmetric positive definite is rejected outright rather than
    repaired, because silent regularization would corrupt every p-value
    computed downstream.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = _read_only_matrix(self.sigma, "sigma", "square")
        if sigma.shape[0] != sigma.shape[1]:
            raise ContractViolationError(f"sigma must be square, got shape {sigma.shape}")
        if sigma.size == 0:
            raise ContractViolationError("sigma must be non-empty")
        # scaled to max|sigma| = 1, the Frobenius norms can neither underflow nor overflow
        scale = np.abs(sigma).max()
        unit = sigma / (scale or 1.0)  # a zero sigma fails the Cholesky factorization below
        if np.linalg.norm(unit - unit.T) > _SYMMETRY_RTOL * np.linalg.norm(unit):
            raise ContractViolationError("sigma is not symmetric within tolerance 1e-10")
        # halving first is exact and cannot overflow where sigma + sigma.T can
        sigma = 0.5 * sigma + 0.5 * sigma.T
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"sigma is not positive definite: {exc}") from exc
        chol.setflags(write=False)
        object.__setattr__(self, "_chol_lower", chol)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def chol_lower(self) -> np.ndarray:
        """Lower-triangular L with sigma = L L'."""
        return self._chol_lower

    def solve(self, v):
        """Return sigma^{-1} v through the cached factorization: L y = v, then L' x = y."""
        chol = self._chol_lower
        return np.linalg.solve(chol.T, np.linalg.solve(chol, np.asarray(v, dtype=float)))

    def inverse(self) -> np.ndarray:
        """Dense sigma^{-1}, obtained by solving against the identity."""
        return self.solve(np.eye(self.dim))

    def inner(self, u, v) -> float:
        u = _as_vector(u, self.dim, "u")
        v = _as_vector(v, self.dim, "v")
        return float(u @ self.solve(v))

    def norm_sq(self, u) -> float:
        """u' sigma^{-1} u as |y|^2 with L y = u: one triangular solve, never negative."""
        u = _as_vector(u, self.dim, "u")
        # past about 1e154 the square overflows to inf, which callers reject as non-finite
        with np.errstate(over="ignore"):
            y = np.linalg.solve(self._chol_lower, u)
            return float(y @ y)

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.norm_sq(u), 0.0)))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dimension(dim, least, name):
    """dim itself, after checking it is an integer >= least."""
    if not _is_integer(dim) or dim < least:
        raise ContractViolationError(f"{name} needs an integer dimension >= {least}, not {dim!r}")
    return dim


@dataclass(frozen=True)
class ConeSpec:
    """A closed convex cone {theta : R theta >= 0}, stored as its restriction matrix R.

    R is the one stored matrix for every kind of cone: a finite, non-empty,
    read-only p x m matrix of full row rank (p <= m), checked once at
    construction. The named orders build their R from identity rows, so a
    single projection code path serves all of them.
    """

    restriction: np.ndarray

    def __post_init__(self):
        r = _read_only_matrix(self.restriction, "restriction", "p x m")
        if r.size == 0 or not _full_row_rank(r):
            raise ContractViolationError(
                f"restriction must be non-empty and of full row rank, got shape {r.shape}")
        object.__setattr__(self, "restriction", r)

    @classmethod
    def polyhedral(cls, restriction) -> "ConeSpec":
        return cls(restriction)

    @classmethod
    def orthant(cls, dim: int) -> "ConeSpec":
        """Nonnegative coordinates: theta_i >= 0."""
        return cls(np.eye(_check_dimension(dim, 1, "orthant")))

    @classmethod
    def simple_order(cls, dim: int) -> "ConeSpec":
        """Nondecreasing means: theta_1 <= ... <= theta_K."""
        e = np.eye(_check_dimension(dim, 2, "simple order"))
        return cls(e[1:] - e[:-1])

    @classmethod
    def tree_order(cls, dim: int) -> "ConeSpec":
        """Control smallest: theta_1 <= theta_i for i >= 2."""
        e = np.eye(_check_dimension(dim, 2, "tree order"))
        return cls(e[1:] - e[0])

    @classmethod
    def umbrella_order(cls, dim: int, peak: int) -> "ConeSpec":
        """Up to the 0-based peak index, then down."""
        e = np.eye(_check_dimension(dim, 2, "umbrella order"))
        if not _is_integer(peak) or not 0 <= peak < dim:
            raise ContractViolationError(
                f"umbrella peak must be an integer in 0..{dim - 1}, not {peak!r}")
        return cls(np.concatenate([e[1:peak + 1] - e[:peak], e[peak:-1] - e[peak + 1:]]))

    def as_polyhedral(self) -> np.ndarray:
        """The p x m matrix R with cone = {theta : R theta >= 0} (read-only)."""
        return self.restriction


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^m, stored as an m x d basis.

    The basis is the one stored matrix: finite, read-only and of full column
    rank (the rule ConeSpec applies to R), checked once at construction, so
    dim is its number of columns. from_constraint derives an orthonormal
    basis of a kernel through an SVD; from_basis and zero store their basis.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _read_only_matrix(self.basis, "basis", "m x d")
        if b.shape[1] and not _full_row_rank(b.T):
            raise ContractViolationError(f"basis of shape {b.shape} is not of full column rank")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_constraint(cls, a) -> "LinearSubspace":
        """The kernel {x : A x = 0} of a q x m constraint matrix."""
        return cls(_null_space(_read_only_matrix(a, "constraint", "q x m")))

    @classmethod
    def from_basis(cls, b) -> "LinearSubspace":
        """The span of the columns of b, which must be linearly independent."""
        return cls(b)

    @classmethod
    def zero(cls, m: int) -> "LinearSubspace":
        """The trivial subspace {0} of dimension m."""
        return cls(np.zeros((_check_dimension(m, 1, "zero subspace"), 0)))

    @classmethod
    def span_of_ones(cls, m: int) -> "LinearSubspace":
        """The diagonal span{(1, ..., 1)}, the equal-means null space."""
        return cls.from_basis(np.ones((_check_dimension(m, 1, "span of ones"), 1)))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _null_space(a):
    """Orthonormal columns spanning the kernel of a, from its full SVD.

    Singular values at or below s_max * eps * max(q, m) count as zero.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.max(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
    return vh[int(np.sum(s > tol)):].T


def project_subspace(x, sub: LinearSubspace, metric: Metric) -> np.ndarray:
    """Metric projection of x onto the subspace.

    The residual x - proj is metric-orthogonal to every basis vector.
    """
    x = _as_vector(x, metric.dim)
    if sub.ambient_dim != metric.dim:
        raise ContractViolationError("subspace and metric dimensions disagree")
    b = sub.basis
    if b.shape[1] == 0:
        return np.zeros_like(x)
    minv_b = metric.solve(b)
    gram = b.T @ minv_b
    coef = np.linalg.solve(gram, minv_b.T @ x)
    return b @ coef


def project_cone(x, cone: ConeSpec, metric: Metric) -> np.ndarray:
    """Metric projection of x onto the polyhedral cone {theta : R theta >= 0}.

    Solves the dual problem exactly: theta = x + sigma R' lam, where
    lam >= 0 minimizes 1/2 lam' G lam + lam' R x with G = R sigma R',
    by the Lawson-Hanson active-set method (Lawson & Hanson 1974, ch. 23).
    G is SPD because ConeSpec admits only restriction matrices of full row
    rank, so every passive-set system is solved exactly and the method
    terminates after finitely many steps; there is no limit on the number
    of restriction rows.

    The result is checked before it is returned: primal feasibility
    R theta >= -tol and dual feasibility lam >= 0, with tol =
    1e-10 * (1 + ||x||). A breach raises InternalInvariantError; a solve
    that needs more than 3p active-set steps raises NumericError.

    Parameters
    ----------
    x : array_like
        Point to project.
    cone : ConeSpec
        Target cone, read through its restriction matrix.
    metric : Metric
        SPD matrix defining the geometry.
    """
    x = _as_vector(x, metric.dim)
    r = cone.as_polyhedral()
    if r.shape[1] != metric.dim:
        raise ContractViolationError(
            f"cone lives in dimension {r.shape[1]}, metric in {metric.dim}"
        )
    return _dual_active_set(x, r, metric)


def _dual_active_set(x, r, metric):
    tol = _activity_tol(x[:, None])[0]
    rx = r @ x
    if np.all(rx >= -tol):
        return x.copy()
    p = r.shape[0]
    sigma_rt = metric.sigma @ r.T  # columns sigma r_i
    gram = r @ sigma_rt
    lam = np.zeros(p)
    passive = np.zeros(p, dtype=bool)
    w = rx  # gradient G lam + R x, which equals R theta
    max_iter = 3 * p
    n_iter = 0
    while not passive.all():
        j = int(np.argmin(np.where(passive, np.inf, w)))
        if w[j] >= -tol:
            break
        passive[j] = True
        while True:
            n_iter += 1
            if n_iter > max_iter:
                raise NumericError(
                    f"cone projection did not converge within {max_iter} active-set steps"
                )
            idx = np.flatnonzero(passive)
            z = np.zeros(p)
            z[idx] = np.linalg.solve(gram[np.ix_(idx, idx)], -rx[idx])
            if np.all(z[idx] > 0):
                lam = z
                break
            # step from lam towards z until the first passive multiplier hits
            # zero, then drop that row and every row roundoff left at zero
            blocking = idx[z[idx] <= 0]
            ratios = lam[blocking] / (lam[blocking] - z[blocking])
            k = int(np.argmin(ratios))
            lam = lam + ratios[k] * (z - lam)
            lam[blocking[k]] = 0.0
            passive &= lam > 0
            lam[~passive] = 0.0
        w = gram @ lam + rx
    theta = x + sigma_rt @ lam
    r_theta = r @ theta
    if np.any(r_theta < -tol) or np.any(lam < 0):
        raise InternalInvariantError(
            "cone projection breaks its KKT conditions: "
            f"min R theta = {r_theta.min():.3e}, min lambda = {lam.min():.3e}"
        )
    return theta


def polar_complement(x, cone: ConeSpec, metric: Metric) -> np.ndarray:
    """Residual x - proj(x | cone), i.e. the projection onto the polar cone."""
    return _as_vector(x, metric.dim) - project_cone(x, cone, metric)


def in_polar_orthant(theta, restriction, metric: Metric) -> bool:
    """Membership of theta in the polar of {R theta >= 0}.

    Checks that every component of theta' R' (R sigma R')^{-1} is
    nonpositive (tolerance 1e-10), which characterizes the region where the
    order-restricted distance test has no asymptotic power.
    """
    theta = _as_vector(theta, metric.dim)
    r = np.asarray(restriction, dtype=float)
    if r.ndim != 2 or r.shape[1] != metric.dim:
        raise ContractViolationError("restriction must be p x m with m = metric.dim")
    gram = r @ metric.sigma @ r.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularMatrixError(
            f"R sigma R' is singular or near-singular (condition number {cond:.3e})"
        )
    v = np.linalg.solve(gram, r @ theta)
    return bool(np.all(v <= ZERO_TOL))


def acceptance_member_type_a(s, sub: LinearSubspace, cone: ConeSpec, c, n, metric: Metric) -> bool:
    """Membership of s in the type A acceptance region at critical value c.

    The region is the polar of (cone intersect L-perp) fattened by an open
    metric ball of squared radius c/n; membership is evaluated through
    projections as dist^2(s, L) - dist^2(s, cone) < c/n, never by forming
    the fattened set itself. The ball is open, so boundary points are out.
    """
    if c < 0:
        raise ContractViolationError("critical value must be nonnegative")
    s = _as_vector(s, metric.dim)
    d_sub = metric.norm_sq(s - project_subspace(s, sub, metric))
    d_cone = metric.norm_sq(s - project_cone(s, cone, metric))
    val = max(d_sub - d_cone, 0.0)
    return bool(val < c / n)


def acceptance_member_type_b(s, cone: ConeSpec, c, n, metric: Metric) -> bool:
    """Membership of s in the type B acceptance region: dist^2(s, cone) < c/n."""
    if c < 0:
        raise ContractViolationError("critical value must be nonnegative")
    s = _as_vector(s, metric.dim)
    val = metric.norm_sq(s - project_cone(s, cone, metric))
    return bool(val < c / n)


def face_dimension(x) -> int:
    """Dimension of the orthant face containing a projection result.

    Counts coordinates strictly above the activity tolerance
    1e-10 * (1 + ||x||).
    """
    x = np.asarray(x, dtype=float)
    return int(np.sum(x > _activity_tol(x[:, None])[0]))


def project_orthant_batch(points, metric: Metric) -> np.ndarray:
    """Metric projection of each row of points onto the nonnegative orthant.

    Each row leaves at the first coordinate support S whose KKT system it
    satisfies. With M = sigma^{-1} and C the complement of S, the candidate
    is theta_S = x_S + (M_SS)^{-1} M_SC x_C, theta_C = 0, and its dual
    multipliers are mu_C = (M (theta - x))_C. One p x p operator K_S per
    support gives theta_S in its S rows and mu_C / M_ii in its C rows, so
    one matrix product per support prices every remaining row; a row is
    certified when all p entries of K_S x are at least
    -ZERO_TOL * (1 + ||x||). Primal and dual feasibility with
    complementarity is sufficient for a convex problem, so no objective is
    compared. The full support is visited first, so a row already inside
    the orthant comes back unchanged, bit for bit; then the supports follow
    by size, the apex first. A row that no support certifies (a NaN row,
    for instance) raises NumericError.

    Certified rows leave the working set at once, so a support costs one
    p x p product over the rows still open, and the pass stops when none
    are; the row order is restored by one inverse-permutation take. The
    table holds 2^p operators, hence the cap p <= 16. The work is
    coordinate-major: the points are transposed once to a (p, n) array,
    and the (n, p) result is the transpose of the pass's (p, n) array
    (Fortran-ordered); ``.T`` gives the coordinate-major layout back
    without a copy. Used by the Monte Carlo weight estimator and the power
    harness, where millions of low-dimensional projections are needed. The
    certificate also decides each row's face, the size of its support.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ContractViolationError("points must be an (n, p) array")
    p = pts.shape[1]
    if p != metric.dim:
        raise ContractViolationError("points and metric dimensions disagree")
    return _project_orthant_t(np.ascontiguousarray(pts.T), _orthant_operators(metric))[0].T


def _orthant_operators(metric: Metric) -> list:
    """The (K_S, C) pairs of project_orthant_batch, in visit order.

    The full support comes first with K = None: its certificate is x itself.
    """
    p = metric.dim
    if p > _EXACT_MAX_ROWS:
        raise CapabilityError(f"batch projection supports p <= {_EXACT_MAX_ROWS}")
    # K_S is unchanged when the Cholesky factor is scaled by a power of two,
    # which is exact; at unit scale no entry of sigma^{-1} is subnormal
    chol = metric.chol_lower * 2.0 ** -math.frexp(np.abs(metric.chol_lower).max())[1]
    minv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(p)))
    table = [(None, [])]
    for size in range(p):
        for support in itertools.combinations(range(p), size):
            sup = list(support)
            comp = [i for i in range(p) if i not in support]
            k = np.zeros((p, p))
            m_cc = minv[np.ix_(comp, comp)]
            if sup:
                k[sup, sup] = 1.0
                # theta_S = x_S + (M_SS)^{-1} M_SC x_C
                a = np.linalg.solve(minv[np.ix_(sup, sup)], minv[np.ix_(sup, comp)])
                k[np.ix_(sup, comp)] = a
                # mu_C = M_CS (theta_S - x_S) - M_CC x_C
                m_cc = m_cc - minv[np.ix_(comp, sup)] @ a
            k[np.ix_(comp, comp)] = -m_cc / np.diag(minv)[comp, None]
            table.append((k, comp))
    return table


def _project_orthant_t(xt, table):
    """The pass of project_orthant_batch on a (p, n) array: the (p, n)
    projections and counts[j], the number of rows certified at support size j."""
    p, n = xt.shape
    counts = np.zeros(p + 1, dtype=np.int64)
    if n == 0:
        return xt.copy(), counts
    rows = np.arange(n)
    neg_tol = -_activity_tol(xt)
    blocks, order = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, comp in table:
            cand = xt if k is None else k @ xt
            done = cand.min(axis=0) >= neg_tol
            hit = np.flatnonzero(done)
            if hit.size:
                theta = cand.take(hit, axis=1)
                theta[comp] = 0.0
                blocks.append(theta)
                order.append(rows.take(hit))
                counts[p - len(comp)] += hit.size
                if hit.size == rows.size:
                    break
                keep = np.flatnonzero(~done)
                xt, rows, neg_tol = xt.take(keep, axis=1), rows.take(keep), neg_tol.take(keep)
        else:
            raise NumericError("batch projection found rows with no feasible candidate")
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.concatenate(order)] = np.arange(n)
    return np.concatenate(blocks, axis=1).take(inverse, axis=1), counts
