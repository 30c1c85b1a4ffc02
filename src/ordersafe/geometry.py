"""Geometry under an SPD-matrix metric.

Inner products and norms of the form <u, v> = u' S^{-1} v for an SPD
covariance S, projections onto linear subspaces and polyhedral cones, and
the batched orthant projector whose KKT certificate decides each row's
face.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _arguments as check
from .errors import (
    CapabilityError,
    ContractViolationError,
    InternalInvariantError,
    NotPositiveDefiniteError,
    NumericError,
)

#: Scale for "this coordinate/constraint is active" decisions. A value x is
#: treated as zero when |x| <= ZERO_TOL * norm(point): relative, so a face
#: does not depend on the units of the point.
ZERO_TOL = 1e-10

_RANK_RTOL = 1e-10
_EXACT_MAX_ROWS = 16


def _full_row_rank(m) -> bool:
    """No more rows than columns, and smallest singular value > _RANK_RTOL * largest."""
    sv = np.linalg.svd(m, compute_uv=False)
    return m.shape[0] <= m.shape[1] and bool(sv[-1] > _RANK_RTOL * sv[0])


def _activity_tol(xt, out=None) -> np.ndarray:
    """ZERO_TOL * max(||x||, tiny) per column x of a (p, n) array, written to
    out (n,) if given; tiny, the least normal double, keeps the tolerance of a
    subnormal column from underflowing to 0."""
    tol = _column_norms(xt, np.empty(xt.shape[1]) if out is None else out)
    return np.multiply(np.maximum(tol, np.finfo(float).tiny, out=tol), ZERO_TOL, out=tol)


def _column_norms(xt, out) -> np.ndarray:
    """||x|| per column x of a (p, n) array, written to out (n,). A column whose
    norm lies outside [1e-150, 1e150], where its squares may overflow or
    underflow, is rescaled by max|x|; a zero column stays 0, and inf gives NaN."""
    norm = np.sqrt(np.einsum("ij,ij->j", xt, xt, out=out), out=out)
    far = ((norm < 1e-150) | (norm > 1e150)).nonzero()[0]
    if far.size:
        scale = np.abs(xt[:, far]).max(axis=0)
        far, scale = far[scale > 0], scale[scale > 0]
        with np.errstate(invalid="ignore"):
            norm[far] = scale * np.sqrt(((xt[:, far] / scale) ** 2).sum(axis=0))
    return norm


@dataclass(frozen=True)
class Metric:
    """An SPD matrix with a cached Cholesky factorization.

    Defines the inner product <u, v> = u' sigma^{-1} v and its squared norm.
    The Cholesky factor chol_lower (read-only, sigma = L L') is computed once
    at construction; a matrix that is not symmetric positive definite is
    rejected outright rather than repaired, because silent regularization
    would corrupt every p-value computed downstream.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = check.array(self.sigma, "sigma", 2)
        if sigma.shape[0] != sigma.shape[1]:
            raise ContractViolationError(f"sigma must be square, got shape {sigma.shape}")
        if sigma.size == 0:
            raise ContractViolationError("sigma must be non-empty")
        check.symmetric(sigma, "sigma")  # a zero sigma fails the Cholesky factorization below
        # halving first is exact and cannot overflow where sigma + sigma.T can
        sigma = 0.5 * sigma + 0.5 * sigma.T
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"sigma is not positive definite: {exc}") from exc
        chol.setflags(write=False)
        object.__setattr__(self, "chol_lower", chol)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def _solve(self, v):
        """sigma^{-1} v for a checked vector or matrix v: L y = v, then L' x = y."""
        return np.linalg.solve(self.chol_lower.T, np.linalg.solve(self.chol_lower, v))

    def inverse(self) -> np.ndarray:
        """Dense sigma^{-1}, obtained by solving against the identity."""
        return self._solve(np.eye(self.dim))

    def norm_sq(self, u) -> float:
        """u' sigma^{-1} u as |y|^2 with L y = u: one triangular solve, never negative."""
        u = check.vector(u, "u", self.dim)
        # past about 1e154 the square overflows to inf, which callers reject as non-finite
        with np.errstate(over="ignore"):
            y = np.linalg.solve(self.chol_lower, u)
            return float(y @ y)


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
        r = check.array(self.restriction, "restriction", 2)
        if r.size == 0 or not _full_row_rank(r):
            raise ContractViolationError(
                f"restriction must be non-empty and of full row rank, got shape {r.shape}")
        object.__setattr__(self, "restriction", r)

    @classmethod
    def orthant(cls, dim: int) -> "ConeSpec":
        """Nonnegative coordinates: theta_i >= 0."""
        return cls(np.eye(check.integer(dim, 1, "dim", "an integer dimension >= 1")))

    @classmethod
    def simple_order(cls, dim: int) -> "ConeSpec":
        """Nondecreasing means: theta_1 <= ... <= theta_K."""
        e = np.eye(check.integer(dim, 2, "dim", "an integer dimension >= 2"))
        return cls(e[1:] - e[:-1])

    @classmethod
    def tree_order(cls, dim: int) -> "ConeSpec":
        """Control smallest: theta_1 <= theta_i for i >= 2."""
        e = np.eye(check.integer(dim, 2, "dim", "an integer dimension >= 2"))
        return cls(e[1:] - e[0])

    @classmethod
    def umbrella_order(cls, dim: int, peak: int) -> "ConeSpec":
        """Up to the 0-based peak index, then down."""
        e = np.eye(check.integer(dim, 2, "dim", "an integer dimension >= 2"))
        rule = f"an integer in 0..{dim - 1}"
        if check.integer(peak, 0, "umbrella peak", rule) >= dim:
            raise ContractViolationError(f"umbrella peak must be {rule}, not {peak!r}")
        return cls(np.concatenate([e[1:peak + 1] - e[:peak], e[peak:-1] - e[peak + 1:]]))

    def as_polyhedral(self) -> np.ndarray:
        """The p x m matrix R with cone = {theta : R theta >= 0} (read-only)."""
        return self.restriction

    def _acting_on(self, dim: int, what: str) -> np.ndarray:
        """R, once the cone is known to live in dimension dim, that of what
        (a metric or a statistic): the one rule that pairs a cone with a
        dimension, read from the cone by every module that pairs one."""
        r = self.restriction
        if r.shape[1] != dim:
            raise ContractViolationError(f"cone and {what} dimensions disagree "
                                         f"(cone lives in dimension {r.shape[1]}, {what} in {dim})")
        return r


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^m, stored as an m x d basis.

    The basis is the one stored matrix: finite, read-only and of full column
    rank (the rule ConeSpec applies to R), checked once at construction, so
    dim is its number of columns. LinearSubspace(B) spans the columns of B;
    from_constraint derives an orthonormal basis of a kernel through an SVD,
    and zero and span_of_ones store theirs.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = check.array(self.basis, "basis", 2)
        if b.shape[1] and not _full_row_rank(b.T):
            raise ContractViolationError(f"basis of shape {b.shape} is not of full column rank")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_constraint(cls, a) -> "LinearSubspace":
        """The kernel {x : A x = 0} of a q x m constraint matrix."""
        return cls(_null_space(check.array(a, "constraint", 2)))

    @classmethod
    def zero(cls, m: int) -> "LinearSubspace":
        """The trivial subspace {0} of dimension m."""
        return cls(np.zeros((check.integer(m, 1, "m", "an integer dimension >= 1"), 0)))

    @classmethod
    def span_of_ones(cls, m: int) -> "LinearSubspace":
        """The diagonal span{(1, ..., 1)}, the equal-means null space."""
        return cls(np.ones((check.integer(m, 1, "m", "an integer dimension >= 1"), 1)))

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
    x = check.vector(x, "x", check.instance(metric, Metric, "metric").dim)
    if check.instance(sub, LinearSubspace, "sub").ambient_dim != metric.dim:
        raise ContractViolationError("subspace and metric dimensions disagree")
    b = sub.basis
    if b.shape[1] == 0:
        return np.zeros_like(x)
    minv_b = metric._solve(b)
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
    1e-10 * ||x||. A breach raises InternalInvariantError, or
    NumericError naming cond(G) where it lies within the roundoff of
    R x + G lam, (m + 2p) u |R| (|x| + |sigma R'| lam) for unit roundoff u.
    A solve that needs more than 3p active-set steps raises NumericError.
    A cone that is not a ConeSpec, or a metric that is not a Metric,
    raises ContractViolationError.

    This is the one exact cone projector: testing.delta and
    consistency_region, and through delta the distance tests, run its pass.

    Parameters
    ----------
    x : array_like
        Point to project.
    cone : ConeSpec
        Target cone, read through its restriction matrix.
    metric : Metric
        SPD matrix defining the geometry.
    """
    x = check.vector(x, "x", check.instance(metric, Metric, "metric").dim)
    r = check.instance(cone, ConeSpec, "cone")._acting_on(metric.dim, "metric")
    return _dual_active_set(x, r, metric)[0]


def _dual_active_set(x, r, metric):
    """(theta, lam) of project_cone: the projection and its KKT multipliers."""
    # array methods and index arrays in place of np.all, np.argmin, np.ix_ and
    # np.flatnonzero: the same arithmetic, without their Python wrappers
    tol = _activity_tol(x[:, None])[0]
    rx = r @ x
    if (rx >= -tol).all():
        return x.copy(), np.zeros(r.shape[0])
    p = r.shape[0]
    sigma_rt = metric.sigma @ r.T  # columns sigma r_i
    gram = r @ sigma_rt
    lam = np.zeros(p)
    passive = np.zeros(p, dtype=bool)
    w = rx  # gradient G lam + R x, which equals R theta
    max_iter = 3 * p
    n_iter = 0
    while not passive.all():
        j = int(np.where(passive, np.inf, w).argmin())
        if w[j] >= -tol:
            break
        passive[j] = True
        while True:
            n_iter += 1
            if n_iter > max_iter:
                raise NumericError(
                    f"cone projection did not converge within {max_iter} active-set steps"
                )
            idx = passive.nonzero()[0]
            z = np.zeros(p)
            try:
                z_idx = np.linalg.solve(gram[idx[:, None], idx], -rx[idx])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"cone projection met a passive system singular in "
                                   f"floating point, cond(G) = {np.linalg.cond(gram):.3g}") from exc
            z[idx] = z_idx
            if (z_idx > 0).all():
                lam = z
                break
            # step from lam towards z until the first passive multiplier hits
            # zero, then drop that row and every row roundoff left at zero
            hit = z_idx <= 0
            blocking = idx[hit]
            ratios = lam[blocking] / (lam[blocking] - z_idx[hit])
            k = int(ratios.argmin())
            lam = lam + ratios[k] * (z - lam)
            lam[blocking[k]] = 0.0
            passive &= lam > 0
            lam[~passive] = 0.0
        w = gram @ lam + rx
    theta = x + sigma_rt @ lam
    r_theta = r @ theta
    if (r_theta < -tol).any() or (lam < 0).any():
        # a breach within the roundoff of the terms that R theta = R x + G lam
        # cancels comes from an ill-conditioned G, not from a wrong face
        slack = (r.shape[1] + 2 * p) * np.finfo(float).eps * (
            np.abs(r) @ (np.abs(x) + np.abs(sigma_rt) @ lam))
        roundoff = (lam >= 0).all() and (r_theta >= -tol - slack).all()
        raise (NumericError if roundoff else InternalInvariantError)(
            "cone projection breaks its KKT conditions: "
            f"min R theta = {r_theta.min():.3e}, min lambda = {lam.min():.3e}, "
            f"cond(G) = {np.linalg.cond(gram):.3g}")
    return theta, lam


def project_orthant_batch(points, metric: Metric) -> np.ndarray:
    """Metric projection of each row of points onto the nonnegative orthant.

    Each row leaves at the first coordinate support S whose KKT system it
    satisfies. With M = sigma^{-1} and C the complement of S, the candidate
    is theta_S = x_S + (M_SS)^{-1} M_SC x_C, theta_C = 0, and its dual
    multipliers are mu_C = (M (theta - x))_C. One p x p operator K_S per
    support gives theta_S in its S rows and mu_C / M_ii in its C rows, so
    one matrix product per support prices every remaining row; a row is
    certified when all p entries of K_S x are at least
    -ZERO_TOL * ||x||. Primal and dual feasibility with
    complementarity is sufficient for a convex problem, so no objective is
    compared. The full support is visited first, so a row already inside
    the orthant comes back unchanged, bit for bit; then the supports follow
    by size, the apex first. A row that no support certifies (a NaN row,
    for instance) raises NumericError.

    Certified rows leave the working set at once, so a support costs one
    p x p product over the rows still open, and the pass stops when none
    are. The table holds 2^p operators, hence the cap p <= 16. The work is
    coordinate-major: the points are transposed once to a (p, n) array and
    the pass runs in place in a workspace of flat buffers, yielding one
    block of certified columns per support. The Monte Carlo weights and
    the power harness only count over those blocks; this function alone
    writes them back into row order, and the (n, p) result is the
    transpose of that (p, n) array (Fortran-ordered), so ``.T`` gives the
    coordinate-major layout back without a copy. The certificate also
    decides each row's face, the size of its support.
    """
    pts = check.array(points, "points", 2, finite=False)
    p = pts.shape[1]
    if p != check.instance(metric, Metric, "metric").dim:
        raise ContractViolationError("points and metric dimensions disagree")
    xt = np.ascontiguousarray(pts.T)
    table = _orthant_operators(metric)
    n = xt.shape[1]
    out = np.empty((p, n))
    rows = np.arange(n)
    for _, theta, _, hit in _orthant_blocks(xt, table, _Workspace(p * n)):
        out[:, rows[hit]] = theta
        rows = np.delete(rows, hit)
    return out.T


def _orthant_operators(metric: Metric) -> list:
    """The (K_S, C) pairs of project_orthant_batch, in visit order.

    The full support comes first with K = None: its certificate is x itself.
    """
    p = metric.dim
    if p > _EXACT_MAX_ROWS:
        raise CapabilityError(f"Monte Carlo weights and the batch orthant projection "
                              f"support p <= {_EXACT_MAX_ROWS}, not {p}")
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
                try:
                    a = np.linalg.solve(minv[np.ix_(sup, sup)], minv[np.ix_(sup, comp)])
                except np.linalg.LinAlgError as exc:
                    raise NumericError(f"sigma is singular in floating point ({exc})") from exc
                k[np.ix_(sup, comp)] = a
                # mu_C = M_CS (theta_S - x_S) - M_CC x_C
                m_cc = m_cc - minv[np.ix_(comp, sup)] @ a
            k[np.ix_(comp, comp)] = -m_cc / np.diag(minv)[comp, None]
            table.append((k, comp))
    return table


class _Workspace:
    """Flat buffers reused by the orthant pass from one chunk to the next.

    One allocation holds _SLOTS buffers of capacity floats each; a name
    takes the next free buffer on first use, and view returns a
    C-contiguous array over a prefix of it, so a chunk of any size up to
    the capacity allocates nothing. One block rather than one per buffer
    keeps short calls cheap: glibc returns a dozen separately freed 256 KB
    buffers to the system, and the next call faults their pages in again.
    A workspace belongs to one thread: the power harness keeps one per
    worker thread for one call, weights_monte_carlo one per call. A power
    pass takes all _SLOTS names, 9 in _orthant_blocks and 7 in studies, so
    a new view there needs _SLOTS raised.
    """

    _SLOTS = 16

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._arena = np.empty(self._SLOTS * capacity)
        self._slots = {}

    def view(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        slot = self._slots.setdefault(name, len(self._slots))
        if slot >= self._SLOTS:
            raise InternalInvariantError(f"workspace has no buffer left for {name!r}")
        buf = self._arena[slot * self._capacity:(slot + 1) * self._capacity].view(dtype)
        return buf[:math.prod(shape)].reshape(shape)


def _orthant_blocks(xt, table, work: _Workspace):
    """The pass of project_orthant_batch over a C-contiguous (p, n) array.

    For each support that certifies columns it yields (x, theta, face,
    hit): those columns of xt, their projections, the support size, and
    their positions among the columns still open before the support. x and
    theta are C-contiguous (p, h) views into work that the next block
    overwrites; at the full support they are one array, at the apex theta
    is zero. The open columns and their tolerances are gathered into two
    alternating buffers, so xt itself is never written.
    """
    p, n = xt.shape
    if n == 0:
        return
    neg_tol = _activity_tol(xt, work.view("tol0", (n,)))
    neg_tol *= -1.0
    turn = 0
    for k, comp in table:
        m = xt.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            cand = xt if k is None else np.matmul(k, xt, out=work.view("cand", (p, m)))
            low = cand.min(axis=0, out=work.view("low", (m,)))
            done = np.greater_equal(low, neg_tol, out=work.view("done", (m,), bool))
        hit = done.nonzero()[0]
        h = hit.size
        if not h:
            continue
        # mode="clip" lets take write straight into its out; the indices are in range
        x = xt.take(hit, axis=1, out=work.view("x", (p, h)), mode="clip")
        if k is None:
            theta = x
        elif len(comp) == p:
            theta = work.view("theta", (p, h))
            theta.fill(0.0)
        else:
            theta = cand.take(hit, axis=1, out=work.view("theta", (p, h)), mode="clip")
            theta[comp] = 0.0
        last = h == m
        if not last:
            keep = np.logical_not(done, out=done).nonzero()[0]
            turn ^= 1
            xt = xt.take(keep, axis=1, out=work.view(f"open{turn}", (p, m - h)), mode="clip")
            neg_tol = neg_tol.take(keep, out=work.view(f"tol{turn}", (m - h,)), mode="clip")
        yield x, theta, p - len(comp), hit
        if last:
            return
    raise NumericError("batch projection found rows with no feasible candidate")
