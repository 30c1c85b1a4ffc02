"""Chi-bar-square mixtures: weights, tail probabilities, critical values.

The squared metric norm of a Gaussian vector projected onto a convex cone
is distributed as a mixture of chi-square laws whose weights are the
probabilities of landing on a face of each dimension. This module provides
the closed-form weights for two-dimensional orthants, exact weights up to
p = EXACT_MAX_DIM = 8 by Kudô's face decomposition with Plackett's orthant
reduction (weights_exact, deterministic, in quadrature passes of 16, 32,
64 and 128 nodes), Monte Carlo weight estimation by face counting
(weights_monte_carlo, on request up to p = 16, and the oracle the exact
weights are tested against), the one rule that picks among them
(orthant_weights), upper/joint tails, attained_level, and critical values.

A critical value is the point a plain bisection returns: bracket doubling
from 1, then halving from 0 until a midpoint's tail is within
min(1e-10, 1e-8 alpha) of the level. solve_critical replays that bisection
without evaluating most of its steps: Newton steps on the mixture density
find the two edges of the stopping band, one tail evaluation just outside
each edge certifies it, and since the true tail is monotone a certified
point decides the branch of every step beyond it. So the value is the
bisection's bit for bit, from about a fifth of its tail passes.

Conventions for the zero-degree-of-freedom component (point mass at 0):
P(chi2_0 >= t) = 1 if t <= 0 else 0, and P(chi2_0 < t) = 1 if t > 0 else 0.
The one exception is the joint tail's pre-test factor, which reads 1 at
df = 0 at every c2, c2 = 0 included: a zero residual is always certified.

The chi-square tails of integer df use only the standard library. With
x = t/2 and a = df/2, the lower tail is the regularized lower incomplete
gamma by its power series P(a, x) = x^a e^-x / Gamma(a + 1) *
sum_n x^n / ((a + 1) ... (a + n)) where x <= a + 1, so that a small t does
not cancel, and the upper tail is 1 - P(a, x) there. For x > a + 1 the
upper tail is the finite series of Abramowitz & Stegun 26.4.4 (odd df,
erfc(sqrt x) plus df // 2 terms) and 26.4.5 (even df, e^-x times df / 2
terms), and the lower tail is its complement. Both tails are therefore
complementary to the rounding of one subtraction. The series of df is a
prefix of that of df + 2, so one pass per parity gives the upper series of
every df a mixture needs, and every tail reads from that one evaluator.
Where a direct form leaves the doubles (x^a or Gamma(a + 1) overflows, or
e^-x falls below the normal range), its term x^b e^-x / Gamma(b + 1) is
evaluated in logs, so the tails hold to any df; everywhere else they keep
the direct form's bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _arguments as check
from .errors import (
    CapabilityError,
    ContractViolationError,
    InfeasibleLevelError,
    NumericError,
)
from .geometry import Metric, _Workspace, _orthant_blocks, _orthant_operators

#: Documented default seed used by every stochastic entry point.
DEFAULT_SEED = 1729

#: Default number of Monte Carlo replications for weight estimation.
DEFAULT_MC_DRAWS = 1_000_000

#: Largest dimension weights_exact accepts; one 16-node pass takes about 70 ms at p = 8
#: (one core, one BLAS thread).
EXACT_MAX_DIM = 8

# Gauss-Legendre nodes per Plackett integral on each pass of weights_exact
_NODE_COUNTS = (16, 32, 64, 128)
_EXACT_TOL = 1e-13
# node rows, (matrix, pair) times nodes, in one chunk of the orthant
# reduction: each float64 node buffer of a chunk holds at most 128 KiB
_ORTHANT_CHUNK = 1 << 14
# most floats (4 MiB) of conditioned matrices that one stack of the orthant walk writes
_STACK_FLOATS = 1 << 19
_MC_CHUNK = 1 << 15
_BISECT_TOL = 1e-10
_BISECT_REL_TOL = 1e-8
_BISECT_MAX_ITER = 200
# the certificates of solve_critical's replay; see _solve_band
_CERT_MARGIN = 1e-12
_CERT_MAX_DIM = 100
_CERT_MIN_LEVEL = 1e-200
_NEWTON_MAX_ITER = 40
# largest x at which e^-x is a normal double
_EXP_NORMAL = -math.log(sys.float_info.min)


def chi2_sf(t: float, df: int) -> float:
    """Upper tail P(chi2_df >= t) for integer df >= 1 (df = 0 handled by mixtures)."""
    df = check.integer(df, 1, "df")
    return _chi2_tails(check.real(t, "t"), df)[0][df]


def _chi2_tails(t: float, p: int) -> tuple[list[float], list[float]]:
    """(sf, cdf) with sf[df] = P(chi2_df >= t) and cdf[df] = P(chi2_df < t) for
    df = 0..p, df = 0 by the point-mass convention; the one tail evaluator.

    The df with x = t/2 > df/2 + 1 form a prefix 1..m, read from one pass of
    the upper series; every other df runs its own lower-gamma series.
    """
    x = 0.5 * t
    m = 0
    while m < p and x > 0.5 * (m + 1) + 1.0:
        m += 1
    upper = _upper_series(x, m)
    sf, cdf = [1.0 if t <= 0 else 0.0, *upper], [1.0 if t > 0 else 0.0]
    for v in upper:
        cdf.append(1.0 - v)
    for df in range(m + 1, p + 1):
        v = _lower_gamma_series(x, 0.5 * df)
        sf.append(1.0 - v)
        cdf.append(v)
    return sf, cdf


def _lower_gamma_series(x: float, a: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series (x <= a + 1);
    where x^a or Gamma(a + 1) overflows, its prefactor is _poisson_term(a, x)."""
    if x <= 0.0:
        return 0.0
    term = total = 1.0
    n = a
    while term > 1e-17 * total:
        n += 1.0
        term *= x / n
        total += term
    try:
        v = total * x ** a * math.exp(-x) / math.gamma(a + 1.0)
        if v <= 1.0:        # a probability; an overflow left inf
            return v
    except OverflowError:   # x^a or Gamma(a + 1) past the doubles
        pass
    return total * _poisson_term(a, x)


def _upper_series(x: float, m: int) -> list[float]:
    """P(chi2_df >= 2x) for df = 1..m, at index df - 1, by Abramowitz & Stegun
    26.4.4 (odd df) and 26.4.5 (even df). The series of df is a prefix of that
    of df + 2, so each parity is summed once and read off after each term.
    Where e^-x is below the normal range, each df adds its last term,
    x^b e^-x / Gamma(b + 1) with b = df/2 - 1, to the sum of df - 2 in logs."""
    out = [0.0] * m
    if m == 0 or math.isinf(x):
        return out
    total = out[0] = math.erfc(math.sqrt(x))
    if x > _EXP_NORMAL:
        for df in range(2, m + 1):
            out[df - 1] = (out[df - 3] if df > 2 else 0.0) + _poisson_term(0.5 * df - 1.0, x)
        return out
    term = 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
    for r in range(1, (m + 1) // 2):
        total += term
        term *= x / (r + 0.5)
        out[2 * r] = total
    total, term = 0.0, math.exp(-x)
    for r in range(1, m // 2 + 1):
        total += term
        term *= x / r
        out[2 * r - 1] = total
    return out


def _poisson_term(b: float, x: float) -> float:
    """x^b e^-x / Gamma(b + 1) for b >= 0 and x > 0, from its logarithm. From
    b = 15 on it is Loader's (2000) saddle-point form, whose exponent does not
    cancel: exp(-stirlerr(b) - bd0) / sqrt(2 pi b) with bd0 = b log(b/x) + x - b,
    summed as a series in v = (b - x) / (b + x) where |v| < 0.1, and stirlerr the
    remainder of Stirling's log Gamma(b + 1), by its asymptotic series."""
    if b < 15.0:
        return math.exp(b * math.log(x) - x - math.lgamma(b + 1.0))
    if abs(x - b) < 0.1 * (x + b):
        v = (b - x) / (b + x)
        bd0, term = (b - x) * v, 2.0 * b * v
        for k in itertools.count(3, 2):
            term *= v * v
            if bd0 + term / k == bd0:
                break
            bd0 += term / k
    else:
        bd0 = b * math.log(b / x) + x - b
    b2 = b * b
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * b2)) / b2) / b2) / b2) / b
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * b)


@dataclass(frozen=True)
class ChiBarWeights:
    """Nonnegative mixture weights (w_0, ..., w_p) summing to one.

    w_j is the probability that the metric projection of a centered Gaussian
    vector onto the nonnegative orthant lands on a face of dimension j.
    """

    w: np.ndarray
    source: str = "closed_form"
    n_draws: int | None = None
    seed: int | None = None

    def __post_init__(self):
        # a NaN weight, or none at all, fails the sum rule
        w = check.array(self.w, "weights", 1, finite=False)
        if np.any(w < -1e-12):
            raise ContractViolationError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # a NaN weight fails here too
            raise ContractViolationError(f"weights sum to {w.sum()}, not 1")
        check.choice(self.source, ("closed_form", "exact", "monte_carlo"), "weight source")
        for name, least in (("n_draws", 1), ("seed", 0)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check.integer(getattr(self, name), least, name))
        object.__setattr__(self, "w", w)

    @property
    def p(self) -> int:
        return self.w.shape[0] - 1

    def complement(self) -> "ChiBarWeights":
        """Weights of the polar cone: the reversed vector (w_p, ..., w_0).

        The residual of an orthant projection is the projection onto the
        polar cone, whose face-dimension distribution is the mirror image.
        """
        return ChiBarWeights(
            w=self.w[::-1].copy(), source=self.source, n_draws=self.n_draws, seed=self.seed
        )


def correlation_2x2(psi) -> float:
    """psi_01 / sqrt(psi_00 psi_11) of a symmetric 2 x 2 psi with a positive diagonal."""
    psi = check.array(psi, "psi", 2)
    if psi.shape != (2, 2):
        raise ContractViolationError("expected a 2 x 2 covariance")
    check.symmetric(psi, "psi")
    # dividing by a power of two is exact and keeps psi_00 psi_11 in range
    psi = np.ldexp(psi, -np.frexp(np.abs(psi).max())[1])
    if not (psi[0, 0] > 0.0 and psi[1, 1] > 0.0):
        raise ContractViolationError("psi must have a positive diagonal")
    return float(psi[0, 1] / np.sqrt(psi[0, 0] * psi[1, 1]))


def weights_closed_form_2d(rho: float) -> ChiBarWeights:
    """Exact orthant weights in two dimensions for correlation rho.

    (w_0, w_1, w_2) = (arccos(rho) / 2pi, 1/2, 1/2 - arccos(rho) / 2pi).
    With rho = 0 this is the familiar (1/4, 1/2, 1/4) quadrant mixture.
    """
    rho = check.real(rho, "rho")
    if not -1.0 < rho < 1.0:
        raise ContractViolationError(f"rho must lie in (-1, 1), not {rho!r}")
    w0 = float(np.arccos(rho) / (2.0 * np.pi))
    return ChiBarWeights(w=np.array([w0, 0.5, 0.5 - w0]))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only."""
    a.setflags(write=False)
    return a


# Index and node tables of the exact weights, built on first use and shared
# read-only; importing the module builds none of them. Their keys are bounded
# (n in _NODE_COUNTS, p <= EXACT_MAX_DIM), so the caches are too.

@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the n-node Gauss-Legendre rule on [-1, 1]."""
    return tuple(map(_frozen, np.polynomial.legendre.leggauss(n)))


@functools.lru_cache(maxsize=None)
def _subsets(p: int, d: int) -> np.ndarray:
    """(C(p, d), d) array of the d-subsets of range(p) in itertools.combinations
    order. Reversed, its rows are the complements of the (p - d)-subsets in
    that order."""
    rows = list(itertools.combinations(range(p), d))
    return _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), d))


@functools.lru_cache(maxsize=None)
def _triu_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    return tuple(map(_frozen, np.triu_indices(d, 1)))


@functools.lru_cache(maxsize=None)
def _rest(d: int) -> np.ndarray:
    """(d - 1, d - 2) array whose row k - 1 lists the variables other than X_0 and X_k."""
    return _frozen(np.array([[i for i in range(1, d) if i != k] for k in range(1, d)]))


def _orthant_probabilities(stacks: dict, nodes) -> dict:
    """P(X >= 0) for X ~ N(0, C), for each correlation matrix C of the
    (m, d, d) stacks of {d: stack}, as {d: (m,) array}; stacks is consumed.

    Dimensions up to three have closed forms. From four on, Plackett's
    reduction (1954) follows the path C(t), t from 0 to 1, that scales the
    off-diagonal entries of row and column 0 by t: at t = 0 variable 0 is
    independent of the rest, so P_d = P_{d-1}(C_{-0}) / 2, and along the path
    dP/dc_0k is the bivariate density at zero times the orthant probability
    of the other d - 2 variables given X_0 = X_k = 0. The substitution
    sin u = t c_0k removes the 1 / sqrt(1 - t^2 c_0k^2) singularity, leaving
    (1 / 2pi) sum_k int_0^{asin c_0k} P_{d-2}(conditional correlation) du,
    evaluated with the Gauss-Legendre rule nodes = (points, weights).

    The dimensions are walked down from the largest, one stack each, which
    holds the matrices asked for at d, the C_{-0} of the stack of d + 1 and
    the conditioned matrices of the stack of d + 2 (_plackett); on the way
    back up P_d is P_{d-1}(C_{-0}) / 2 plus the integrals. To bound memory,
    a stack of d >= 6 whose conditioned matrices would pass _STACK_FLOATS
    floats is cut, and each piece but the last walks down alone. Four rules
    keep every probability bit for bit that of the plain broadcast form:
    - every step reads the entries of one matrix alone, in an order that
      does not depend on the stack, so a probability has the same bits
      wherever its matrix sits in a stack, a chunk or a piece;
    - Sheppard's arcsines are added in pair order, the order of numpy's
      sequential reduction over the pair axis;
    - the operand of inner @ g is a C-contiguous (m, d - 1, n) array,
      because matmul's rounding depends on the operand's layout;
    - t = s / c_0k divides by 1 where c_0k = 0, where s is +-0, so t^2 is
      the same 0 that a masked divide would leave.
    """
    d = max(stacks)
    if d <= 3:
        return {k: 0.5 ** k + np.arcsin(c[(slice(None), *_triu_pairs(k))]).sum(axis=-1)
                / (2.0 ** (k - 1) * np.pi) for k, c in stacks.items()}
    m, r, (x, g) = len(stacks[d]), d - 2, nodes
    cap = max(1, _STACK_FLOATS // ((d - 1) * x.size * r * r))
    if r >= 4 and m > cap:
        corr, last = stacks[d], (m - 1) // cap * cap
        heads = [_orthant_probabilities({d: corr[lo:lo + cap]}, nodes)[d] for lo in range(0, last, cap)]
        stacks[d] = corr[last:]
        out = _orthant_probabilities(stacks, nodes)
        return {**out, d: np.concatenate(heads + [out[d]])}
    sizes = {k: len(s) for k, s in stacks.items() if k != d}
    top, integral = _plackett(stacks.pop(d), stacks, nodes)
    probs = _orthant_probabilities(stacks, nodes)
    if r >= 4:
        inner = probs[d - 2][sizes.get(d - 2, 0):].reshape(m, d - 1, x.size)
        integral = (0.5 * top * (inner @ g)).sum(axis=1)
    return {d: 0.5 * probs[d - 1][sizes.get(d - 1, 0):] + integral / (2.0 * np.pi),
            **{k: probs[k][:size] for k, size in sizes.items()}}


def _plackett(corr: np.ndarray, stacks: dict, nodes) -> tuple:
    """Walk one (m, d, d) stack, d >= 4, down: append its C_{-0} to the stack
    of d - 1 and, for d >= 6, its conditioned matrices to that of d - 2, and
    return top = asin c_0k and, for d <= 5, the leaf's integrals summed over
    k. The node terms are built in place, in chunks of at most _ORTHANT_CHUNK
    node rows, (m, d - 1) pairs times n nodes, that share 128 KiB buffers."""
    (m, d), (x, g) = corr.shape[:2], nodes
    n, r, rest = x.size, d - 2, _rest(d)
    stacks[d - 1] = np.concatenate([stacks.get(d - 1, corr[:0, 1:, 1:]), corr[:, 1:, 1:]])
    tops, step = np.arcsin(corr[:, 0, 1:]), max(1, _ORTHANT_CHUNK // ((d - 1) * n))
    if r <= 3:   # q, then one buffer per pair (the first is s), one per diagonal term
        buffers, out = np.empty((1 + r * (r - 1) // 2 + r, min(m, step), d - 1, n)), np.empty(m)
    else:        # q and s; the conditioned matrices are written straight into the stack
        buffers, held = np.empty((2, min(m, step), d - 1, n)), stacks.get(d - 2, corr[:0, 2:, 2:])
        stacks[d - 2] = np.empty((len(held) + m * (d - 1) * n, r, r))
        stacks[d - 2][:len(held)] = held
        out = stacks[d - 2][len(held):].reshape(m, d - 1, n, r, r)
    for lo in range(0, m, step):
        chunk, top = corr[lo:lo + step], tops[lo:lo + step]
        work = buffers[:, :len(chunk)]
        c0 = chunk[:, 0, 1:]                                     # (m, d-1): c_0k
        ck = chunk[:, 1:][:, np.arange(d - 1)[:, None], rest]    # (m, d-1, r): c_kR
        # Given X_k, then X_0 under C(t): the first step leaves base, the second
        # subtracts q f f' with f = c_0R - c_0k c_kR and q = t^2 / (1 - t^2 c_0k^2).
        # The nodes run along the last axis, which keeps numpy's inner loops long.
        base = chunk[:, rest[:, :, None], rest[:, None, :]] - ck[..., :, None] * ck[..., None, :]
        f = chunk[:, 0, rest] - c0[..., None] * ck
        q, s = work[0], work[1]
        np.multiply((0.5 * top)[..., None], x + 1.0, out=s)
        np.sin(s, out=s)                                         # t c_0k
        np.divide(s, np.where(c0 != 0.0, c0, 1.0)[..., None], out=q)
        np.multiply(q, q, out=q)
        np.multiply(s, s, out=s)
        np.subtract(1.0, s, out=s)
        np.divide(q, s, out=q)
        if r >= 4:
            cond = out[lo:lo + step]
            ff = f[..., :, None] * f[..., None, :]
            np.multiply(q[..., None, None], ff[:, :, None], out=cond)
            np.subtract(base[:, :, None], cond, out=cond)
            sd = np.sqrt(np.diagonal(cond, axis1=-2, axis2=-1))
            np.divide(cond, sd[..., :, None] * sd[..., None, :], out=cond)
            continue
        # Sheppard's form of the conditioned pairs (i, j), one buffer each;
        # the products of their diagonal terms go to pair, and their
        # correlations to diag, whose terms are no longer needed by then
        i, j = _triu_pairs(r)
        pair, diag = work[1:1 + i.size], work[1 + i.size:]
        np.multiply(q, (f * f).transpose(2, 0, 1)[..., None], out=diag)
        bd = np.diagonal(base, axis1=-2, axis2=-1).transpose(2, 0, 1)
        np.subtract(bd[..., None], diag, out=diag)
        for a in range(r - 1):   # pairs (a, a + 1), ..., (a, r - 1) are adjacent
            lo_a = a * (2 * r - a - 1) // 2
            np.multiply(diag[a], diag[a + 1:], out=pair[lo_a:lo_a + r - 1 - a])
        np.sqrt(pair, out=pair)
        rho = diag[:i.size]
        np.multiply(q, (f[..., i] * f[..., j]).transpose(2, 0, 1)[..., None], out=rho)
        np.subtract(base[..., i, j].transpose(2, 0, 1)[..., None], rho, out=rho)
        np.divide(rho, pair, out=rho)
        np.arcsin(rho, out=rho)
        inner = rho[0]
        for k in range(1, i.size):
            inner += rho[k]
        inner /= 2.0 ** (r - 1) * np.pi
        inner += 0.5 ** r
        out[lo:lo + step] = (0.5 * top * (inner @ g)).sum(axis=1)
    return tops, out if r <= 3 else None


def weights_exact(psi) -> ChiBarWeights:
    """Orthant weights by Kudô's face decomposition, deterministic and exact:
    w_j = sum over |J| = j of P(N(0, ((C^-1)_JJ)^-1) >= 0) P(N(0, (C_J'J')^-1) >= 0),
    C the correlation of psi and J' the complement of J.

    Only the correlation of psi matters. Orthant probabilities of dimension
    four and up are Plackett integrals evaluated by Gauss-Legendre
    quadrature, in one pass per node count of _NODE_COUNTS = (16, 32, 64,
    128). The first pass whose weights meet sum_j w_j = 1 and
    sum_j (-1)^j w_j = 0 to 1e-13 returns them; they are never
    renormalised. NumericError is raised, and the weights left to Monte
    Carlo, by the first pass whose weights are not finite, by a 128-node
    pass that still misses the identities (correlations very near +-1),
    and by a correlation matrix or face block singular in floating point.
    p above EXACT_MAX_DIM raises CapabilityError: one 16-node pass takes about
    0.7 s at p = 9 and 11 s at p = 10, nearly all of it in the Plackett
    integrals, and each doubling multiplies that by about 12.

    One pass costs about 0.1 ms at p = 3, 0.7 ms at p = 5, 6 ms at p = 7
    and 70 ms at p = 8 with 16 nodes, on one core with one BLAS thread. The
    node rules and the subset and index tables are built once per size, on
    first use, and shared read-only. The face blocks are built once per
    call, one gather and one inversion per face dimension, and each node
    rule only walks them, all in one walk (_orthant_probabilities).

    Parameters
    ----------
    psi : Metric or array_like
        SPD covariance of the Gaussian vector projected onto the orthant.
    """
    metric = psi if isinstance(psi, Metric) else Metric(psi)
    if metric.dim > EXACT_MAX_DIM:
        raise CapabilityError(f"exact weights support p <= {EXACT_MAX_DIM}, not {metric.dim}")
    sd = np.sqrt(np.diag(metric.sigma))
    corr = metric.sigma / np.outer(sd, sd)
    try:
        prec = np.linalg.inv(corr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"psi is singular in floating point ({exc})") from exc
    # roundoff past |rho| = 1 or below a zero variance gives NaN, checked below
    p, blocks = metric.dim, {}
    try:
        with np.errstate(invalid="ignore"):
            for d in range(p + 1):
                sub = _subsets(p, d)
                comp = sub[::-1]                 # complements of the (p - d)-subsets
                blocks[d] = np.concatenate([prec[sub[:, :, None], sub[:, None, :]],
                                            corr[comp[:, :, None], comp[:, None, :]]])
                if d >= 2:
                    inv = np.linalg.inv(blocks[d])
                    sd = np.sqrt(np.diagonal(inv, axis1=1, axis2=2))
                    blocks[d] = inv / (sd[:, :, None] * sd[:, None, :])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"a face block of psi is singular in floating point ({exc})") from exc
    n = [math.comb(p, j) for j in range(p + 1)]
    for n_nodes in _NODE_COUNTS:
        # the walk replaces entries of the dict that it is given, never an array in it
        with np.errstate(invalid="ignore"):
            probs = _orthant_probabilities(dict(blocks), _gauss_legendre(n_nodes))
            w = np.array([probs[j][:n[j]] @ probs[p - j][n[j]:] for j in range(p + 1)])
        residual = _identity_residual(w)
        if not np.isfinite(residual):
            raise NumericError(
                f"exact weights are not finite at {n_nodes} quadrature nodes; "
                "use weights_monte_carlo"
            )
        if residual <= _EXACT_TOL:
            return ChiBarWeights(w=w, source="exact")
    raise NumericError(
        f"exact weights missed the sum and parity identities by {residual:.3g} "
        f"at {n_nodes} quadrature nodes; use weights_monte_carlo"
    )


def orthant_weights(psi, n_draws: int = DEFAULT_MC_DRAWS, seed: int = DEFAULT_SEED) -> ChiBarWeights:
    """Orthant weights of an SPD array psi by the one rule of the library.

    - p = 1: (1/2, 1/2), exact by symmetry;
    - p = 2: weights_closed_form_2d, where the correlation that
      correlation_2x2 reads from psi as given lies in (-1, 1);
    - 3 <= p <= EXACT_MAX_DIM: weights_exact;
    - everything else, weights_monte_carlo(psi, n_draws, seed): p above
      EXACT_MAX_DIM, a NumericError of weights_exact (correlations very
      near +-1, or a correlation matrix or face block singular in floating
      point), and a p = 2 correlation that rounds to +-1. Monte Carlo ends
      at p = 16 (its projection table holds 2^p operators): p > 16 raises
      CapabilityError.

    n_draws and seed are checked at every p. psi must be a finite, non-empty
    square matrix with, at p = 2, a positive diagonal and Metric's symmetry
    (ContractViolationError); a psi handed on, a p = 1 psi <= 0 included,
    must pass Metric.
    """
    n_draws, seed = check.integer(n_draws, 1, "n_draws"), check.integer(seed, 0, "seed")
    sigma = check.array(psi, "psi", 2)
    p = sigma.shape[0]
    if sigma.shape != (p, p) or p == 0:
        raise ContractViolationError(f"psi must be a non-empty square matrix, not {sigma.shape}")
    if p == 1 and sigma[0, 0] > 0.0:
        return ChiBarWeights(w=np.array([0.5, 0.5]))
    if p == 2:
        rho = correlation_2x2(sigma)
        if -1.0 < rho < 1.0:
            return weights_closed_form_2d(rho)
    elif p <= EXACT_MAX_DIM:
        try:
            return weights_exact(sigma)
        except NumericError:
            pass
    return weights_monte_carlo(sigma, n_draws, seed)


def _identity_residual(w: np.ndarray) -> float:
    """Largest breach of sum_j w_j = 1 and sum_j (-1)^j w_j = 0 (NaN propagates)."""
    signs = np.where(np.arange(w.size) % 2 == 0, 1.0, -1.0)
    return float(np.max(np.abs([w.sum() - 1.0, signs @ w])))


def weights_monte_carlo(psi, n_draws: int = DEFAULT_MC_DRAWS, seed: int = DEFAULT_SEED) -> ChiBarWeights:
    """Estimate orthant weights by projecting Gaussian draws and counting faces.

    Draws are generated in fixed-size chunks, each from its own stream
    spawned from the seed by _seeded_chunks (which seeds the power harness
    too), and the face counts are merged in chunk order, so the result is
    reproducible bit-for-bit for a given (psi, n_draws, seed). The draws
    are projected by _orthant_blocks, the KKT-certified pass that
    project_orthant_batch wraps, with its 2^p support operators and one
    workspace built once per call (p <= 16, else CapabilityError): each
    chunk is drawn and transformed into the workspace, and the certificate
    decides each face, a support of size j adding its block's size to the
    count of w_j. No projection is put back into row order. Each draw adds
    +-1 to N sum_j (-1)^j w_j, whose true value is 0, so a parity beyond six
    of its standard errors, 6 / sqrt(N), raises NumericError naming
    cond(psi): roundoff in the projection, not chance.

    Parameters
    ----------
    psi : Metric or array_like
        SPD covariance of the Gaussian draws; also the projection metric.
    n_draws : int
        Number of replications N; the estimates are exact counts / N.
    seed : int
        Root seed for the chunk streams.
    """
    metric = psi if isinstance(psi, Metric) else Metric(psi)
    n_draws = check.integer(n_draws, 1, "n_draws")
    seed = check.integer(seed, 0, "seed")
    p = metric.dim
    chol = metric.chol_lower
    table = _orthant_operators(metric)
    work = _Workspace(p * min(n_draws, _MC_CHUNK))
    counts = np.zeros(p + 1, dtype=np.int64)
    for child, size in _seeded_chunks(seed, n_draws, _MC_CHUNK):
        draws = np.random.default_rng(child).standard_normal(out=work.view("draws", (size, p)))
        xt = np.matmul(chol, draws.T, out=work.view("points", (p, size)))
        for x, _, face, _ in _orthant_blocks(xt, table, work):
            counts[face] += x.shape[1]
    parity = int(counts[::2].sum() - counts[1::2].sum())
    if abs(parity) > 6.0 * math.sqrt(n_draws):
        raise NumericError(
            f"Monte Carlo weights miss the parity identity by {parity / n_draws:.3g} "
            f"({abs(parity) / math.sqrt(n_draws):.3g} standard errors); psi is "
            f"ill-conditioned, cond {np.linalg.cond(metric.sigma):.3g}")
    return ChiBarWeights(
        w=counts / float(n_draws), source="monte_carlo", n_draws=n_draws, seed=seed
    )


def _seeded_chunks(seed: int, total: int, chunk: int):
    """(SeedSequence child, size) of each fixed-size chunk of total draws, in
    order; child i is the i-th spawn of SeedSequence(seed), whoever draws it."""
    n_chunks = (total + chunk - 1) // chunk
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield child, min(chunk, total - i * chunk)


def mixture_upper_tail(weights: ChiBarWeights, t: float) -> float:
    """P(mixture >= t) = sum_j w_j P(chi2_j >= t) with the chi2_0 convention.

    At t = 0 this is the total mass, returned as exactly 1.0 rather than
    a rounded sum of the weights; just above 0 it drops to 1 - w_0.
    """
    check.instance(weights, ChiBarWeights, "weights")
    t = check.real(t, "t", nonnegative=True)
    if t == 0:
        return 1.0
    return _joint_sum(weights.w.tolist(), _chi2_tails(t, weights.p)[0], [1.0] * (weights.p + 1))


def joint_tail(weights: ChiBarWeights, c1: float, c2: float) -> float:
    """P(T >= c1, T' < c2 or T' = 0) for the projection statistic and its residual.

    T is the squared norm of the orthant projection, T' the squared norm of
    the polar residual; under the apex null the pair factorizes over the
    face dimension j, giving sum_j w_j P(chi2_j >= c1) P(chi2_{p-j} < c2).
    The full support (j = p) leaves T' = 0, which the pre-test certifies, so
    its factor is 1 at every c2; at c2 = 0 the sum is w_p P(chi2_p >= c1).
    """
    check.instance(weights, ChiBarWeights, "weights")
    c1 = check.real(c1, "c1", nonnegative=True)
    c2 = check.real(c2, "c2", nonnegative=True)
    return _joint_sum(weights.w.tolist(), _chi2_tails(c1, weights.p)[0],
                      _pretest_factors(c2, weights.p))


def attained_level(weights: ChiBarWeights, c_alpha: float, c_gamma: float) -> float:
    """Level of the composite region {t >= c_alpha, t > 0} and {t' < c_gamma or
    t' = 0}: joint_tail(c_alpha, c_gamma) where c_alpha > 0, and at c_alpha = 0
    its limit as c -> 0+, since joint_tail at 0 counts the apex (t = 0)."""
    check.instance(weights, ChiBarWeights, "weights")
    c_alpha = check.real(c_alpha, "c_alpha", nonnegative=True)
    c_gamma = check.real(c_gamma, "c_gamma", nonnegative=True)
    w, cdf2 = weights.w.tolist(), _pretest_factors(c_gamma, weights.p)
    if c_alpha > 0.0:
        return _joint_sum(w, _chi2_tails(c_alpha, weights.p)[0], cdf2)
    return _joint_at_zero(w, cdf2)[1]


def _pretest_factors(c2: float, p: int) -> list[float]:
    """P(chi2_df < c2 or chi2_df = 0) for df = 0..p: the pre-test factors of joint_tail."""
    return [1.0, *_chi2_tails(c2, p)[1][1:]]


def _joint_sum(w: list[float], sf: list[float], cdf: list[float]) -> float:
    """sum_j w[j] sf[j] cdf[p - j], every weighted chi-bar sum: joint_tail with sf
    at c1 and cdf at c2, or with cdf all ones a mixture's tail or density."""
    p = len(w) - 1
    total = 0.0
    for j in range(p + 1):
        total += w[j] * sf[j] * cdf[p - j]
    return total


def _joint_at_zero(w: list[float], cdf2: list[float]) -> tuple[float, float]:
    """The joint tail at c1 = 0 and its limit as c1 -> 0+, without the apex's term."""
    sup = _joint_sum(w, [1.0] * len(w), cdf2)   # every P(chi2_df >= 0) is 1
    return sup, sup - w[0] * cdf2[-1]


def _chi2_densities(t: float, p: int) -> list[float]:
    """Densities of chi2_df at t > 0 for df = 0..p, with 0 at df = 0; each is
    the one two df below times t / (df - 2)."""
    e = math.exp(-0.5 * t)
    dens = [0.0, e / math.sqrt(2.0 * math.pi * t), 0.5 * e]
    for df in range(3, p + 1):
        dens.append(dens[df - 2] * t / (df - 2))
    return dens[:p + 1]


def solve_critical(weights: ChiBarWeights, alpha: float, mode: str = "marginal",
                   c2: float | None = None) -> float:
    """Critical value: the bisection for tail(c) = alpha, replayed from certified band edges.

    mode="joint" returns c with joint_tail(c, c2) = alpha and raises
    InfeasibleLevelError when alpha exceeds joint_tail(0, c2), which counts
    the apex, by more than min(1e-9, 1e-7 alpha); its attainable is the
    level the region reaches as c -> 0+. mode="marginal"
    returns c with mixture_upper_tail(c) = alpha, the joint tail with every
    pre-test factor 1 (c2 = inf). When alpha is at or above the tail's limit
    from the right at zero (1 - w_0 in the marginal mode) the solution
    region collapses and 0 is returned.

    The value returned is defined by a plain bisection: double hi from 1
    while tail(hi) > alpha, then halve [0, hi] until a midpoint's tail is
    within tol = min(1e-10, 1e-8 alpha) of alpha, and return that midpoint.
    The band is relative below alpha = 0.01, where 1e-8 alpha equals 1e-10,
    so small levels get a tail within 1e-8 of alpha relative, not only
    within 1e-10. Each step's branch depends only on where its point lies
    against the band [alpha - tol, alpha + tol] of computed tails, so
    _solve_band finds the band edges by safeguarded Newton steps on the
    mixture density first, certifies them, and then replays the doubling
    and the bisection step by step, evaluating the tail only at points its
    certificates do not decide. The result equals the plain bisection's bit
    for bit, from about six tail evaluations instead of about 33.
    """
    check.instance(weights, ChiBarWeights, "weights")
    alpha = check.level(alpha, "alpha")
    w = weights.w.tolist()
    p = weights.p
    if check.choice(mode, ("marginal", "joint"), "mode") == "marginal":
        cdf2, limit_above_zero = [1.0] * (p + 1), 1.0 - w[0]
    else:
        c2 = check.real(c2, "c2 (joint mode needs a nonnegative c2)", nonnegative=True)
        cdf2 = _pretest_factors(c2, p)
        sup, limit_above_zero = _joint_at_zero(w, cdf2)
        # c2 usually comes from a bisection, so a request above the supremum
        # by at most ten bisection bands at alpha, min(1e-9, 1e-7 alpha), counts
        # as feasible; an absolute slack would admit 100x a supremum of 1e-12
        if alpha > sup + 10.0 * min(_BISECT_TOL, _BISECT_REL_TOL * alpha):
            raise InfeasibleLevelError(
                f"requested level {alpha} exceeds {sup:.12g}, the joint tail at c = 0, which "
                f"counts the apex; the region reaches {limit_above_zero:.12g} as c -> 0+",
                attainable=limit_above_zero,
            )
    if alpha >= limit_above_zero:
        return 0.0
    coef = [w[j] * cdf2[p - j] for j in range(p + 1)]
    return _solve_band(lambda c: _joint_sum(w, _chi2_tails(c, p)[0], cdf2), coef, alpha)


def _solve_band(tail, coef: list[float], alpha: float) -> float:
    """The bisection of solve_critical, replayed: tail(c) is the computed
    mixture tail sum_j coef[j] P(chi2_j >= c) at c > 0, decreasing from above
    alpha, and the result equals the plain bisection's for every input.

    Certificate. Where the coefficients are nonnegative, p <= _CERT_MAX_DIM
    and alpha >= _CERT_MIN_LEVEL, each computed tail is within a relative
    1e-13 of the true tail with the same coefficients, up to underflow below
    1e-240: it sums at most p + 1 positive terms, each a series of positive
    terms or one minus a series below 0.92. The true tail is nonincreasing.
    So a point c whose computed tail reaches alpha + tol + m, with the margin
    m = _CERT_MARGIN alpha, shows that every point at or left of c would
    compute a tail above alpha + tol, even after the rounding of val - alpha;
    a point whose tail is at most alpha - tol - m shows the same below the
    band for every point at or right of it. Every tail evaluated updates
    left and right, the nearest such points; the replay evaluates only the
    points strictly between them. Elsewhere nothing is certified and every
    point is evaluated, which is the plain bisection itself.

    The edges. _locate_band takes safeguarded Newton steps on log tail with
    the mixture density sum_j coef[j] f_j, from a Wilson-Hilferty start,
    until a step lands within about tol / 20 of the root of tail = alpha:
    measured, with the tail within tol / 16 of alpha, or predicted from the
    quadratic convergence of the last two steps. The band edges lie about
    tol / density either side of that root, and one evaluation a quarter
    band beyond each edge certifies it. A step that leaves the bracket, or a
    density of 0 or inf, falls back to halving; a Newton solve or a
    certificate that fails leaves fewer points certified, never a wrong
    branch.
    """
    tol = min(_BISECT_TOL, _BISECT_REL_TOL * alpha)
    left, right = -math.inf, math.inf
    certify = min(coef) >= 0.0 and len(coef) - 1 <= _CERT_MAX_DIM and alpha >= _CERT_MIN_LEVEL
    margin = _CERT_MARGIN * alpha
    above, below = (alpha + tol + margin, alpha - tol - margin) if certify else (math.inf, -math.inf)

    def evaluate(c):
        nonlocal left, right
        val = tail(c)
        if val >= above:
            left = max(left, c)
        elif val <= below:
            right = min(right, c)
        return val

    if certify:
        _locate_band(evaluate, coef, alpha, tol)
    hi = 1.0
    while hi <= left or (hi < right and evaluate(hi) > alpha):
        hi *= 2.0
        if hi > 1e12:
            raise NumericError("bisection bracket grew without bound")
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= left:
            lo = mid
        elif mid >= right:
            hi = mid
        else:
            val = evaluate(mid)
            if abs(val - alpha) <= tol:
                return mid
            if val > alpha:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _locate_band(evaluate, coef: list[float], alpha: float, tol: float) -> None:
    """Newton steps on log tail towards tail = alpha, then one evaluation a
    quarter band beyond each band edge; evaluate records what each value
    certifies (see _solve_band)."""
    p, ones = len(coef) - 1, [1.0] * len(coef)
    lo, hi = 0.0, math.inf                  # tail(lo) > alpha >= tail(hi)
    c, last = _newton_start(coef, alpha), 0.0
    for _ in range(_NEWTON_MAX_ITER):
        val = evaluate(c)
        dens = _joint_sum(coef, _chi2_densities(c, p), ones)
        if val > alpha:
            lo = c
        else:
            hi = c
        if val > 0.0 and 0.0 < dens < math.inf:
            step = math.log(val / alpha) * val / dens
            root = c + step
            # root is near the band's centre when c is, or when the quadratic
            # convergence of the last two steps predicts it to a twentieth of tol
            if abs(val - alpha) <= tol / 16.0 or (
                    lo < root < hi and step * step * abs(step) <= 0.05 * tol / dens * last * last):
                half = 1.25 * tol / dens
                if root - half > 0.0:
                    evaluate(root - half)
                evaluate(root + half)
                return
            if lo < root < hi:
                c, last = root, abs(step)
                continue
        # no usable step: grow, shrink towards 0, or halve the bracket
        c, last = (2.0 * lo if hi == math.inf else 0.125 * hi if lo == 0.0
                   else 0.5 * (lo + hi)), 0.0


def _newton_start(coef: list[float], alpha: float) -> float:
    """Wilson-Hilferty's upper alpha / s quantile of chi2_m, where s and m are
    the total and mean df of coef over df >= 1, with the normal quantile of
    Abramowitz & Stegun 26.2.23 (absolute error below 4.5e-4)."""
    s = sum(coef) - coef[0]
    if not alpha < s:
        return 1.0
    q = alpha / s
    m = sum(j * a for j, a in enumerate(coef)) / s
    u = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = u - (2.515517 + u * (0.802853 + u * 0.010328)) / (
        1.0 + u * (1.432788 + u * (0.189269 + u * 0.001308)))
    k = 2.0 / (9.0 * m)
    return m * max(1.0 - k + math.copysign(z, 0.5 - q) * math.sqrt(k), 0.1) ** 3
