"""Weighted isotonic regression and the simple-order split check.

Provides the pool-adjacent-violators projection onto the nondecreasing
cone and the split condition that characterizes when the distance test
against the simple order separates the null from the fitted alternative.
Whether a test separates under any other cone is decided by
testing.consistency_region. All indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _arguments as check
from .errors import ContractViolationError


@dataclass(frozen=True)
class WeightedSeries:
    """Observed values with strictly positive weights (e.g. group sizes / n)."""

    values: np.ndarray
    weights: np.ndarray

    def __init__(self, values, weights=None):
        values = check.vector(values, "values")
        if values.size == 0:
            raise ContractViolationError("values must be a nonempty 1-d vector")
        weights = check.vector(np.ones(values.size) if weights is None else weights, "weights",
                               values.size)
        if not np.all(weights > 0):
            raise ContractViolationError("weights must be finite and strictly positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class IsotonicFit:
    """Result of the weighted projection onto the nondecreasing cone.

    Each maximal constant run of fitted holds the weighted average of its
    raw values, so the overall weighted mean is preserved.
    """

    fitted: np.ndarray
    objective: float


def _av(series: WeightedSeries, u: int, v: int) -> float:
    """Weighted average of values[u..v], endpoints included (0-based)."""
    w = series.weights[u : v + 1]
    return float(w @ series.values[u : v + 1] / w.sum())


def pava(series: WeightedSeries) -> IsotonicFit:
    """Weighted least-squares projection onto the nondecreasing cone.

    Stack-based adjacent pooling, O(K). The test suite checks it against
    the min-max block-average formula and against project_cone.
    """
    values, weights = check.instance(series, WeightedSeries, "series").values, series.weights
    # each stack entry: [start, stop, weight sum, weighted mean]
    stack: list[list] = []
    for i, (v, w) in enumerate(zip(values, weights)):
        stack.append([i, i + 1, w, v])
        while len(stack) > 1 and stack[-2][3] >= stack[-1][3]:
            hi = stack.pop()
            lo = stack.pop()
            wsum = lo[2] + hi[2]
            mean = (lo[2] * lo[3] + hi[2] * hi[3]) / wsum
            stack.append([lo[0], hi[1], wsum, mean])
    fitted = np.empty_like(values)
    for start, stop, _, mean in stack:
        fitted[start:stop] = mean
    objective = float(weights @ (values - fitted) ** 2)
    return IsotonicFit(fitted=fitted, objective=objective)


@dataclass(frozen=True)
class SplitCheck:
    """Outcome of the simple-order split condition.

    witness is the smallest 0-based index i such that every left block
    average over [s..i] stays strictly below every right block average over
    [i+1..t]; None when no such split exists.
    """

    consistent: bool
    witness: int | None


def simple_order_consistency(series: WeightedSeries) -> SplitCheck:
    """Strict split condition for the simple (nondecreasing) order.

    True iff for some i the means separate into at least two level sets:
    max_{s<=i} Av(s, i) < min_{t>=i+1} Av(i+1, t). The inequality is strict
    with no tolerance slack; ties count as "no split".
    """
    k = len(check.instance(series, WeightedSeries, "series"))
    if k < 2:
        raise ContractViolationError("need at least two groups")
    for i in range(k - 1):
        left = max(_av(series, s, i) for s in range(i + 1))
        right = min(_av(series, i + 1, t) for t in range(i + 1, k))
        if left < right:
            return SplitCheck(consistent=True, witness=i)
    return SplitCheck(consistent=False, witness=None)
