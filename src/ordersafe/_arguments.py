"""The argument rules of every public entry point.

Each rule returns the accepted value in the form the library computes with,
or raises ContractViolationError naming the argument. Numbers are Python or
numpy numbers, never bool or str; arrays must have an integer or float
dtype (never bool, str or object), must hold no bool at any depth, and are
converted as np.asarray(x, dtype=float) would convert them. Each rule is
O(1) Python plus at most one conversion and one finiteness pass per array;
an input that is not an ndarray also pays one pass over its entries.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ContractViolationError


def integer(value, least: int, name: str, kind: str | None = None) -> int:
    """int(value) for an integer >= least; bool is not an integer.

    kind states the rule in the message; by default "an integer >= least",
    or "nonnegative and an integer" when least is 0.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    if kind is None:
        kind = "nonnegative and an integer" if least == 0 else f"an integer >= {least}"
    raise ContractViolationError(f"{name} must be {kind}, not {value!r}")


def sample_size(value) -> int:
    """int(value) for a sample size n, an integer in [1, 2**53]; above 2**53
    the float products n * distance would round n itself."""
    n = integer(value, 1, "n")
    if n > 2**53:
        raise ContractViolationError(f"n must be no larger than 2**53, not {n!r}")
    return n


def real(value, name: str, nonnegative: bool = False) -> float:
    """float(value) for a real number that is not NaN, and >= 0 when nonnegative.

    Infinity is accepted: a tail at t = inf is defined, and a level or
    correlation is bounded by its own range check.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.nan
        if v >= (0.0 if nonnegative else -math.inf):
            return v
    kind = "a nonnegative" if nonnegative else "a real"
    raise ContractViolationError(f"{name} must be {kind} number, not {value!r}")


def level(value, name: str) -> float:
    """float(value) for a real number in the open interval (0, 1)."""
    v = real(value, name)
    if not 0.0 < v < 1.0:
        raise ContractViolationError(f"{name} must lie in (0, 1), not {value!r}")
    return v


def array(x, name: str, ndim: int, finite: bool = True, rows: int | None = None) -> np.ndarray:
    """A read-only, C-ordered float copy of x with ndim dimensions (the
    matrix rule at ndim 2) and, if rows is given, rows entries along its
    first axis, checked to be finite unless finite is False."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # ragged nesting
        raise ContractViolationError(f"{name} must be an array of numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ContractViolationError(f"{name} must hold numbers, not {a.dtype} values")
    # numpy converts a bool inside a list to a number; only a non-array can hide one
    if not isinstance(x, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat):
        raise ContractViolationError(f"{name} must hold numbers, not bool values")
    if a.ndim != ndim:
        raise ContractViolationError(f"{name} must be a {ndim}-d array, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ContractViolationError(f"{name} has length {a.shape[0]}, expected {rows}")
    a = np.array(a, dtype=float, order="C")
    if finite and not np.isfinite(a).all():
        raise ContractViolationError(f"{name} has non-finite entries; {name} must be finite")
    a.setflags(write=False)
    return a


def vector(x, name: str, dim: int | None = None) -> np.ndarray:
    """array(x, name, 1), of length dim when dim is given."""
    return array(x, name, 1, rows=dim)


def instance(value, kind: type, name: str):
    """value itself, after checking it is a kind."""
    if not isinstance(value, kind):
        raise ContractViolationError(
            f"{name} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def choice(value, options, name: str) -> str:
    """value itself, after checking it is a str among options."""
    if not (isinstance(value, str) and value in options):
        raise ContractViolationError(f"unknown {name} {value!r}")
    return value


def items(value, name: str) -> tuple:
    """tuple(value) for an iterable value."""
    try:
        return tuple(value)
    except TypeError:
        raise ContractViolationError(
            f"{name} must be a sequence, not {type(value).__name__}") from None
