"""Exception taxonomy used across the library and mapped to CLI exit codes."""


class OrderSafeError(Exception):
    """Base class for all library errors."""


class ContractViolationError(OrderSafeError, ValueError):
    """An argument violates a documented precondition (shape, range, pairing)."""


class CapabilityError(OrderSafeError):
    """The request exceeds what the selected algorithm supports."""


class NumericError(OrderSafeError, ArithmeticError):
    """A numerical operation failed (factorization, conditioning, convergence)."""


class NotPositiveDefiniteError(NumericError):
    """A matrix required to be SPD has a non-positive pivot."""


class InfeasibleLevelError(NumericError):
    """A requested significance level is not attainable.

    Carries the supremum of the levels the region attains, as attainable,
    so callers can adjust.
    """

    def __init__(self, message, attainable):
        super().__init__(message)
        self.attainable = attainable


class DegenerateVarianceError(NumericError):
    """A variance estimate degenerated to zero (e.g. empty cell category)."""


class InternalInvariantError(OrderSafeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
