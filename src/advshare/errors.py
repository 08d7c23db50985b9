"""Exception types shared across the package."""

from __future__ import annotations


class AdvShareError(Exception):
    """Base class for all library-specific errors."""


class BudgetExceededError(AdvShareError):
    """An exhaustive scan or dense computation would exceed its configured budget.

    Raised instead of returning an approximate answer.
    """


class InvariantError(AdvShareError, RuntimeError):
    """An internal consistency check failed: a defect, never bad input.

    The CLI reports it as an internal error with exit code 3.
    """


class NotCommutativeError(AdvShareError):
    """Two check rows fail the symplectic orthogonality test."""

    def __init__(self, row_a: int, row_b: int):
        self.row_a = row_a
        self.row_b = row_b
        super().__init__(
            f"rows {row_a} and {row_b} do not commute (nonzero symplectic product)"
        )


class DependentRowsError(AdvShareError):
    """Generator rows are linearly dependent where independence is required."""


class NotAdvanceShareableError(AdvShareError):
    """The requested share set fails the shortening-dimension criterion."""


class GramMismatchError(AdvShareError):
    """Two generator tuples have different pairwise commutation exponents."""


class UncorrectableErasureError(AdvShareError):
    """The erased share set is not correctable by the given stabilizer code."""


class CodeFileError(AdvShareError):
    """A code file failed to parse."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
