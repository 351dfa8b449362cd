"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidTypeError(ToolkitError, ValueError):
    """Invalid (family, rank) combination; the message names the violated constraint."""


class BudgetError(ToolkitError, RuntimeError):
    """An enumeration exceeded its element budget.

    Carries whatever complete partial result was available when the budget
    was hit: for group enumerations the sphere sizes of the complete layers,
    for tree builds the smallest depth whose edge count already exceeds the
    budget.
    """

    def __init__(self, message, partial_coefficients=(), budget=None,
                 smallest_failing_depth=None):
        super().__init__(message)
        self.partial_coefficients = tuple(partial_coefficients)
        self.budget = budget
        self.smallest_failing_depth = smallest_failing_depth


class ModelError(ToolkitError, RuntimeError):
    """An internal consistency check failed; this signals a bug, not bad input."""
