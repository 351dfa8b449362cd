"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidTypeError(ToolkitError, ValueError):
    """Invalid (family, rank) combination; the message names the violated constraint."""


class BudgetError(ToolkitError, RuntimeError):
    """An enumeration exceeded its budget of group elements or tree edges.

    Carries the budget and, for group enumerations, the complete layers' sizes.
    """

    def __init__(self, message, partial_coefficients=(), budget=None):
        super().__init__(message)
        self.partial_coefficients = tuple(partial_coefficients)
        self.budget = budget


class ModelError(ToolkitError, RuntimeError):
    """An internal consistency check failed; this signals a bug, not bad input."""
