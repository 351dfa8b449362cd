"""Exception types shared across the toolkit, and the argument contract:
`require_int` alone decides what an integer argument is, and every entry
point calls it, or `require_rational`, which adds a `Fraction`."""

from fractions import Fraction


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidTypeError(ToolkitError, ValueError):
    """An unknown family, a rank outside its family's range, or a q_F that
    is no power of a prime below the primality test's limit; the message
    names the violated constraint."""


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


def shown(value):
    """repr(value) for a refusal's message, so that the message still comes
    when the value is too long to print: an int past Python's limit on
    int-to-str digits is shown by its sign and bit length, anything else
    whose repr raises by its type.  Only raise paths call it."""
    try:
        return repr(value)
    except ValueError:
        kind = type(value).__name__
        if (bits := getattr(value, "bit_length", None)) is None:
            return f"<unprintable {kind}>"
        return f"<{'negative ' if value < 0 else ''}{kind} of {bits()} bits>"


def require_int(value, name, lo=None, hi=None):
    """`value` if it is an int, not a bool, >= lo and in lo..hi where given;
    else a ValueError whose message starts with `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {shown(value)}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {shown(value)}")
    return value


def require_rational(value, name):
    """`value` if it is a Fraction or an int that passes `require_int`;
    else a ValueError whose message starts with `name`."""
    if isinstance(value, Fraction):
        return value
    try:
        return require_int(value, name)
    except ValueError:
        raise ValueError(f"{name} must be an integer or a Fraction, "
                         f"got {shown(value)}") from None
