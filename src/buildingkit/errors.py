"""Exception types shared across the toolkit, and the input contract.

`require_int` alone decides what an integer argument is, and every entry
point calls it, or `require_rational`, which adds a `Fraction`.
`require_prime_power` certifies q_F, the residue-field size that every
layer reads, by Miller-Rabin on the root of its highest exact power.  Two
caps bound what a command prints: `fits` checks one value against
MAX_PRINTED_BITS, and `require_listable` a listing against MAX_LISTED_BITS.
The one float is the start of Newton's iteration in `_integer_root`, which
the integer iteration corrects to the exact root.
"""

from fractions import Fraction
from itertools import count
from math import log2, prod

# Miller-Rabin with the prime bases up to 41 is deterministic below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# a listing of values 0..n, the k-th of at most k bit_length(q - 1) bits, takes
# at most bit_length(q - 1) n (n + 1) / 2 bits; past this cap it stops being
# desk scale (about 0.6 MB of digits)
MAX_LISTED_BITS = 1_000_000

# Python prints an int of at most 4,300 digits, which holds every int below
# 2^14284; past this cap on the bits of one printed value, printing stops
# with Python's own error
MAX_PRINTED_BITS = 14_284


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


def is_prime(n):
    """Deterministic Miller-Rabin for 2 <= n < _MR_LIMIT."""
    if n in _MR_BASES:
        return True
    if not all(map(n.__mod__, _MR_BASES)):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n, k):
    """The largest r with r^k <= n, for n >= 1, by Newton's iteration.

    The start is 2^(log2(n)/k), with log2(n) read off the top 64 bits and a
    margin past the float error, so it is never below the root: from there
    the iteration falls onto the root, while from below it stops at once.
    """
    shift = max(n.bit_length() - 64, 0)
    x = (log2(n >> shift) + shift) / k
    x += x * 2**-40 + 2**-30
    e = int(x)
    r = ((int(2 ** (x - e) * 2**53) + 1) << e >> 53) + 1
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def require_prime_power(q):
    """`q` if it is an int >= 2 and a power of a prime below _MR_LIMIT; else
    a ValueError from `require_int`, or an InvalidTypeError."""
    require_int(q, "q_F", lo=2)
    # the root of the highest exact power is prime exactly when q is a prime
    # power; an exact k-th power is an exact p-th power for each prime p
    # dividing k, so p-th roots are stripped for primes p in ascending order,
    # trying p again after each hit, until p exceeds the root's bit length
    root, p = q, 2
    while p <= root.bit_length():
        r = _integer_root(root, p)
        # r^p == root needs r | root, which is cheaper to refute than r^p
        if root % r == 0 and r**p == root:
            root = r
        else:
            p = next(filter(is_prime, count(p + 1)))
    if root >= _MR_LIMIT:
        raise InvalidTypeError(
            f"q_F must be a power of a prime below {_MR_LIMIT}, the limit of "
            f"the deterministic primality test, got {shown(q)}")
    if not is_prime(root):
        raise InvalidTypeError(f"q_F must be a prime power, got {shown(q)}")
    return q


def fits(*powers):
    """Whether the product of x^n over the (x, n) pairs, each x >= 1, has at
    most MAX_PRINTED_BITS bits; it is formed only when that is in doubt."""
    if sum(n * (x.bit_length() - 1) for x, n in powers) >= MAX_PRINTED_BITS:
        return False
    return prod(x**n for x, n in powers).bit_length() <= MAX_PRINTED_BITS


def require_listable(q, n, listing, q_name, n_name):
    """Refuse `listing`, values 0..n whose k-th has at most k bit_length(q - 1)
    bits (a period's S_k = N_k / q_F^k, a tree's level counts over q_E), when
    bit_length(q - 1) n (n + 1) / 2, a bound on their bits together, is over
    MAX_LISTED_BITS.  A negative n lists nothing.  The message and the
    argument checks call q and n by the caller's names."""
    bits = ((require_int(q, q_name, lo=2) - 1).bit_length()
            * max(require_int(n, n_name), 0) * (n + 1) // 2)
    if bits > MAX_LISTED_BITS:
        raise ValueError(
            f"listing {listing} takes bit_length({q_name} - 1) * {n_name} "
            f"({n_name} + 1) / 2 = {shown(bits)} bits, over the cap of "
            f"{MAX_LISTED_BITS} bits")
