"""Exact evaluation of the alternating chamber-count series and its closed form.

For a thickness-q_F chamber complex whose Weyl growth series is a_k, the
k-sphere holds a_k * q_F^k chambers and the cocycle contributes (-1/q_E)^k
per chamber with q_E = q_F^2, so each term collapses to a_k * (-1/q_F)^k.
All arithmetic is Fraction-exact; floats never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import coxeter
from .errors import InvalidTypeError


def _require_prime_power(q):
    if not isinstance(q, int) or q < 2:
        raise InvalidTypeError(f"q_F must be an integer >= 2, got {q!r}")
    n = q
    # the smallest factor is at most isqrt(n), or else n itself is prime
    p = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
    while n % p == 0:
        n //= p
    if n != 1:
        raise InvalidTypeError(f"q_F must be a prime power, got {q}")
    return q


def _rat(x):
    """JSON form {"num": ..., "den": ...} of an exact rational."""
    return {"num": x.numerator, "den": x.denominator}


def sphere_size(series, q, k):
    """Number of chambers at gallery distance k from the base chamber."""
    if not 0 <= k <= series.truncation:
        raise ValueError(f"k must be in 0..{series.truncation}, got {k}")
    return series.coefficients[k] * q**k


@dataclass(frozen=True)
class CountingBoundRow:
    k: int
    coefficient: int
    bound: int
    ok: bool
    slack: int


def check_counting_bound(series, d, truncation=None):
    """Per-k report of a_k <= (d+1) d^(k-1); slack 0 rows are equalities."""
    if truncation is None:
        truncation = series.truncation
    if truncation > series.truncation:
        raise ValueError("truncation exceeds the enumerated range")
    rows = []
    for k in range(1, truncation + 1):
        bound = (d + 1) * d ** (k - 1)
        a_k = series.coefficients[k]
        rows.append(CountingBoundRow(k=k, coefficient=a_k, bound=bound,
                                     ok=a_k <= bound, slack=bound - a_k))
    return rows


def period_series(series, q_F, truncation=None):
    """Partial sums S_0..S_K of sum_k a_k q_F^k (-1/q_E)^k, exactly."""
    if q_F < 2:
        raise ValueError(f"q_F must be >= 2, got {q_F}")
    if truncation is None:
        truncation = series.truncation
    if truncation > series.truncation:
        raise ValueError("truncation exceeds the enumerated range")
    x = Fraction(-1, q_F)
    sums = []
    acc = Fraction(0)
    power = Fraction(1)
    for k in range(truncation + 1):
        acc += series.coefficients[k] * power
        sums.append(acc)
        power *= x
    return sums


def period_closed_form(family, rank, q_F):
    """Exact value of the full alternating series.

    The series is Bott's W(t) / prod_i (1 - t^(m_i)) with Chevalley's finite
    length polynomial W(t) = prod_i (1 + t + ... + t^(m_i)), so over the
    exponents m_i of the root heights it is the product
        prod_i (1 - t^(m_i + 1)) / ((1 - t) (1 - t^(m_i))),  t = -1/q_F.
    """
    _require_prime_power(q_F)
    t = Fraction(-1, q_F)
    value = Fraction(1)
    for m in coxeter.exponents(family, rank):
        value *= (1 - t ** (m + 1)) / ((1 - t) * (1 - t ** m))
    return value


def tail_bound(series, q_F):
    """Geometric tail majorant after the last enumerated term.

    Uses ratio r = max over the last three enumerated a_{k+1}/(a_k q_F); the
    bound is a_K q_F^(-K) * r/(1-r).  Raises ValueError when r >= 1, i.e.
    when the enumerated window gives no contracting ratio.
    """
    coeffs = series.coefficients
    K = series.truncation
    if K < 1:
        raise ValueError("need at least one enumerated layer beyond 0")
    ratios = [Fraction(coeffs[k + 1], coeffs[k] * q_F) for k in range(max(0, K - 3), K)]
    r = max(ratios)
    if r >= 1:
        raise ValueError(f"tail ratio {r} >= 1; increase the truncation")
    last_term = Fraction(coeffs[K], q_F**K)
    return last_term * r / (1 - r)


@dataclass(frozen=True)
class PeriodResult:
    """Closed form and truncated sums of the alternating series for one type."""

    family: str
    rank: int
    q_F: int
    q_E: int
    closed_form: Fraction
    partial_sums: tuple
    tail: Fraction

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "family": self.family,
            "rank": self.rank,
            "q_F": self.q_F,
            "q_E": self.q_E,
            "closed_form": _rat(self.closed_form),
            "partial_sums": [_rat(s) for s in self.partial_sums],
            "tail_bound": _rat(self.tail),
        }


def evaluate_period(family, rank, q_F, truncation=12,
                    budget=coxeter.DEFAULT_ELEMENT_BUDGET, series=None):
    """Assemble a PeriodResult: enumerate, sum, close, and bound the tail.

    A precomputed growth series for the same type may be passed to skip the
    enumeration; its truncation then overrides the argument.
    """
    _require_prime_power(q_F)
    system = coxeter.build_affine_system(family, rank)
    if series is None:
        series = coxeter.growth_coefficients(system, truncation, budget=budget)
    elif (series.family, series.rank) != (family, rank):
        raise ValueError("precomputed series belongs to a different type")
    sums = period_series(series, q_F)
    return PeriodResult(
        family=family, rank=rank, q_F=q_F, q_E=q_F * q_F,
        closed_form=period_closed_form(family, rank, q_F),
        partial_sums=tuple(sums),
        tail=tail_bound(series, q_F))


@dataclass(frozen=True)
class BoundsReport:
    applicable: bool
    holds: bool
    value: Fraction
    lower: Fraction | None
    upper: Fraction | None


def check_theorem_bounds(result):
    """Check 1 > value > 1 - (d+1)/q_F, which applies only when q_F > d."""
    d, q = result.rank, result.q_F
    if q <= d:
        return BoundsReport(applicable=False, holds=True,
                            value=result.closed_form, lower=None, upper=None)
    lower = 1 - Fraction(d + 1, q)
    holds = 1 > result.closed_form > lower
    return BoundsReport(applicable=True, holds=holds,
                        value=result.closed_form, lower=lower, upper=Fraction(1))


@dataclass(frozen=True)
class L1Report:
    partial_sums: tuple
    term_ratios: tuple
    converges: bool


def l1_diagnostic(series, q_F, truncation=None):
    """Partial sums and term ratios of the absolute series sum_k a_k q_F^(-k)."""
    if truncation is None:
        truncation = series.truncation
    if truncation > series.truncation:
        raise ValueError("truncation exceeds the enumerated range")
    terms = [Fraction(series.coefficients[k], q_F**k) for k in range(truncation + 1)]
    sums = []
    acc = Fraction(0)
    for t in terms:
        acc += t
        sums.append(acc)
    ratios = tuple(terms[k + 1] / terms[k] for k in range(len(terms) - 1)
                   if terms[k] != 0)
    tail = ratios[-3:]
    converges = all(r < 1 for r in tail) if tail else True
    return L1Report(partial_sums=tuple(sums), term_ratios=ratios, converges=converges)
