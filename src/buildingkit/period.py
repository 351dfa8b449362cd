"""Exact evaluation of the alternating chamber-count series and its closed form.

For a thickness-q_F chamber complex whose Weyl growth series is a_k, the
k-sphere holds a_k * q_F^k chambers and the cocycle contributes (-1/q_E)^k
per chamber with q_E = q_F^2, so each term collapses to a_k * (-1/q_F)^k.
The partial sums and the closed form are computed in integers, Horner's
numerators and one quotient N / D, with one Fraction built per value.
All results are exact.  The argument checks, the prime-power certificate
of q_F and the cap on a printed int are the input contract in `errors`.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, prod

from . import coxeter
from .errors import MAX_PRINTED_BITS, fits, require_int, require_prime_power


def _require_printable(family, rank, q_F, truncation):
    """Refuse a PeriodResult holding an int past MAX_PRINTED_BITS, from the
    exponents m_i alone, before any closed-form or series work.

    q_F^n - (-1)^n is the product of |Phi_j(-q_F)| <= (q_F + 1)^phi(j)
    over j | n, so the reduced closed form's terms are at most
    (q_F + 1)^degree, with degree the phi(j)-weighted excess of D's count of
    Phi_j over N's (E8: 114, where D has degree 128).  As m_1 = 1,
    a_k <= A = |W| C(K + d - 1, d - 1) for k <= K, which bounds q_E, the
    partial sums and the tail's denominator by A q_F^(K + 1); the tail's
    numerator, at most A^2, stays under 2^250, as K < MAX_PRINTED_BITS.
    """
    exps = coxeter.exponents(family, rank)
    degree = 0
    for j in range(1, exps[-1] + 1):
        excess = (rank * (j == 1) + sum(m % j == 0 for m in exps)
                  - sum((m + 1) % j == 0 for m in exps))
        if excess > 0:
            degree += excess * sum(gcd(i, j) == 1 for i in range(j))
    if not fits((q_F + 1, degree)):
        raise ValueError(f"the closed form can reach (q_F + 1)^{degree}, over the "
                         f"cap of {MAX_PRINTED_BITS} bits for a printed int")
    bound = prod(m + 1 for m in exps) * comb(truncation + rank - 1, rank - 1)
    if not fits((q_F, truncation + 1), (bound, 1)):
        raise ValueError(f"the tail can reach q_F^(K + 1) |W| C(K + d - 1, d - 1), "
                         f"over the cap of {MAX_PRINTED_BITS} bits for a printed int")


def period_series(series, q_F):
    """Partial sums S_k = N_k / q_F^k of sum_k a_k q_F^k (-1/q_E)^k, with
    Horner's integers N_0 = a_0 and N_k = q_F N_(k-1) + (-1)^k a_k."""
    require_int(q_F, "q_F", lo=2)
    sums, num, den = [], 0, 1
    for k, a_k in enumerate(series.coefficients):
        num = q_F * num + (-a_k if k % 2 else a_k)
        sums.append(Fraction(num, den))
        den *= q_F
    return sums


def period_closed_form(family, rank, q_F):
    """Exact value of the full alternating series.

    The series is Bott's W(t) / prod_i (1 - t^(m_i)) with Chevalley's finite
    length polynomial W(t) = prod_i (1 + t + ... + t^(m_i)), so over the
    exponents m_i of the root heights it is the product
        prod_i (1 - t^(m_i + 1)) / ((1 - t) (1 - t^(m_i))),  t = -1/q_F,
    and each factor times q_F^(m_i + 1) over itself makes it N / D in integers.
    """
    require_prime_power(q_F)
    exps = coxeter.exponents(family, rank)
    return Fraction(prod(q_F ** (m + 1) - (-1) ** (m + 1) for m in exps),
                    prod((q_F + 1) * (q_F**m - (-1) ** m) for m in exps))


def tail_bound(series, q_F):
    """Geometric tail estimate after the last enumerated term.

    Uses ratio r = max over the last three enumerated a_{k+1}/(a_k q_F); the
    estimate is a_K q_F^(-K) * r/(1-r).  Raises ValueError when r >= 1, i.e.
    when the enumerated window gives no contracting ratio.  This is a
    heuristic, not a majorant: for G2 with q_F = 7 and K = 14 the true
    absolute tail exceeds it by a factor of about 1.016.
    """
    require_int(q_F, "q_F", lo=2)
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


class PeriodResult(namedtuple("PeriodResult", "family rank q_F q_E closed_form "
                             "partial_sums tail")):
    """Closed form and truncated sums of the alternating series for one type."""

    __slots__ = ()


def evaluate_period(family, rank, q_F, truncation=12):
    """Assemble a PeriodResult: expand, sum, close, and bound the tail.

    The arguments and the cap on printed ints, which also bounds K, are
    checked first, and the closed form certifies q_F as a prime power
    before any series work.
    """
    require_int(q_F, "q_F", lo=2)
    require_int(truncation, "truncation", lo=1)
    _require_printable(family, rank, q_F, truncation)
    closed_form = period_closed_form(family, rank, q_F)
    series = coxeter.growth_from_exponents(
        coxeter.build_affine_system(family, rank), truncation)
    sums = period_series(series, q_F)
    return PeriodResult(
        family=family, rank=rank, q_F=q_F, q_E=q_F * q_F,
        closed_form=closed_form,
        partial_sums=tuple(sums),
        tail=tail_bound(series, q_F))


class BoundsReport(namedtuple("BoundsReport", "applicable holds lower")):
    """Whether the value bounds apply and hold, and the lower bound, None
    where they do not apply."""

    __slots__ = ()


def check_theorem_bounds(result):
    """Check 1 > value > 1 - (d+1)/q_F, which applies only when q_F > d."""
    d, q = result.rank, result.q_F
    if q <= d:
        return BoundsReport(applicable=False, holds=True, lower=None)
    lower = 1 - Fraction(d + 1, q)
    holds = 1 > result.closed_form > lower
    return BoundsReport(applicable=True, holds=holds, lower=lower)
