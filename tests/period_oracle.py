"""The period series and its closed form in `Fraction` arithmetic: the
tests' oracle for the integer forms of `period_series` and
`period_closed_form`; and the counting bound that suite check 4 reduces.

Each partial sum adds a_k (-1/q_F)^k to the last, and the closed form
multiplies Bott's factors (1 - t^(m + 1)) / ((1 - t)(1 - t^m)) at
t = -1/q_F, a gcd after every step.  No effort is spent on performance.
"""

from fractions import Fraction


def partial_sums(coefficients, q_F):
    """S_0..S_K of sum_k a_k (-1/q_F)^k, term by term."""
    x = Fraction(-1, q_F)
    sums, acc, power = [], Fraction(0), Fraction(1)
    for a_k in coefficients:
        acc += a_k * power
        sums.append(acc)
        power *= x
    return sums


def closed_form(exponents, q_F):
    """prod_m (1 - t^(m + 1)) / ((1 - t)(1 - t^m)) over the exponents m,
    at t = -1/q_F."""
    t = Fraction(-1, q_F)
    value = Fraction(1)
    for m in exponents:
        value *= (1 - t ** (m + 1)) / ((1 - t) * (1 - t**m))
    return value


def counting_bound(coefficients, d):
    """[(k, a_k, (d + 1) d^(k - 1)) for k = 1..K]: each sphere size beside
    the number of words of length k in d + 1 letters with no letter twice
    in a row, which bounds it."""
    return [(k, a_k, (d + 1) * d ** (k - 1))
            for k, a_k in enumerate(coefficients) if k]
