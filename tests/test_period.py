"""Alternating period series: closed forms, tails, bounds, counting."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buildingkit import cli, errors, period, suite
from buildingkit.coxeter import (GrowthSeries, build_affine_system,
                                 exponents, growth_coefficients,
                                 growth_from_exponents, poincare_finite)
from buildingkit.errors import InvalidTypeError
from coxeter_oracle import ALL_TYPES
import period_oracle

# closed forms frozen from the classical finite length polynomials evaluated
# at t = -1/q_F with the geometric exponent factors, independently of the
# package's own finite enumeration
FROZEN_CLOSED = {
    ("A", 1): {2: Fraction(1, 3), 3: Fraction(1, 2), 4: Fraction(3, 5),
               5: Fraction(2, 3), 7: Fraction(3, 4), 8: Fraction(7, 9),
               9: Fraction(4, 5)},
    ("A", 2): {2: Fraction(1, 3), 3: Fraction(7, 16), 4: Fraction(13, 25),
               5: Fraction(7, 12)},
    ("A", 3): {2: Fraction(5, 27), 3: Fraction(5, 16), 4: Fraction(51, 125),
               5: Fraction(13, 27)},
    ("C", 2): {2: Fraction(5, 27), 3: Fraction(5, 14), 4: Fraction(153, 325),
               5: Fraction(104, 189)},
    ("G", 2): {2: Fraction(7, 33), 3: Fraction(91, 244),
               4: Fraction(2457, 5125), 5: Fraction(868, 1563)},
}


def _series(family, rank, truncation):
    return growth_coefficients(build_affine_system(family, rank), truncation)


@pytest.mark.parametrize("q", sorted(FROZEN_CLOSED[("A", 1)]))
def test_rank1_closed_form(q):
    value = period.period_closed_form("A", 1, q)
    assert value == FROZEN_CLOSED[("A", 1)][q]
    assert value == Fraction(q - 1, q + 1)


@pytest.mark.parametrize("key", sorted(FROZEN_CLOSED))
def test_closed_form_grid(key):
    for q, expected in FROZEN_CLOSED[key].items():
        assert period.period_closed_form(*key, q) == expected


# every type: the coset walks reach E8's finite group with 356 points
ENUMERABLE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3),
              ("B", 4), ("B", 5), ("C", 2), ("C", 3), ("C", 4), ("C", 5),
              ("D", 4), ("D", 5), ("F", 4), ("G", 2)]
ENUMERABLE += [key for key in ALL_TYPES if key not in ENUMERABLE]


@pytest.mark.parametrize("key", ENUMERABLE)
def test_closed_form_matches_enumerated_route(key):
    # W(t) / prod_i (1 - t^(m_i)) with W enumerated by coset walks
    poly = poincare_finite(*key)
    for q in (2, 3, 4, 5, 7, 8, 9):
        t = Fraction(-1, q)
        expected = sum(c * t**k for k, c in enumerate(poly))
        for m in exponents(*key):
            expected /= 1 - t**m
        assert period.period_closed_form(*key, q) == expected


def by_trial_division(n):
    """Whether n >= 2 is a prime power, by its least factor."""
    p = next(f for f in range(2, n + 1) if n % f == 0)
    while n % p == 0:
        n //= p
    return n == 1


# the 198 prime powers up to 1024
PRIME_POWERS = [q for q in range(2, 1025) if by_trial_division(q)]


@pytest.mark.parametrize("key", ALL_TYPES)
@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from(PRIME_POWERS), truncation=st.integers(0, 40))
def test_integer_forms_match_the_fraction_oracles(key, q, truncation):
    series = growth_from_exponents(build_affine_system(*key), truncation)
    assert period.period_series(series, q) == period_oracle.partial_sums(
        series.coefficients, q)
    assert period.period_closed_form(*key, q) == period_oracle.closed_form(
        exponents(*key), q)


def test_integer_forms_build_one_fraction_per_value(monkeypatch):
    built = []

    def fraction(num, den):
        assert type(num) is int and type(den) is int
        built.append((num, den))
        return Fraction(num, den)

    monkeypatch.setattr(period, "Fraction", fraction)
    sums = period.period_series(growth_from_exponents(build_affine_system("G", 2), 16), 7)
    assert len(sums) == len(built) == 17
    built.clear()
    period.period_closed_form("E", 8, 2)
    assert len(built) == 1


def test_exceptional_closed_forms_satisfy_bounds():
    # the bounds of the theorem pin the value for every q_F > rank
    for rank in (6, 7, 8):
        for q in (7, 8, 9):
            if q > rank:
                value = period.period_closed_form("E", rank, q)
                assert 1 > value > 1 - Fraction(rank + 1, q)


def test_series_first_terms():
    # S_0 = 1, S_1 = 1 - (d+1)/q_F, exactly
    assert period.period_series(_series("A", 1, 1), 3) == [
        Fraction(1), Fraction(1, 3)]
    assert period.period_series(_series("A", 2, 2), 3) == [
        Fraction(1), Fraction(0), Fraction(2, 3)]


@pytest.mark.parametrize("q", [1, 0, -3])
def test_series_refuses_a_q_F_below_2(q):
    with pytest.raises(ValueError, match=rf"^q_F must be >= 2, got {q}$"):
        period.period_series(_series("A", 1, 3), q)


def test_partial_sums_and_tail_frozen():
    res = period.evaluate_period("A", 2, 3)
    assert res.q_E == 9
    assert res.partial_sums[-1] == Fraction(25835, 59049)
    assert res.tail == Fraction(40, 1003833)
    diff = abs(res.closed_form - res.partial_sums[-1])
    assert diff == Fraction(17, 944784)
    assert diff <= res.tail

    res = period.evaluate_period("G", 2, 4)
    assert res.partial_sums[-1] == Fraction(8043249, 16777216)
    assert res.tail == Fraction(29, 41943040)
    assert abs(res.closed_form - res.partial_sums[-1]) <= res.tail


def test_tail_bound_rank1_is_geometric():
    # constant coefficients 2: ratio 1/q_F, bound 2 q^-K (1/q)/(1 - 1/q)
    series = _series("A", 1, 6)
    assert period.tail_bound(series, 2) == Fraction(2, 2**6)
    assert period.tail_bound(series, 3) == Fraction(1, 3**6)


def test_tail_bound_rejects_nondecaying_series():
    bad = GrowthSeries(family="A", rank=1, truncation=4,
                       coefficients=(1, 3, 9, 27, 81), source="enumerated")
    with pytest.raises(ValueError):
        period.tail_bound(bad, 2)


def test_tail_bound_needs_a_layer_beyond_0():
    series = growth_from_exponents(build_affine_system("A", 1), 0)
    with pytest.raises(ValueError) as info:
        period.tail_bound(series, 2)
    assert str(info.value) == "need at least one enumerated layer beyond 0"


def test_theorem_bounds_applicability():
    res = period.evaluate_period("A", 1, 3)
    rep = period.check_theorem_bounds(res)
    assert rep.applicable and rep.holds
    assert rep.lower == Fraction(1, 3)
    assert 1 > res.closed_form > rep.lower
    assert rep._fields == ("applicable", "holds", "lower")

    # q_F <= d: out of the theorem's range, vacuously fine
    res = period.evaluate_period("A", 3, 3)
    rep = period.check_theorem_bounds(res)
    assert not rep.applicable and rep.holds
    assert rep.lower is None

    # boundary case q_F = d + 1 gives lower bound 0
    res = period.evaluate_period("A", 3, 4)
    rep = period.check_theorem_bounds(res)
    assert rep.applicable and rep.holds
    assert rep.lower == 0


def test_counting_bound_rows():
    rows = period_oracle.counting_bound(_series("A", 2, 8).coefficients, 2)
    assert [k for k, _, _ in rows] == list(range(1, 9))
    assert all(a_k <= bound for _, a_k, bound in rows)
    assert rows[0] == (1, 3, 3)
    # rank 1 is the equality case at every k
    rows = period_oracle.counting_bound(_series("A", 1, 8).coefficients, 1)
    assert all(a_k == bound for _, a_k, bound in rows)


def test_suite_counting_check_agrees_with_the_oracle(monkeypatch):
    # check 4 reduces each type's slacks to ok, min_slack and, in rank 1,
    # equality; the oracle's rows come from the coset walks
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    check = suite.run_suite().checks[3]
    assert check.name == "counting-bound" and check.status == "pass"
    want = []
    for f, r in suite.GRID_TYPES:
        rows = period_oracle.counting_bound(_series(f, r, suite.COUNTING_K).coefficients, r)
        slacks = [bound - a_k for _, a_k, bound in rows]
        entry = {"type": f"{f}{r}", "ok": min(slacks) >= 0, "min_slack": min(slacks)}
        if r == 1:
            entry["equality"] = entry["ok"] = not any(slacks)
        want.append(entry)
    assert check.witness == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_prime_powers_accepted(q):
    errors.require_prime_power(q)


@pytest.mark.parametrize("q", [-3, 0, 1, 6, 10, 12, 15])
def test_non_prime_powers_rejected(q):
    # below 2 the integer rule refuses q_F, and past it the prime-power test
    error, message = ((ValueError, f"q_F must be >= 2, got {q}") if q < 2
                      else (InvalidTypeError, f"q_F must be a prime power, got {q}"))
    with pytest.raises(error, match=f"^{message}$"):
        errors.require_prime_power(q)


def test_large_prime_accepted_by_trial_division_to_isqrt():
    # 2^31 - 1 is prime: a factor search that ran up to q itself took
    # minutes; the check now certifies it by Miller-Rabin
    q = 2**31 - 1
    assert period.period_closed_form("A", 1, q) == Fraction(q - 1, q + 1)
    for composite in (2 * q, 12):
        with pytest.raises(InvalidTypeError):
            errors.require_prime_power(composite)


M61 = 2**61 - 1  # a Mersenne prime


@pytest.mark.parametrize("q", [M61, M61**2, 2**100, 3**40])
def test_large_prime_powers_accepted_at_once(q):
    # trial division up to isqrt(2^61 - 1) did not finish in 10 s
    assert errors.require_prime_power(q) == q


@pytest.mark.parametrize("q", [561, 41041, 25326001, 3215031751, 15 * M61])
def test_carmichael_and_pseudoprime_composites_rejected(q):
    # 561 and 41041 are Carmichael numbers; 25326001 and 3215031751 are the
    # least strong pseudoprimes to the bases 2, 3, 5 and to 2, 3, 5, 7
    with pytest.raises(InvalidTypeError, match="prime power"):
        errors.require_prime_power(q)


@pytest.mark.parametrize("q", [M61 * (2**31 - 1), 2**89 - 1, 2**127 - 1])
def test_bases_beyond_the_primality_limit_rejected(q):
    # above 3.3e24 Miller-Rabin with the bases up to 41 proves nothing, so
    # even the Mersenne primes 2^89 - 1 and 2^127 - 1 are refused by name
    with pytest.raises(InvalidTypeError, match=str(errors._MR_LIMIT)):
        errors.require_prime_power(q)


def test_prime_power_check_agrees_with_trial_division():
    for q in range(2, 3000):
        try:
            errors.require_prime_power(q)
            accepted = True
        except InvalidTypeError:
            accepted = False
        assert accepted == by_trial_division(q), q


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=2**80),
                 st.integers(min_value=1, max_value=2**13000),
                 st.builds(lambda b, k, c: max(b**k + c, 1),
                           st.integers(min_value=1, max_value=2**64),
                           st.integers(min_value=1, max_value=60),
                           st.integers(min_value=-1, max_value=1))),
       st.integers(min_value=1, max_value=400))
@example(2**12999 + 1, 2)
@example(3**8000, 8000)
@example(1, 1)
def test_integer_root_brackets_n(n, k):
    r = errors._integer_root(n, k)
    assert r**k <= n < (r + 1)**k


def descending_prime_power_check(q):
    """Oracle: the k-th root for every k from bit_length(q) down, stopping
    at the first exact power or at a root past the primality test's limit."""
    if q < 2:
        raise ValueError(f"q_F must be >= 2, got {q}")
    for k in range(q.bit_length(), 0, -1):
        root = errors._integer_root(q, k)
        if root**k == q or root >= errors._MR_LIMIT:
            break
    if root >= errors._MR_LIMIT:
        raise InvalidTypeError(
            f"q_F must be a power of a prime below {errors._MR_LIMIT}, the "
            f"limit of the deterministic primality test, got {q}")
    if not errors.is_prime(root):
        raise InvalidTypeError(f"q_F must be a prime power, got {q}")
    return q


def prime_power_verdict(check, q):
    try:
        return check(q)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=-5, max_value=10**6),
                 st.builds(pow, st.integers(min_value=2, max_value=10**9),
                           st.integers(min_value=1, max_value=40)),
                 st.integers(min_value=2, max_value=2**400)))
@example(2**1024)
@example(M61**3)
@example(6**50)
@example(3**8000)
@example(2**12999 + 1)
def test_prime_root_stripping_agrees_with_the_descending_search(q):
    assert prime_power_verdict(errors.require_prime_power, q) \
        == prime_power_verdict(descending_prime_power_check, q)


TAIL_REFUSAL = ("the tail can reach q_F^(K + 1) |W| C(K + d - 1, d - 1), "
                "over the cap of 14284 bits for a printed int")


def test_truncation_cap_is_checked_before_any_series_work(monkeypatch):
    # K is capped by the tail's bound, whose q_F^(K + 1) alone passes the
    # cap on a printed int at each K here
    def no_series(*args):
        raise AssertionError("series expanded past the cap")

    monkeypatch.setattr(period.coxeter, "growth_from_exponents", no_series)
    for q, K in ((2, 14284), (9, 4506), (M61, 234), (2, 10**5000)):
        with pytest.raises(ValueError, match=f"^{re.escape(TAIL_REFUSAL)}$"):
            period.evaluate_period("A", 1, q, truncation=K)


def test_truncation_cap_is_checked_before_the_prime_power_test(monkeypatch):
    # certifying a 13,000-bit q_F takes big-int roots; the cap needs none
    def no_certificate(q):
        raise AssertionError("q_F certified before the cap")

    monkeypatch.setattr(period, "require_prime_power", no_certificate)
    with pytest.raises(ValueError, match=f"^{re.escape(TAIL_REFUSAL)}$"):
        period.evaluate_period("A", 1, 2**13000 + 1, truncation=1)


@pytest.mark.parametrize("truncation", [0, -1])
def test_truncation_below_1_is_refused_before_the_caps(monkeypatch, truncation):
    # 0 * bits passed the K cap, and E8 spent 4 s on the closed form at this q
    def no_certificate(q):
        raise AssertionError("q_F certified before K was checked")

    monkeypatch.setattr(period, "require_prime_power", no_certificate)
    with pytest.raises(ValueError, match=f"^truncation must be >= 1, got {truncation}$"):
        period.evaluate_period("E", 8, 2**14000, truncation)


def test_printed_bits_cap_is_pythons_limit_on_printed_ints():
    # every int below 2^14284 prints in at most 4,300 digits; 2^14285 - 1 does not
    assert len(str(2**errors.MAX_PRINTED_BITS - 1)) == 4300
    with pytest.raises(ValueError, match="4300 digits"):
        str(2 ** (errors.MAX_PRINTED_BITS + 1) - 1)


@pytest.mark.parametrize("key, q, truncation, refusal", [
    (("A", 1), 2**1300, 10, "the tail can reach q_F^(K + 1) |W| C(K + d - 1, d - 1)"),
    (("E", 8), 2**2000, 6, "the closed form can reach (q_F + 1)^114"),
    (("E", 8), 2**13000, 1, "the closed form can reach (q_F + 1)^114")])
def test_printed_bits_cap_is_checked_before_the_closed_form(monkeypatch, key, q,
                                                            truncation, refusal):
    # each passed the K cap, then stopped with Python's limit on printed
    # digits, E8 at 2^13000 after 3 s on the closed form
    def no_work(*args):
        raise AssertionError("closed form or series computed past the cap")

    monkeypatch.setattr(period, "period_closed_form", no_work)
    monkeypatch.setattr(period.coxeter, "growth_from_exponents", no_work)
    message = f"{refusal}, over the cap of 14284 bits for a printed int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        period.evaluate_period(*key, q, truncation)


def test_closed_form_cap_is_tight_at_powers_of_two():
    # E8's reduced value at 2^b has at most the 114 b + 1 bits of
    # (2^b + 1)^114, here 13681, 14251 and 14365: 2^125 prints, 2^126 would
    # not, and 2^120 still answers though D has degree 128
    assert [period.period_closed_form("E", 8, 2**b).denominator.bit_length()
            for b in (120, 125, 126)] == [13681, 14243, 14360]
    for b in (120, 125):
        period.evaluate_period("E", 8, 2**b, truncation=2)
    with pytest.raises(ValueError, match="closed form can reach"):
        period.evaluate_period("E", 8, 2**126, truncation=2)


def largest_answered_power(key, p, truncation):
    """The largest p^j that evaluate_period answers, by bisection on j: its
    caps refuse more the larger q_F is."""
    lo, hi = 0, errors.MAX_PRINTED_BITS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            period.evaluate_period(*key, p**mid, truncation)
            lo = mid
        except ValueError:
            hi = mid - 1
    return period.evaluate_period(*key, p**lo, truncation)


@pytest.mark.parametrize("key", ALL_TYPES)
def test_every_int_of_an_answer_at_the_caps_prints(key):
    for p, truncation in ((2, 1), (2, 2), (2, 10), (3, 5)):
        res = largest_answered_power(key, p, truncation)
        values = (res.closed_form, res.tail, *res.partial_sums)
        ints = [res.q_E, *(v.numerator for v in values),
                *(v.denominator for v in values)]
        assert max(abs(i).bit_length() for i in ints) <= errors.MAX_PRINTED_BITS


def largest_answered_truncation(key, q):
    """The largest K that the cap on printed ints admits at q_F = q, by
    bisection on K: the tail's bound grows with K, and q_F^(K + 1) alone
    passes the cap past K = MAX_PRINTED_BITS."""
    lo, hi = 1, errors.MAX_PRINTED_BITS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            period._require_printable(*key, q, mid)
            lo = mid
        except ValueError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("key", [("A", 1), ("G", 2), ("E", 8)])
def test_every_int_of_an_answer_at_the_truncation_cap_prints(capsys, key, q):
    # the tail's bound is the one cap on K: at the largest K it admits the
    # text format answers, and one more K is refused by that cap
    K = largest_answered_truncation(key, q)
    res = period.evaluate_period(*key, q, K)
    values = (res.closed_form, res.tail, *res.partial_sums)
    ints = [res.q_E, *(v.numerator for v in values),
            *(v.denominator for v in values)]
    assert max(abs(i).bit_length() for i in ints) <= errors.MAX_PRINTED_BITS
    argv = ["period", "--family", key[0], "--rank", str(key[1]), "--qF", str(q)]
    assert cli.main([*argv, "--K", str(K)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main([*argv, "--K", str(K + 1)]) == 2
    assert capsys.readouterr() == ("", f"invalid arguments: {TAIL_REFUSAL}\n")


def test_q_F_is_certified_once_before_any_series_work(monkeypatch):
    calls = []
    certify = errors.require_prime_power
    monkeypatch.setattr(period, "require_prime_power",
                        lambda q: calls.append(q) or certify(q))
    period.evaluate_period("A", 2, 3)
    assert calls == [3]

    def no_series(*args):
        raise AssertionError("series expanded for an invalid q_F")

    monkeypatch.setattr(period.coxeter, "growth_from_exponents", no_series)
    with pytest.raises(InvalidTypeError, match="prime power"):
        period.evaluate_period("A", 2, 6)


@pytest.mark.parametrize("q", [3.0, "3", None])
def test_non_integer_q_F_is_an_invalid_type(q):
    with pytest.raises(ValueError, match=f"^q_F must be an integer, got {q!r}$"):
        period.evaluate_period("A", 1, q)


def test_truncation_at_the_cap_is_exact():
    K = largest_answered_truncation(("A", 2), 9)
    res = period.evaluate_period("A", 2, 9, truncation=K)
    assert len(res.partial_sums) == K + 1
    assert abs(res.closed_form - res.partial_sums[-1]) <= res.tail


def test_default_series_is_the_closed_form_expansion():
    res = period.evaluate_period("A", 2, 3)
    enumerated = _series("A", 2, 12)
    assert list(res.partial_sums) == period.period_series(enumerated, 3)
    assert res.tail == period.tail_bound(enumerated, 3)


def test_result_json_uses_num_den(capsys):
    assert cli.main(["period", "--family", "A", "--rank", "1", "--qF", "3",
                     "--K", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed_form"] == {"num": 1, "den": 2}
    assert data["partial_sums"][0] == {"num": 1, "den": 1}
    assert data["schema_version"] == 1
    assert data["q_E"] == 9
