"""Every scalar argument of the library obeys one contract, written once in
`errors.py`: an integer is an int, not a bool, in the parameter's range
(`require_int`), a rational value is such an int or a `Fraction`
(`require_rational`), and a family is one of the family strings.

Each row of ROWS is one entry point and one of its integer parameters.  A
value that breaks the rule (a bool, a float such as 2.0, a string, a list,
None or an int just outside the range) raises ValueError whose message
starts with the parameter's name, never another exception and never an
answer; so does an int past Python's 4,300-digit limit for `str` beyond
each bound.  The ints at both ends of the range pass the rule.  OTHER_ROWS
does the same for the family strings and the rational values, with each
refusal's exact message, and PAST_THE_RULE for the refusals that come after
the rule.  All three tables also run under `python -O`, which strips
asserts, in the one process of `optimized.py`.  Every parameter of every
callable that `buildingkit` exports is in a table or in PACKAGE_OBJECTS,
which keep duck typing.
"""

import functools
import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildingkit
from buildingkit import cache, coxeter, errors, orbits, period, suite, tree
from buildingkit.errors import InvalidTypeError, shown
from optimized import run_optimized

A2 = coxeter.build_affine_system("A", 2)
SERIES = coxeter.growth_from_exponents(A2, 3)
TREE = tree.build_tree_pair(2, 3)
F3 = orbits.build_fields(3, 1)
# 16,610 bits: past Python's 4,300-digit limit for int-to-str conversion
HUGE = 10**5000

# row: (parameter, lo, hi, call, ints that pass the rule); a bound of None
# is open.  A key is "callable parameter", or the callable alone when the
# parameter is the message's name.  A rank's range depends on the family,
# so it is left open here and refused with InvalidTypeError
# (tests/test_coxeter.py).  run_suite's accepted ints are left to the
# suite tests, which run it at depth 6 with the default seed.
ROWS = {
    "growth_coefficients": ("truncation", 0, None,
                            lambda v: coxeter.growth_coefficients(A2, v), (0, 3)),
    "cached_growth": ("truncation", 0, None,
                      lambda v: cache.cached_growth("A", 2, v), (0, 3)),
    "cached_growth rank": ("rank", None, None,
                           lambda v: cache.cached_growth("A", v, 3), (1, 9)),
    # one layer past a_0 exceeds a budget of 1, so the passing budgets
    # answer at truncation 0, and A2's six elements fit in a budget of 6
    "growth_coefficients budget": (
        "budget", 1, None, lambda v: coxeter.growth_coefficients(A2, 0, budget=v),
        (1, 2_000_000)),
    "cached_growth budget": (
        "budget", 1, None, lambda v: cache.cached_growth("A", 2, 0, budget=v),
        (1, 2_000_000)),
    "build_affine_system rank": ("rank", None, None,
                                 lambda v: coxeter.build_affine_system("A", v), (1, 9)),
    "exponents rank": ("rank", None, None, lambda v: coxeter.exponents("A", v), (1, 9)),
    "omega_group rank": ("rank", None, None,
                         lambda v: coxeter.omega_group("A", v), (1, 9)),
    "poincare_finite": ("rank", None, None,
                        lambda v: coxeter.poincare_finite("A", v), (1, 9)),
    # K + 1 coefficients take at least K + 1 bits, so K stops below the
    # listing cap
    "growth_from_exponents": ("truncation", 0, 999_999,
                              lambda v: coxeter.growth_from_exponents(A2, v), (0, 3)),
    "evaluate_period": ("truncation", 1, None,
                        lambda v: period.evaluate_period("A", 1, 4, v), (1, 3)),
    "evaluate_period rank": ("rank", None, None,
                             lambda v: period.evaluate_period("A", v, 4, 3), (1, 9)),
    # q_F = 6 passes the rule and is then refused as no prime power
    "evaluate_period q_F": ("q_F", 2, None,
                            lambda v: period.evaluate_period("A", 1, v, 3), (2, 6)),
    "period_closed_form rank": ("rank", None, None,
                                lambda v: period.period_closed_form("A", v, 4), (1, 9)),
    "period_closed_form q_F": ("q_F", 2, None,
                               lambda v: period.period_closed_form("A", 1, v), (2, 6)),
    "period_series": ("q_F", 2, None,
                      lambda v: period.period_series(SERIES, v), (2, 9)),
    # the period's json and csv formats check the listing before any series
    # work, and a tree pair checks its levels; the caller names q and n
    "errors.require_listable n": ("K", None, None, lambda v: errors.require_listable(
        4, v, "S_0..S_K", "q_F", "K"), (-1, 3)),
    "errors.require_listable q": ("q_F", 2, None, lambda v: errors.require_listable(
        v, 3, "S_0..S_K", "q_F", "K"), (2, 9)),
    # q_F = 2 passes the rule and is then refused by the tail ratio 3/2
    "tail_bound q_F": ("q_F", 2, None, lambda v: period.tail_bound(SERIES, v), (2, 9)),
    "TreePair": ("depth", 1, None, lambda v: tree.TreePair(2, v), (1, 3)),
    "TreePair q_F": ("q_F", 2, None, lambda v: tree.TreePair(v, 2), (2, 6)),
    "TreePair.level": ("k", 0, TREE.depth, TREE.level, (0, TREE.depth)),
    "build_tree_pair": ("depth", 1, None,
                        lambda v: tree.build_tree_pair(2, v), (1, 3)),
    "build_tree_pair q_F": ("q_F", 2, None,
                            lambda v: tree.build_tree_pair(v, 2), (2, 6)),
    "EdgeCocycle": ("den", 1, None, lambda v: tree.EdgeCocycle([1, -1], v), (1, 4)),
    # each numerator is checked, named by its index
    "EdgeCocycle nums": ("nums[0]", None, None,
                         lambda v: tree.EdgeCocycle([v, -1], 4), (-4, 4)),
    "reconstruct_layer": ("delta", 0, TREE.depth,
                          lambda v: tree.reconstruct_layer(TREE, v, 1), (0, TREE.depth)),
    # p = 256 passes the rule and is then refused as composite
    "build_fields p": ("p", 2, 256, lambda v: orbits.build_fields(v, 1), (2, 256)),
    "build_fields n": ("n", 1, 8, lambda v: orbits.build_fields(2, v), (1, 8)),
    "FiniteFieldPair p": ("p", 2, 256, lambda v: orbits.FiniteFieldPair(v, 1), (2, 256)),
    "FiniteFieldPair n": ("n", 1, 8, lambda v: orbits.FiniteFieldPair(2, v), (1, 8)),
    # c = 0 passes the rule and is then refused as no unit
    "exists_nonsquare_value": ("c", 0, F3.q - 1,
                               lambda v: orbits.exists_nonsquare_value(F3, v),
                               (0, F3.q - 1)),
    "run_suite depth": ("suite depth", 6, None, lambda v: suite.run_suite(depth=v), ()),
    "run_suite seed": ("suite seed", None, None, lambda v: suite.run_suite(seed=v), ()),
}

# [HUGE] is a non-int whose repr raises
NO_INTS = (True, False, 2.0, 1.5, float("nan"), "2", [2], [HUGE], None)

# rule: (exception, message with the value's `shown` form for {}, values
# that break the rule, values that pass it)
FAMILY_RULE = (InvalidTypeError,
               f"unknown family {{}}; expected one of {coxeter.FAMILIES}",
               ("H", "a", "", "A2", ["A"], ("A",), None, 1, True, HUGE),
               ("A", "C", "G"))
RATIONAL_RULE = (ValueError, "value must be an integer or a Fraction, got {}",
                 (True, False, 1.5, 2.0, float("nan"), "1", [1], None),
                 (Fraction(-1, 2), 0, 3))

# row: (rule, call), keyed as ROWS is; every family is tried at rank 2
OTHER_ROWS = {
    "build_affine_system family": (FAMILY_RULE,
                                   lambda v: coxeter.build_affine_system(v, 2)),
    "exponents family": (FAMILY_RULE, lambda v: coxeter.exponents(v, 2)),
    "omega_group family": (FAMILY_RULE, lambda v: coxeter.omega_group(v, 2)),
    "poincare_finite family": (FAMILY_RULE, lambda v: coxeter.poincare_finite(v, 2)),
    "cached_growth family": (FAMILY_RULE, lambda v: cache.cached_growth(v, 2, 3)),
    "period_closed_form family": (FAMILY_RULE,
                                  lambda v: period.period_closed_form(v, 2, 3)),
    "evaluate_period family": (FAMILY_RULE,
                               lambda v: period.evaluate_period(v, 2, 7, 14)),
    "reconstruct_layer value": (RATIONAL_RULE,
                                lambda v: tree.reconstruct_layer(TREE, 0, v)),
}

# parameter -> why it keeps duck typing: each is a package object that an
# entry point built and checked, or a generator the caller owns
PACKAGE_OBJECTS = {
    "system": "a CoxeterSystem from build_affine_system",
    "series": "a GrowthSeries from growth_coefficients or growth_from_exponents",
    "result": "a PeriodResult from evaluate_period",
    "omega": "an OmegaElement from omega_group",
    "fields": "a FiniteFieldPair from build_fields",
    "tree": "a TreePair from build_tree_pair",
    "cocycle": "an EdgeCocycle, whose entries are checked when it is built",
    "g": "a TreeAutomorphism",
    "h": "a TreeAutomorphism",
    "rng": "a random.Random, whose methods the sampler calls",
    # a check per entry would put up to 32,551 calls into each automorphism
    # that suite check 12 samples: today 1.0 raises TypeError and True is
    # taken as vertex 1
    "vertex_map": "vertex ids, indexed by vertex; not checked one by one",
}


def covered(key):
    """(callable, parameter) that a row key names."""
    name, _, parameter = key.partition(" ")
    return name, parameter or ROWS[key][0]


def exported_callables():
    """{name: callable} for the functions and classes `buildingkit` exports,
    less its exceptions and its records, the `tuple` subclasses, which only
    its entry points build."""
    return {name: obj for name, obj in vars(buildingkit).items()
            if not name.startswith("_") and callable(obj)
            and not (isinstance(obj, type)
                     and issubclass(obj, (BaseException, tuple)))}


def test_every_exported_parameter_is_in_a_table():
    tables = {covered(key) for key in (*ROWS, *OTHER_ROWS)}
    missing = [(name, parameter)
               for name, obj in sorted(exported_callables().items())
               for parameter in inspect.signature(obj).parameters
               if (name, parameter) not in tables
               and parameter not in PACKAGE_OBJECTS]
    assert missing == []
    # and every row names a parameter that exists
    for name, parameter in tables:
        obj = functools.reduce(getattr, name.split("."), buildingkit)
        assert parameter in inspect.signature(obj).parameters, (name, parameter)


def refusal(row, value):
    """The message of the ValueError that the row's call raises at value,
    or None when it answers; any other exception propagates."""
    try:
        ROWS[row][3](value)
    except ValueError as exc:
        return str(exc)
    return None


def by_the_rule(row, message):
    """Whether message is one of the rule's three refusals of the row's
    parameter: no integer, below lo, outside lo..hi."""
    name = re.escape(ROWS[row][0])
    return message is not None and re.match(
        rf"{name} must be (an integer|>= -?\d+|in -?\d+\.\.-?\d+), got ", message)


def outside(row):
    """The ints just outside the row's range, and past them ints too long
    for `str`."""
    _, lo, hi, _, _ = ROWS[row]
    return [*(() if lo is None else (lo - 1, -HUGE)),
            *(() if hi is None else (hi + 1, HUGE))]


def broken_values(row):
    _, lo, hi, _, _ = ROWS[row]
    ints = [st.integers(max_value=lo - 1)] if lo is not None else []
    ints += [st.integers(min_value=hi + 1)] if hi is not None else []
    ints += [st.sampled_from(outside(row))] if outside(row) else []
    return st.one_of(st.booleans(), st.floats(), st.just(2.0), st.text(),
                     st.lists(st.integers(), max_size=2), st.none(), *ints)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_value_that_breaks_the_rule_is_refused_by_name(data):
    row = data.draw(st.sampled_from(sorted(ROWS)))
    value = data.draw(broken_values(row))
    assert by_the_rule(row, refusal(row, value))


@pytest.mark.parametrize("row", [row for row in ROWS if ROWS[row][4]])
def test_the_ints_at_both_ends_pass_the_rule(row):
    for value in ROWS[row][4]:
        assert not by_the_rule(row, refusal(row, value))


# the answer tables that the `python -O` process of optimized.py computes
OPTIMIZED = ("table_answers", "other_answers", "past_the_rule_answers")


def table_answers():
    """{row: [[value, refusal], ...]} over NO_INTS, the ints just outside
    each range and the ints that pass."""
    return {row: [[shown(value), refusal(row, value)]
                  for value in (*NO_INTS, *outside(row), *ROWS[row][4])]
            for row in ROWS}


def test_the_table_holds_under_python_O():
    optimize, answers = run_optimized(table_answers)
    assert optimize == 1
    for row, pairs in answers.items():
        passing = {repr(value) for value in ROWS[row][4]}
        for value, message in pairs:
            assert bool(by_the_rule(row, message)) != (value in passing), \
                (row, value, message)


def raised(call, *args):
    """[exception name, message] of the ValueError that call(*args) raises,
    or None when it answers; any other exception propagates."""
    try:
        call(*args)
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]
    return None


def other_refusal(row, value):
    return raised(OTHER_ROWS[row][1], value)


def expected_refusal(row, value):
    error, message, _, _ = OTHER_ROWS[row][0]
    return [error.__name__, message.format(shown(value))]


def other_answers():
    """{row: [refusal, ...]} over each row's broken values, then the values
    that pass."""
    return {row: [other_refusal(row, value) for value in (*rule[2], *rule[3])]
            for row, (rule, _) in OTHER_ROWS.items()}


def expected_other_answers():
    return {row: [*(expected_refusal(row, value) for value in rule[2]),
                  *(None for _ in rule[3])]
            for row, (rule, _) in OTHER_ROWS.items()}


def test_families_and_rationals_are_refused_by_name():
    assert other_answers() == expected_other_answers()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_broken_family_or_rational_is_refused_by_name(data):
    row = data.draw(st.sampled_from(sorted(OTHER_ROWS)))
    anything = st.one_of(st.text(), st.none(), st.booleans(), st.floats(),
                         st.lists(st.text(), max_size=2))
    if OTHER_ROWS[row][0] is FAMILY_RULE:
        value = data.draw(anything.filter(lambda v: v not in coxeter.FAMILIES))
    else:
        value = data.draw(st.one_of(anything, st.complex_numbers(),
                                    st.decimals(allow_nan=False)))
    assert other_refusal(row, value) == expected_refusal(row, value)


def test_the_other_table_holds_under_python_O():
    assert run_optimized(other_answers) == [1, expected_other_answers()]


# refusals that come after the rule, of values that break a later check:
# (call, exception, exact message), each message naming the parameter; an
# int too long for `str` is shown by its bit length, K is `truncation`
PAST_THE_RULE = {
    "build_tree_pair q_F": (lambda: tree.build_tree_pair(HUGE, 2), ValueError,
                            "the vertex count can reach 3 q_E^depth, over the cap of "
                            "14284 bits for a printed int"),
    "period_closed_form q_F": (
        lambda: period.period_closed_form("A", 1, HUGE), InvalidTypeError,
        "q_F must be a prime power, got <int of 16610 bits>"),
    "period_closed_form q_F past the primality test": (
        lambda: period.period_closed_form("A", 1, (2**89 - 1) ** 200), InvalidTypeError,
        "q_F must be a power of a prime below 3317044064679887385961981, the "
        "limit of the deterministic primality test, got <int of 17800 bits>"),
    "build_affine_system rank": (lambda: coxeter.build_affine_system("A", HUGE),
                                 InvalidTypeError,
                                 "rank is capped at 9, got <int of 16610 bits>"),
    "build_affine_system rank below": (
        lambda: coxeter.build_affine_system("A", -HUGE), InvalidTypeError,
        "family A requires rank >= 1, got <negative int of 16610 bits>"),
    "TreePair depth": (lambda: tree.TreePair(2, HUGE), ValueError,
                       "the vertex count can reach 3 q_E^depth, over the cap of "
                       "14284 bits for a printed int"),
    "evaluate_period truncation": (
        lambda: period.evaluate_period("A", 1, 4, HUGE), ValueError,
        "the tail can reach q_F^(K + 1) |W| C(K + d - 1, d - 1), over the cap of "
        "14284 bits for a printed int"),
    "require_listable n": (
        lambda: errors.require_listable(4, HUGE, "S_0..S_K", "q_F", "K"), ValueError,
        "listing S_0..S_K takes bit_length(q_F - 1) * K (K + 1) / 2 = <int of "
        "33220 bits> bits, over the cap of 1000000 bits"),
    "EdgeCocycle nums": (lambda: tree.EdgeCocycle(5, 1), ValueError,
                         "nums must be a sequence of integers, got 5"),
    "EdgeCocycle nums set": (lambda: tree.EdgeCocycle({1, 2}), ValueError,
                             "nums must be a sequence of integers, got {1, 2}"),
    "EdgeCocycle nums huge": (lambda: tree.EdgeCocycle(-HUGE), ValueError,
                              "nums must be a sequence of integers, "
                              "got <negative int of 16610 bits>"),
}


def past_the_rule_answers():
    """{key: what the key's call raised}."""
    return {key: raised(call) for key, (call, _, _) in PAST_THE_RULE.items()}


def expected_past_the_rule_answers():
    return {key: [error.__name__, message]
            for key, (_, error, message) in PAST_THE_RULE.items()}


def test_refusals_past_the_rule_name_the_parameter():
    assert past_the_rule_answers() == expected_past_the_rule_answers()


def test_refusals_past_the_rule_hold_under_python_O():
    assert run_optimized(past_the_rule_answers) == [
        1, expected_past_the_rule_answers()]


class Unprintable:
    """No int and no bit_length, with a repr that raises ValueError, as an
    int's does past Python's limit on int-to-str digits."""

    def __repr__(self):
        raise ValueError("no repr")


def test_a_value_whose_repr_raises_is_shown_by_its_type():
    with pytest.raises(ValueError) as info:
        errors.require_int(Unprintable(), "depth")
    assert str(info.value) == "depth must be an integer, got <unprintable Unprintable>"
