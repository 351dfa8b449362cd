"""Every integer argument of the library obeys one rule, `errors.require_int`:
an int, not a bool, in the parameter's range.

Each row of ROWS is one entry point and one of its integer parameters.  A
value that breaks the rule (a bool, a float such as 2.0, a string, None or
an int just outside the range) raises ValueError whose message starts with
the parameter's name, never another exception and never an answer.  The
ints at both ends of the range pass the rule.  The same table also runs
under `python -O`, which strips asserts.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildingkit import cache, coxeter, orbits, period, suite, tree

A2 = coxeter.build_affine_system("A", 2)
SERIES = coxeter.growth_from_exponents(A2, 3)
TREE = tree.build_tree_pair(2, 3)
F3 = orbits.build_fields(3, 1)

# row: (parameter, lo, hi, call, ints that pass the rule); a bound of None
# is open.  run_suite's accepted ints are left to the suite tests, which
# run it at depth 6 with the default seed.
ROWS = {
    "growth_coefficients": ("truncation", 0, None,
                            lambda v: coxeter.growth_coefficients(A2, v), (0, 3)),
    "cached_growth": ("truncation", 0, None,
                      lambda v: cache.cached_growth("A", 2, v), (0, 3)),
    # one layer past a_0 exceeds a budget of 1, so the passing budgets
    # answer at truncation 0, and A2's six elements fit in a budget of 6
    "growth_coefficients budget": (
        "budget", 1, None, lambda v: coxeter.growth_coefficients(A2, 0, budget=v),
        (1, 2_000_000)),
    "poincare_finite": ("budget", 1, None,
                        lambda v: coxeter.poincare_finite("A", 2, budget=v), (6, 2_000_000)),
    "check_counting_bound": ("d", 1, None,
                             lambda v: period.check_counting_bound(SERIES, v), (1, 2)),
    "growth_from_exponents": ("truncation", 0, None,
                              lambda v: coxeter.growth_from_exponents(A2, v), (0, 3)),
    "evaluate_period": ("truncation", 0, None,
                        lambda v: period.evaluate_period("A", 1, 4, v), (0, 3)),
    "period_series": ("q_F", 2, None,
                      lambda v: period.period_series(SERIES, v), (2, 9)),
    "TreePair": ("depth", 0, None, lambda v: tree.TreePair(2, v), (0, 3)),
    "TreePair.level": ("k", 0, TREE.depth, TREE.level, (0, TREE.depth)),
    "build_tree_pair": ("depth", 1, None,
                        lambda v: tree.build_tree_pair(2, v), (1, 3)),
    "EdgeCocycle": ("den", 1, None, lambda v: tree.EdgeCocycle([1, -1], v), (1, 4)),
    "reconstruct_layer": ("delta", 0, TREE.depth,
                          lambda v: tree.reconstruct_layer(TREE, v, 1), (0, TREE.depth)),
    "translation_automorphism": (
        "steps", None, None, lambda v: tree.translation_automorphism(TREE, v),
        (-TREE.depth, TREE.depth)),
    "build_fields p": ("p", None, None, lambda v: orbits.build_fields(v, 1), (2, 13)),
    "build_fields n": ("n", 1, 8, lambda v: orbits.build_fields(2, v), (1, 8)),
    # c = 0 passes the rule and is then refused as no unit
    "exists_nonsquare_value": ("c", 0, F3.q - 1,
                               lambda v: orbits.exists_nonsquare_value(F3, v),
                               (0, F3.q - 1)),
    "run_suite depth": ("suite depth", 6, None, lambda v: suite.run_suite(depth=v), ()),
    "run_suite seed": ("suite seed", None, None, lambda v: suite.run_suite(seed=v), ()),
}

NO_INTS = (True, False, 2.0, 1.5, float("nan"), "2", None)


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
    """The ints just outside the row's range."""
    _, lo, hi, _, _ = ROWS[row]
    return [bound for bound in (None if lo is None else lo - 1,
                                None if hi is None else hi + 1)
            if bound is not None]


def broken_values(row):
    _, lo, hi, _, _ = ROWS[row]
    ints = [st.integers(max_value=lo - 1)] if lo is not None else []
    ints += [st.integers(min_value=hi + 1)] if hi is not None else []
    return st.one_of(st.booleans(), st.floats(), st.just(2.0), st.text(),
                     st.none(), *ints)


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


def table_answers():
    """[sys.flags.optimize, {row: [[value, refusal], ...]}] over NO_INTS,
    the ints just outside each range and the ints that pass."""
    answers = {row: [[repr(value), refusal(row, value)]
                     for value in (*NO_INTS, *outside(row), *ROWS[row][4])]
               for row in ROWS}
    return [sys.flags.optimize, answers]


def test_the_table_holds_under_python_O():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"),
                                                        str(here)]))
    script = ("import json, test_int_arguments as t; "
              "print(json.dumps(t.table_answers()))")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    optimize, answers = json.loads(proc.stdout)
    assert optimize == 1
    for row, pairs in answers.items():
        passing = {repr(value) for value in ROWS[row][4]}
        for value, message in pairs:
            assert bool(by_the_rule(row, message)) != (value in passing), \
                (row, value, message)
