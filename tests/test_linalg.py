"""The invariant cocycle's forward substitution against row reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildingkit import linalg, tree
from buildingkit.errors import ModelError
from linalg_oracle import normalized_kernel
from test_tree import EDGE_BOUND, OLD_QF, reference_build, reference_rows

ENTRIES = st.integers(-4, 4)


def last_column(row):
    return max((c for c, a in enumerate(row) if a), default=0)


@st.composite
def covered_rows(draw):
    """(n, rows): integer rows of length n, one ending at each column
    1..n - 1, with extra rows that are integer combinations of those, and
    so consistent with them, or random, in a drawn order."""
    n = draw(st.integers(2, 7))
    rows = [draw(st.lists(ENTRIES, min_size=k, max_size=k))
            + [draw(ENTRIES.filter(bool))] + [0] * (n - 1 - k)
            for k in range(1, n)]
    extras = []
    for consistent in draw(st.lists(st.booleans(), max_size=4)):
        if consistent:
            coefficients = draw(st.lists(ENTRIES, min_size=n - 1,
                                         max_size=n - 1))
            extras.append([sum(c * row[j] for c, row in zip(coefficients, rows))
                           for j in range(n)])
        else:
            extras.append(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    return n, draw(st.permutations(rows + extras))


@settings(max_examples=400, deadline=None)
@given(drawn=covered_rows())
def test_substitution_is_the_row_reduction_kernel(drawn):
    # the kernel is the line with first entry 1, or 0; never a second
    # vector, never one vanishing at column 0
    n, rows = drawn
    basis = linalg.nullspace(rows, n)
    assert basis == normalized_kernel(rows, n)
    assert all(type(x) is Fraction for v in basis for x in v)


@settings(max_examples=200, deadline=None)
@given(drawn=covered_rows(), data=st.data())
def test_an_uncovered_column_is_refused(drawn, data):
    n, rows = drawn
    dropped = data.draw(st.integers(1, n - 1))
    rows = [row for row in rows if last_column(row) != dropped]
    first = min(set(range(1, n)) - set(map(last_column, rows)))
    with pytest.raises(ModelError, match=f"^no row ends at column {first}$"):
        linalg.nullspace(rows, n)


def buildable_shapes():
    """Every (q_F, depth) of the old q_F with depth >= 2 whose tree fits the
    old edge bound."""
    for q in OLD_QF:
        depth = 2
        while tree._projected_edges(q * q, depth) <= EDGE_BOUND:
            yield q, depth
            depth += 1


@pytest.mark.parametrize("q,depth", buildable_shapes())
def test_profile_is_the_oracle_kernel_on_every_buildable_tree(q, depth):
    # the oracle kernel is that of the vertex loop's rows, not of the rows
    # the solver reads
    t = tree.build_tree_pair(q, depth)
    profile = tree.invariant_solver(t).profile
    rows = reference_rows(q, depth, reference_build(q, depth)["deltas"])
    assert [list(profile)] == normalized_kernel(rows, depth + 1)
    assert all(type(x) is Fraction for x in profile)
