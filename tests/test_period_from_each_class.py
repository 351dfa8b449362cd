"""The invariant cocycle is the period seen from each delta-class.

For an edge C of the ambient tree, phi(C) = sum over the marked edges D of
(-1/q_E)^d(C, D) is harmonic, since each map C -> (-1/q_E)^d(C, D) is, and
invariant, since the automorphisms of the pair permute the marked edges.
On the marked root edge it is the rank-1 period (q - 1)/(q + 1).  From an
edge at class delta >= 1 the marked edges at gallery distance
delta - 1 + n number (q + 1) q^(n - 1), so
phi(delta) = -q^-1 (-q^-2)^(delta - 1).  The solver's profile is the line
of harmonic class cocycles normalized to 1 on the marked edges, so it is
phi(delta) / phi(0).
"""

from collections import Counter
from fractions import Fraction

import pytest

from buildingkit import period, tree
from test_tree import edge_bfs, reference_build

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 16, 27)


def phi(q, delta):
    """The sum of (-1/q_E)^distance over the marked edges, from an edge at
    class delta, in closed form."""
    if delta == 0:
        return Fraction(q - 1, q + 1)
    return -Fraction(1, q) * Fraction(-1, q * q) ** (delta - 1)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_the_invariant_profile_is_the_period_seen_from_each_class(q):
    profile = tree.invariant_solver(tree.build_tree_pair(q, 6)).profile
    # seen from the marked root edge, the sum is the rank-1 period
    assert phi(q, 0) == period.period_closed_form("A", 1, q)
    assert list(profile) == [phi(q, delta) / phi(q, 0) for delta in range(7)]


@pytest.mark.parametrize("q,depth", [(2, 6), (3, 4)])
def test_the_marked_edges_seen_from_each_class_sum_to_phi(q, depth):
    # the lowest edge of class delta hangs below vertex 0, whose marked
    # edges within `depth` steps the tree holds: the marked edges at
    # distance delta - 1 + n, n = 1..depth, are the counts phi sums over,
    # and their sum differs from phi(delta) by at most the first term left out
    t = tree.build_tree_pair(q, depth)
    deltas = reference_build(q, depth)["deltas"]
    for delta in range(1, depth + 1):
        distances = edge_bfs(t, [deltas.index(delta)])
        counts = Counter(d for d, e_delta in zip(distances, deltas) if not e_delta)
        seen = [counts[delta - 1 + n] for n in range(1, depth + 1)]
        assert seen == [(q + 1) * q ** (n - 1) for n in range(1, depth + 1)]
        partial = sum(count * Fraction(-1, q * q) ** (delta - 1 + n)
                      for n, count in enumerate(seen, 1))
        left_out = (q + 1) * q**depth * Fraction(1, q * q) ** (delta + depth)
        assert 0 < abs(phi(q, delta) - partial) <= left_out
