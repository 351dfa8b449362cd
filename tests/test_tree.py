"""Tree pair structure, cocycles, the invariant solver, automorphisms."""

import hashlib
import random
import re
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import census_oracle
from buildingkit import cli, errors, period, suite, tree
from buildingkit.coxeter import (build_affine_system, growth_coefficients,
                                 growth_from_exponents)
from buildingkit.errors import BudgetError, ModelError

# the q_F the tree once took, and the edge bound it once built under: the
# per-vertex oracles below run on every (q_F, depth) of these whose tree has
# at most EDGE_BOUND edges, the 34 shapes they were written for
OLD_QF = (2, 3, 4, 5, 7, 8, 9)
EDGE_BOUND = 4_000_000


# incidence read off the id layout of the tree module's docstring, never off
# the TreePair methods the tests check

def parent_edge(v):
    """The edge vertex v hangs at; both ends of the root edge hang at it."""
    return 0 if v <= 1 else v - 1


def endpoints(t, e):
    """The root edge joins vertices 0 and 1; edge e >= 1 hangs at vertex
    (e - 1) // q_E and creates vertex e + 1."""
    return (e - 1) // t.q_E if e else 0, e + 1


def children(t, v):
    """The q_E ids from 1 + v * q_E, when they are edges of the tree."""
    start = 1 + v * t.q_E
    return range(start, start + t.q_E) if start < t.n_edges else range(0)


def incident_edges(t, v):
    return [parent_edge(v), *children(t, v)]


def edge_bfs(t, sources):
    """Each edge's gallery distance from the source edges, in id order, by a
    breadth-first search through shared endpoints."""
    dist = {e: 0 for e in sources}
    queue = deque(sources)
    while queue:
        e = queue.popleft()
        for v in endpoints(t, e):
            for e2 in incident_edges(t, v):
                if e2 not in dist:
                    dist[e2] = dist[e] + 1
                    queue.append(e2)
    return [dist[e] for e in range(t.n_edges)]


def edge_values(t, cocycle):
    """The cocycle's value on each edge, in id order, read at the edge's
    BFS distance from the root edge."""
    return [Fraction(cocycle.nums[k], cocycle.den) for k in edge_bfs(t, [0])]


def test_smallest_trees_census():
    t = tree.build_tree_pair(2, 1)
    assert (t.n_edges, sum(tree.check_tree_invariants(t).marked_census)) == (9, 5)
    assert t.n_vertices == 10
    t = tree.build_tree_pair(3, 1)
    assert (t.n_edges, sum(tree.check_tree_invariants(t).marked_census)) == (19, 7)


@pytest.mark.parametrize("q,depth", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_sphere_sizes(q, depth):
    t = tree.build_tree_pair(q, depth)
    audit = tree.check_tree_invariants(t)
    assert audit.marked_census == (1, *(2 * q**k for k in range(1, depth + 1)))
    assert audit.ambient_census == (1, *(2 * (q * q)**k for k in range(1, depth + 1)))
    assert t.n_edges == sum(audit.ambient_census)
    assert t.n_vertices == t.n_edges + 1


def test_marked_census_counts_the_marked_levels():
    # the census counts the BFS levels 0..depth of the vertex loop's edges
    # at delta 0
    for q, depth in ((2, 1), (2, 3), (3, 2), (4, 2)):
        t = tree.build_tree_pair(q, depth)
        deltas = reference_build(q, depth)["deltas"]
        marked = [level for level, d in zip(edge_bfs(t, [0]), deltas) if not d]
        assert tree.check_tree_invariants(t).marked_census == tuple(
            marked.count(k) for k in range(t.depth + 1))


@pytest.mark.parametrize("q,depth", [(2, 4), (3, 3), (7, 2)])
def test_audit_returns_the_censuses(q, depth):
    t = tree.build_tree_pair(q, depth)
    audit = tree.check_tree_invariants(t)
    # tree_period reads the same marked census, and the levels are id ranges
    sums = tree.tree_period(t, tree.EdgeCocycle([1] * (depth + 1)))
    assert audit.marked_census == tuple(b - a for a, b in zip([0, *sums], sums))
    assert audit.ambient_census == tuple(len(t.level(k)) for k in range(depth + 1))
    assert tree.check_tree_invariants(tree.TreePair(q, depth)) == audit


@pytest.mark.parametrize("q,depth", [(2, 3), (2, 4), (3, 3)] + [
    (q, depth) for q in OLD_QF for depth in (1, 2)])
def test_delta_and_level_against_bfs_oracle(q, depth):
    # the vertex loop's deltas are the distances to its edges at delta 0
    t = tree.build_tree_pair(q, depth)
    edges = range(t.n_edges)
    deltas = reference_build(q, depth)["deltas"]
    marked = [e for e in edges if not deltas[e]]
    assert edge_bfs(t, marked) == list(deltas)
    # level k is exactly the edges at BFS distance k from the root edge,
    # and the census counts their BFS distances to the marked edges
    levels, census = edge_bfs(t, [0]), dense_census(t)
    assert max(levels) == t.depth
    for k in range(t.depth + 1):
        assert list(t.level(k)) == [e for e in edges if levels[e] == k]
        assert census[k] == [
            sum(levels[e] == k for e in edges if deltas[e] == d)
            for d in range(t.depth + 1)]


def test_structural_invariants_audit():
    for q, depth in [(2, 1), (2, 4), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3),
                     (9, 2)]:
        assert tree.check_tree_invariants(tree.build_tree_pair(q, depth)).ok


def test_delta_recursion_invariant_directly():
    # delta >= 2: exactly one incident edge at the closer panel is one class
    # nearer; delta = 1: the closer panel is marked and carries q_F + 1
    # marked edges.  So is it in the vertex loop's deltas, and in each
    # pattern row, where the rest of a vertex's edges are one class out
    t = tree.build_tree_pair(3, 3)
    deltas = reference_build(3, 3)["deltas"]
    for e in range(t.n_edges):
        delta = deltas[e]
        if delta == 0:
            continue
        closer = sum(1 for x in incident_edges(t, endpoints(t, e)[0])
                     if deltas[x] == delta - 1)
        assert closer == (t.q_F + 1 if delta == 1 else 1), (e, delta)
    for d, row in enumerate(dense_rows(t)):
        assert row[d] == (t.q_F + 1 if d == 0 else 1)
        assert row[d] + row[d + 1] == sum(row) == t.q_E + 1


def test_bad_build_arguments():
    with pytest.raises(ValueError):
        tree.build_tree_pair(6, 2)
    with pytest.raises(ValueError):
        tree.build_tree_pair(2, 0)
    # the pair alone takes depth 0, the root edge, but no negative depth
    with pytest.raises(ValueError, match="^depth must be >= 0, got -1$"):
        tree.TreePair(2, -1)


def test_the_suite_depth_cap_is_the_one_its_help_and_the_readme_name(capsys):
    # the q_F = 3 tree's listing cap sets suite's largest depth, which the
    # `suite --depth` help and the README write as a literal
    tree.TreePair(3, 706)
    with pytest.raises(ValueError, match="over the cap of 1000000 bits$"):
        tree.TreePair(3, 707)
    with pytest.raises(SystemExit):
        cli.main(["suite", "--help"])
    assert "from 6 to 706, the q_F = 3 tree's cap" in " ".join(
        capsys.readouterr().out.split())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "`suite` runs to `--depth 706`" in " ".join(readme.split())


@pytest.mark.parametrize("q,message", [
    (1, "q_F must be >= 2, got 1"),
    (6, "q_F must be a prime power, got 6")])
def test_a_q_F_that_is_no_prime_power_is_refused_before_any_count(
        monkeypatch, q, message):
    # at q_F = 1 the census's diagonal is 0, and the audit, the solver and
    # the reconstruction divided by it; the pair itself is refused now, so
    # none of them, nor the rows and the marked class they read, is reached
    def unreachable(*args):
        raise AssertionError("a count was read off a refused pair")

    for name in ("_marked_census", "_pattern_row", "_pattern_rows"):
        monkeypatch.setattr(tree, name, unreachable)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree.TreePair(q, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree.build_tree_pair(q, 2)


def test_bool_depth_is_refused():
    # True == 1, so an unchecked bool would build a depth-1 tree whose
    # depth reads True
    with pytest.raises(ValueError, match="depth must be an integer, got True"):
        tree.build_tree_pair(2, True)
    with pytest.raises(ValueError, match="depth must be an integer, got False"):
        tree.build_tree_pair(2, False)


@pytest.mark.parametrize("depth", [True, False, 2.0, "2", None])
def test_tree_pair_refuses_a_depth_that_is_no_int(depth):
    # the pair checks its own depth: a bool once built a tree whose depth
    # read True, and 2.0 failed on a list product with a TypeError
    message = f"^depth must be an integer, got {re.escape(repr(depth))}$"
    with pytest.raises(ValueError, match=message):
        tree.TreePair(2, depth)
    if isinstance(depth, float):
        with pytest.raises(ValueError, match=message):
            tree.build_tree_pair(2, depth)


def test_id_listings_stop_at_the_edge_budget():
    # the (3, 7) pair has 10,761,679 edges: every path that lists per-vertex
    # or per-edge ids refuses it before it allocates anything per edge,
    # while the answers read off the quotient still come
    t = tree.build_tree_pair(3, 7)
    assert t.n_edges == 10_761_679 > EDGE_BOUND == tree.DEFAULT_EDGE_BUDGET
    listings = [lambda: t.parents, lambda: t.v_label,
                lambda: tree._lift(t, 0, 1), lambda: tree.endpoint_swap(t),
                lambda: tree.random_automorphism(t, random.Random(1)),
                lambda: tree.translation_automorphism(t, 1)]
    for listing in listings:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as exc:
                listing()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("listing the ids of the tree with q_F=3 at "
                                  "depth 7 takes 10761679 edges, over budget "
                                  "4000000")
        assert exc.value.budget == EDGE_BOUND
        assert peak < 100_000, peak
    # a constant cocycle fails at every level, and its violations are
    # counted, not listed
    tracemalloc.start()
    try:
        report = tree.verify_harmonic(t, tree.EdgeCocycle([1] * 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == 1_195_742 == report.interior_checked
    assert peak < 100_000, peak
    assert vars(t).keys() == {"q_F", "q_E", "depth", "n_edges",
                              "n_expanded", "n_vertices"}
    assert tree.verify_harmonic(t, tree.iwahori_cocycle(t)).violations == 0
    assert tree.check_tree_invariants(t).ok


def reference_build(q_F, depth):
    """The oracle for the census: the marks, deltas and labels built vertex
    by vertex, each expanded vertex appending its q_E children's entries.
    The marks are the edges at delta 0, so only the deltas and labels are
    returned; the labels are the oracle for the distance parity that
    `TreePair.v_label` reads off the levels."""
    q_E = q_F * q_F
    # entries 0 and 1 for the marked children, at every depth, 0 included
    block = [bytes([x]) * q_E for x in range(max(depth + 1, 2))]
    e_in_F, deltas = bytearray(b"\x01"), bytearray(1)
    v_label = bytearray(b"\x00\x01")
    f_flags = block[1][:q_F] + block[0][q_F:]
    f_deltas = block[0][:q_F] + block[1][q_F:]
    for v in range((tree._projected_edges(q_E, depth) - 1) // q_E):
        parent = 0 if v <= 1 else v - 1
        v_label += block[1 - v_label[v]]
        if e_in_F[parent]:
            e_in_F += f_flags
            deltas += f_deltas
        else:
            e_in_F += block[0]
            deltas += block[deltas[parent] + 1]
    assert e_in_F == bytearray(d == 0 for d in deltas)
    return {"deltas": deltas, "v_label": v_label}


def reference_census(q_F, depth, deltas):
    """Per level k, the number of the column's edges at each delta
    0..depth: level 0 is edge 0, and level k the next 2 q_E^k ids."""
    census, start = [], 0
    for k in range(depth + 1):
        stop = start + (2 * q_F ** (2 * k) if k else 1)
        census.append([deltas.count(d, start, stop) for d in range(depth + 1)])
        start = stop
    assert start == len(deltas)
    return census


def reference_rows(q_F, depth, deltas):
    """The solver's rows collected vertex by vertex from the column: per
    class, how many edges at the vertex, its parent edge included, carry
    that delta."""
    q_E = q_F * q_F
    patterns = {(deltas[0 if v <= 1 else v - 1],
                 bytes(deltas[1 + v * q_E:1 + (v + 1) * q_E]))
                for v in range((len(deltas) - 1) // q_E)}
    return {tuple((parent == d) + kids.count(d) for d in range(depth + 1))
            for parent, kids in patterns}


def dense(counts, depth):
    """A {delta: count} mapping, a census level or a pattern row, as a list
    over the classes 0..depth."""
    return [counts.get(d, 0) for d in range(depth + 1)]


def dense_census(t):
    """The oracle's census as the list of its levels, each dense over
    0..depth."""
    return [dense(level, t.depth) for level in census_oracle.census(t)]


def dense_rows(t):
    """The pattern rows, each a tuple over the classes 0..depth."""
    return [tuple(dense(row, t.depth)) for row in tree._pattern_rows(t)]


@pytest.mark.parametrize("q", OLD_QF)
def test_build_matches_the_vertex_loop(q):
    # every depth within the edge bound: the census counts the vertex
    # loop's deltas level by level, the pattern rows are its rows, both
    # hold nonzero entries only, and the pair keeps nothing per edge
    depth = 1
    while tree._projected_edges(q * q, depth) <= EDGE_BOUND:
        t = tree.build_tree_pair(q, depth)
        assert vars(t).keys() == {"q_F", "q_E", "depth", "n_edges",
                                  "n_expanded", "n_vertices"}
        deltas = reference_build(q, depth)["deltas"]
        assert dense_census(t) == reference_census(q, depth, deltas), depth
        assert set(dense_rows(t)) == reference_rows(q, depth, deltas)
        assert all(all(counts.values()) for counts in
                   [*census_oracle.census(t), *tree._pattern_rows(t)])
        depth += 1
    assert depth > 2


@pytest.mark.parametrize("q", OLD_QF)
def test_labels_are_the_vertex_loop_fill(q):
    # every depth up to about 250k edges, and the depth-0 pair of the root
    # edge alone: the labels, derived on first read, are bytes, equal the
    # vertex loop's fill and differ at the two endpoints of every edge
    depth = 0
    while tree._projected_edges(q * q, depth) <= 250_000:
        reference = reference_build(q, depth)
        t = tree.TreePair(q, depth)
        labels = t.v_label
        assert type(labels) is bytes and labels == reference["v_label"], depth
        assert all(labels[u] != labels[w]
                   for u, w in map(endpoints, repeat(t), range(t.n_edges)))
        depth += 1


def test_iwahori_harmonic_and_decay():
    for q in (2, 3):
        t = tree.build_tree_pair(q, 4)
        f = tree.iwahori_cocycle(t)
        assert edge_values(t, f) == [Fraction(-1, t.q_E) ** k
                                     for k in edge_bfs(t, [0])]
        report = tree.verify_harmonic(t, f)
        assert report.ok
        assert report.violations == 0
        assert report.interior_checked + report.boundary_skipped == t.n_vertices
        assert tree.decay_check(t, f) == 1


def test_non_harmonic_cocycles_flagged():
    # cocycles constant on levels: 1 everywhere, 1 on the root edge (level 0
    # holds only it) and 0 elsewhere, and 0 everywhere
    t = tree.build_tree_pair(2, 3)
    const = tree.EdgeCocycle([1] * (t.depth + 1))
    report = tree.verify_harmonic(t, const)
    assert report.violations == report.interior_checked
    assert tree.decay_check(t, const) == t.q_E ** t.depth

    ind = tree.EdgeCocycle([1] + [0] * t.depth)
    assert edge_values(t, ind) == [1] + [0] * (t.n_edges - 1)
    report = tree.verify_harmonic(t, ind)
    # only the two endpoints of the root edge see the lone nonzero value
    assert reference_verify_harmonic(t, edge_values(t, ind)) == (0, 1)
    assert report.violations == 2
    assert tree.decay_check(t, ind) == 1

    zero = tree.EdgeCocycle([0] * (t.depth + 1))
    assert tree.verify_harmonic(t, zero).ok
    assert tree.decay_check(t, zero) == 0


@pytest.mark.parametrize("den", [0, -1])
def test_cocycle_refuses_a_denominator_below_1(den):
    with pytest.raises(ValueError,
                       match=rf"^den must be >= 1, got {den}$"):
        tree.EdgeCocycle([1, -1], den=den)


@pytest.mark.parametrize("nums", [[1, -1], [1, 0, 0, 0, 0]])
@pytest.mark.parametrize("check", [tree.verify_harmonic, tree.tree_period,
                                   tree.decay_check])
def test_cocycle_passes_refuse_a_numerator_count_off_the_levels(check, nums):
    # four levels on the (2, 3) tree: a shorter or longer profile is refused
    # alike by every pass, not cut short or indexed past its end
    t = tree.build_tree_pair(2, 3)
    with pytest.raises(ValueError, match=rf"^cocycle has {len(nums)} "
                                         r"numerators for 4 levels$"):
        check(t, tree.EdgeCocycle(nums))


@pytest.mark.parametrize("q", [2, 3])
def test_tree_period_equals_series_engine(q):
    depth = 5
    t = tree.build_tree_pair(q, depth)
    sums = tree.tree_period(t, tree.iwahori_cocycle(t))
    series = growth_coefficients(build_affine_system("A", 1), depth)
    assert sums == period.period_series(series, q)
    assert sums[0] == 1
    assert sums[1] == 1 - Fraction(2, q)


@pytest.mark.parametrize("q,depth", [(2, 0), (2, 1), (3, 4), (9, 2), (2, 8), (2, 999)])
def test_tree_period_pushes_only_the_marked_class(monkeypatch, q, depth):
    # the marked class never leaves delta 0, so the period needs no census
    # of the other classes, nor any row but row 0; its layers are the
    # oracle census's marked counts times the level numerators
    t = tree.TreePair(q, depth)
    cocycle = tree.iwahori_cocycle(t)
    marked = [level.get(0, 0) for level in census_oracle.census(t)]

    def no_rows(pair):
        raise AssertionError("tree_period read the rows")

    monkeypatch.setattr(tree, "_pattern_rows", no_rows)
    assert tree.tree_period(t, cocycle) == [
        Fraction(acc, cocycle.den)
        for acc in accumulate(map(mul, cocycle.nums, marked))]


# the solved profiles, frozen; c_0 = 1, c_1 = -(q+1)/(q^2-q), c_{d+1} = -c_d/q^2
FROZEN_PROFILES = {
    2: (Fraction(1), Fraction(-3, 2), Fraction(3, 8), Fraction(-3, 32),
        Fraction(3, 128)),
    3: (Fraction(1), Fraction(-2, 3), Fraction(2, 27), Fraction(-2, 243),
        Fraction(2, 2187)),
    4: (Fraction(1), Fraction(-5, 12), Fraction(5, 192), Fraction(-5, 3072),
        Fraction(5, 49152)),
    5: (Fraction(1), Fraction(-3, 10), Fraction(3, 250), Fraction(-3, 6250),
        Fraction(3, 156250)),
}


@pytest.mark.parametrize("q", sorted(FROZEN_PROFILES))
def test_invariant_solver_frozen_profiles(q):
    t = tree.build_tree_pair(q, 4)
    sol = tree.invariant_solver(t)
    assert sol.dimension == 1
    assert sol.profile == FROZEN_PROFILES[q]
    # the solver's profile really is a global harmonic cocycle, vertex by
    # vertex, on the vertex loop's deltas
    assert reference_verify_harmonic(
        t, [sol.profile[d] for d in reference_build(q, 4)["deltas"]]) == ()


def test_invariant_solver_needs_depth():
    with pytest.raises(ValueError):
        tree.invariant_solver(tree.build_tree_pair(2, 1))


@pytest.mark.parametrize("q", [2, 3])
def test_reconstruct_layer_reproduces_profile(q):
    t = tree.build_tree_pair(q, 4)
    sol = tree.invariant_solver(t)
    value, delta = sol.profile[0], 0
    while (value := tree.reconstruct_layer(t, delta, value)) is not None:
        delta += 1
        assert type(value) is Fraction and value == sol.profile[delta]
    assert delta == t.depth


@pytest.mark.parametrize("q,depth", [(2, 1), (2, 3), (3, 2)])
def test_reconstruct_layer_refuses_a_delta_past_the_classes(q, depth):
    t = tree.build_tree_pair(q, depth)
    for delta in (-1, depth + 1):
        with pytest.raises(ValueError,
                           match=rf"^delta must be in 0..{depth}, got {delta}$"):
            tree.reconstruct_layer(t, delta, Fraction(1))
    assert tree.reconstruct_layer(t, depth, Fraction(1)) is None


@pytest.mark.parametrize("damage", ["early rim", "common value"])
def test_suite_check_7_chains_the_returned_layers(monkeypatch, damage):
    # the step from delta 1 comes back damaged: at the rim too early, or
    # with a wrong value, which the next step must start from
    reconstruct, calls = tree.reconstruct_layer, []

    def damaged_step(t, delta, value):
        calls.append((t.q_F, delta, value))
        value = reconstruct(t, delta, value)
        if delta == 1:
            return None if damage == "early rim" else 2 * value
        return value

    monkeypatch.setattr(tree, "reconstruct_layer", damaged_step)
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    check = suite.run_suite().checks[6]
    assert check.name == "invariant-multiplicity-one"
    assert check.status == "fail"
    for row in check.witness:
        assert (row["profile_ok"], row["reconstruction_ok"]) == (True, False)
        profile = [Fraction(x["num"], x["den"]) for x in row["profile"]]
        given = [value for q, _, value in calls if q == row["q_F"]]
        if damage == "common value":
            profile[2:] = [2 * c for c in profile[2:]]
        else:
            del profile[2:]
        assert given == profile


def test_suite_check_7_reads_c_1_off_the_merged_orbit(monkeypatch):
    # every one-orbit report comes back split in two: check 7 then expects
    # c_1 = -(q + 1) over half of q^2 - q, and fails on the profile alone,
    # while check 8, which reads the same reports, fails on transitivity
    def split(report):
        def halves(fields):
            rep = report(fields)
            if rep.orbit_count != 1:
                return rep
            size = rep.orbit_sizes[0]
            return rep._replace(
                orbit_count=2, orbit_sizes=(size // 2, size - size // 2),
                representatives=rep.representatives * 2)
        return halves

    for name in ("affine_square_orbits", "inversion_closure_orbits"):
        monkeypatch.setattr(suite.orbits, name,
                            split(getattr(suite.orbits, name)))
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    checks = suite.run_suite().checks
    assert checks[6].name == "invariant-multiplicity-one"
    assert checks[6].status == "fail"
    assert [(row["q_F"], row["profile_ok"], row["reconstruction_ok"])
            for row in checks[6].witness] == [
        (q, False, True) for q in suite.GRID_QF]
    assert checks[7].name == "orbit-transitivity"
    assert checks[7].status == "fail"


def test_endpoint_swap_and_identity_signs():
    t = tree.build_tree_pair(2, 3)
    swap = tree.endpoint_swap(t)
    assert len(swap.vertex_map) == t.n_vertices
    edge_map = reference_edge_map(t, swap.vertex_map)
    assert len(edge_map) == t.n_edges
    assert tree.epsilon_tree(swap) == -1
    assert edge_map[0] == 0  # the root edge maps to itself, reversed
    ident = tree.TreeAutomorphism(t, range(t.n_vertices))
    assert tree.epsilon_tree(ident) == 1
    # swap is an involution
    assert tree.compose(swap, swap).vertex_map == ident.vertex_map


def test_random_automorphism_signs_and_determinism():
    t = tree.build_tree_pair(3, 3)
    rng = random.Random(11)
    g = tree.TreeAutomorphism(t, tree._lift(t, 0, 1, rng))
    assert tree.epsilon_tree(g) == 1
    assert len(g.vertex_map) == t.n_vertices
    assert sorted(reference_edge_map(t, g.vertex_map)) == list(range(t.n_edges))
    h = tree.TreeAutomorphism(t, tree._lift(t, 1, 0, rng))
    assert tree.epsilon_tree(h) == -1
    # same seed, same maps
    g2 = tree.TreeAutomorphism(t, tree._lift(t, 0, 1, random.Random(11)))
    assert g2.vertex_map == g.vertex_map


def test_sign_is_multiplicative_on_samples():
    t = tree.build_tree_pair(2, 3)
    rng = random.Random(1729)
    for _ in range(25):
        g = tree.random_automorphism(t, rng)
        h = tree.random_automorphism(t, rng)
        assert (tree.epsilon_tree(tree.compose(g, h))
                == tree.epsilon_tree(g) * tree.epsilon_tree(h))


def test_translation_along_axis():
    t = tree.build_tree_pair(2, 4)
    one = tree.translation_automorphism(t, 1)
    two = tree.translation_automorphism(t, 2)
    assert tree.epsilon_tree(one) == -1
    assert tree.epsilon_tree(two) == 1
    assert one.vertex_map[0] == 1  # shifts the root edge along the axis
    assert tree.translation_automorphism(t, 0).vertex_map \
        == list(range(t.n_vertices))
    # composing two unit shifts agrees with the double shift where both act
    comp = tree.compose(one, one)
    for v, image in enumerate(comp.vertex_map):
        if image is not None and two.vertex_map[v] is not None:
            assert two.vertex_map[v] == image
    with pytest.raises(ValueError):
        tree.translation_automorphism(t, 99)
    # the root edge's image needs places steps and steps + 1 on the axis
    for steps in (t.depth + 1, -t.depth - 1):
        with pytest.raises(ValueError, match="exceeds the materialized axis"):
            tree.translation_automorphism(t, steps)
    for steps in range(-t.depth, t.depth + 1):
        back_and_forth = tree.compose(tree.translation_automorphism(t, steps),
                                      tree.translation_automorphism(t, -steps))
        assert back_and_forth.vertex_map[:2] == [0, 1]
        assert all(image in (None, v)
                   for v, image in enumerate(back_and_forth.vertex_map))


# sha256 of repr([vertex_map for steps in -depth..depth]), frozen from the
# axis walk that the lift replaced
TRANSLATION_MAPS_SHA256 = {
    (2, 3): "9b7d8a1fd3e992672631486f34c828393e2864e4545cb44bd8f8adc672acc9f1",
    (3, 2): "c61b8c4d2759a387224b53d07e70643aa8cace79aa87177395dcccd13b8a8fdc",
}


@pytest.mark.parametrize("q,depth", sorted(TRANSLATION_MAPS_SHA256))
def test_translation_maps_are_frozen(q, depth):
    t = tree.build_tree_pair(q, depth)
    maps = [tree.translation_automorphism(t, steps).vertex_map
            for steps in range(-depth, depth + 1)]
    digest = hashlib.sha256(repr(maps).encode()).hexdigest()
    assert digest == TRANSLATION_MAPS_SHA256[(q, depth)]


def partial_map(t, images):
    """Id-indexed vertex map with the given {vertex: image} and None elsewhere."""
    vm = [None] * t.n_vertices
    for v, image in images.items():
        vm[v] = image
    return vm


def test_automorphism_must_preserve_adjacency():
    t = tree.build_tree_pair(2, 2)
    # vertices 2 and 3 are siblings, not neighbors
    with pytest.raises(ValueError, match="breaks adjacency"):
        tree.TreeAutomorphism(t, partial_map(t, {0: 2, 1: 3}))
    with pytest.raises(ValueError, match="not injective"):
        tree.TreeAutomorphism(t, partial_map(t, {0: 0, 1: 0}))


def test_epsilon_rejects_incoherent_and_empty_maps():
    t = tree.build_tree_pair(2, 2)
    # two disconnected mapped edges: (2,10) keeps labels, (3,14) swaps them
    assert endpoints(t, 9) == (2, 10) and endpoints(t, 13) == (3, 14)
    mixed = tree.TreeAutomorphism(
        t, partial_map(t, {2: 2, 10: 11, 3: 14, 14: 3}))
    with pytest.raises(ValueError):
        tree.epsilon_tree(mixed)
    # a single mapped vertex spans no edge, so the sign is undefined
    empty = tree.TreeAutomorphism(t, partial_map(t, {0: 0}))
    with pytest.raises(ValueError):
        tree.epsilon_tree(empty)


@pytest.mark.parametrize("q", [2, 3])
def test_epsilon_of_a_map_defined_on_the_root_edge_alone(q):
    # the root edge is the only mapped edge, and hangs at no child range
    t = tree.build_tree_pair(q, 2)
    for e in range(t.n_edges):
        for u, w in (endpoints(t, e), endpoints(t, e)[::-1]):
            aut = tree.TreeAutomorphism(t, partial_map(t, {0: u, 1: w}))
            expected = 1 if t.v_label[u] == t.v_label[0] else -1
            assert tree.epsilon_tree(aut) == reference_epsilon(aut) == expected


LABELLED_TREES = [(tree.build_tree_pair(q, depth), reference_build(q, depth))
                  for q, depth in ((2, 1), (2, 3), (3, 1), (3, 2))]


@settings(max_examples=100, deadline=None)
@given(pair=st.sampled_from(LABELLED_TREES), seed=st.integers(0, 2**32))
def test_epsilon_is_the_label_parity_of_the_first_mapped_vertex(pair, seed):
    # the labels flip across every edge, so a map that keeps adjacency on a
    # connected domain moves every label alike, and its sign is read at any
    # one mapped vertex; the labels are the vertex-loop fill
    t, reference = pair
    label = reference["v_label"]
    rng = random.Random(seed)
    g, h = tree.random_automorphism(t, rng), tree.random_automorphism(t, rng)
    shifts = [tree.translation_automorphism(t, steps)
              for steps in range(-t.depth, t.depth + 1)]
    for aut in (g, h, tree.compose(g, h), tree.endpoint_swap(t), *shifts):
        vm = aut.vertex_map
        u = next(v for v, image in enumerate(vm) if image is not None)
        assert tree.epsilon_tree(aut) == (-1 if label[vm[u]] != label[u] else 1)


def mapped_root_edge(t, vm):
    """The edge that an accepted vertex map sends the root edge to."""
    return reference_edge_map(t, tree.TreeAutomorphism(t, vm).vertex_map)[0]


def test_edge_between_index():
    # the edge between u and w is read off the automorphism's vertex map:
    # the root edge's endpoints sent to u, w in either order land on it
    t = tree.build_tree_pair(2, 2)
    for e in range(t.n_edges):
        u, w = endpoints(t, e)
        assert mapped_root_edge(t, partial_map(t, {0: u, 1: w})) == e
        assert mapped_root_edge(t, partial_map(t, {0: w, 1: u})) == e
    with pytest.raises(ValueError, match="breaks adjacency"):
        tree.TreeAutomorphism(t, partial_map(t, {0: 2, 1: 3}))


@pytest.mark.parametrize("q", [2, 3])
def test_edge_between_matches_endpoint_index(q):
    # the root edge's endpoints sent to any pair u, w: an edge exactly when
    # the endpoint index has it, and then the root edge maps to that edge
    t = tree.build_tree_pair(q, 2)
    index = {frozenset(endpoints(t, e)): e for e in range(t.n_edges)}
    ids = range(t.n_vertices)
    for u in ids:
        for w in ids:
            if u == w:
                continue
            edge = index.get(frozenset((u, w)))
            vm = partial_map(t, {0: u, 1: w})
            if edge is None:
                with pytest.raises(ValueError, match="breaks adjacency"):
                    tree.TreeAutomorphism(t, vm)
            else:
                assert mapped_root_edge(t, vm) == edge, (u, w)


def test_out_of_range_vertex_ids():
    t = tree.build_tree_pair(2, 2)
    n = t.n_vertices
    for image in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            tree.TreeAutomorphism(t, partial_map(t, {0: image}))
    for length in (n - 1, n + 1):  # an id-indexed list of the wrong length
        with pytest.raises(ValueError, match="entries"):
            tree.TreeAutomorphism(t, list(range(length)))
    # an id past Python's 4,300-digit limit for str is shown by its bits
    with pytest.raises(ValueError,
                       match=r"^vertex id out of range: <int of 16610 bits>$"):
        tree.TreeAutomorphism(t, partial_map(t, {0: 0, 3: 10**5000}))


def test_random_automorphism_golden_vertex_map():
    # computed with the dict-based implementation; pins RNG consumption
    g = tree.random_automorphism(tree.build_tree_pair(2, 2), random.Random(11))
    assert g.vertex_map == [
        1, 0, 8, 6, 7, 9, 2, 5, 4, 3, 36, 37, 34, 35, 27, 29, 26, 28, 33, 31,
        32, 30, 39, 38, 40, 41, 11, 13, 12, 10, 23, 24, 25, 22, 21, 18, 20, 19,
        14, 16, 15, 17]
    assert reference_edge_map(g.tree, g.vertex_map) == [0] + [
        image - 1 for image in g.vertex_map[2:]]


def test_suite_check_5_reads_the_marked_census_off_the_a1_growth(monkeypatch):
    # a wrong a_1 in the affine A1 sphere sizes fails every census row
    grow = suite.coxeter.growth_from_exponents

    def wrong_a1(system, truncation):
        series = grow(system, truncation)
        a = list(series.coefficients)
        a[1] += 1
        return series._replace(coefficients=tuple(a))

    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    check = suite.run_suite().checks[4]
    assert check.name == "tree-census" and check.status == "pass"
    monkeypatch.setattr(suite.coxeter, "growth_from_exponents", wrong_a1)
    check = suite.run_suite().checks[4]
    assert check.status == "fail"
    assert [row["census_ok"] for row in check.witness] == [False] * 4
    assert all(row["audit_ok"] for row in check.witness)


def test_suite_check_12_reads_the_swap_sign_off_omega(monkeypatch):
    # with every Omega sign flipped, A1's nontrivial element has sign +1,
    # and the endpoint swap, of sign -1, fails every row
    sign = suite.coxeter.epsilon_of_omega
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 1)
    check = suite.run_suite().checks[11]
    assert check.name == "tree-sign-homomorphism" and check.status == "pass"
    monkeypatch.setattr(suite.coxeter, "epsilon_of_omega",
                        lambda omega: -sign(omega))
    check = suite.run_suite().checks[11]
    assert check.status == "fail"
    assert [row["ok"] for row in check.witness] == [False] * 4


def test_suite_check_12_holds_one_sampled_pair_at_a_time(monkeypatch):
    # a pair of q_F = 5 vertex maps is about 2.6 MB, so a finished pair kept
    # alive while the next is drawn shows as a peak that grows with the count
    def traced_peak(pairs):
        monkeypatch.setattr(suite, "SAMPLED_PAIRS", pairs)
        tracemalloc.start()
        try:
            suite.run_suite()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the warm-up fills the caches that the first run of a process builds
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    suite.run_suite()
    one, three = traced_peak(1), traced_peak(3)
    assert three - one <= 256 * 1024, (one, three)


# -- the automorphism passes against the loops they replaced ------------------

def shuffled_lift(t, a, b, rng):
    """The lift of the root edge to (a, b), one of its two orientations, with
    each expanded image's children put through `rng.shuffle` in creation
    order."""
    vm = [a, b] + [None] * (t.n_vertices - 2)
    for v in range(t.n_expanded):
        block = [e + 1 for e in children(t, vm[v])]
        rng.shuffle(block)
        vm[2 + v * t.q_E:2 + (v + 1) * t.q_E] = block
    return vm


def reference_edge_map(t, vm):
    """Edge map by floor division: the edge joining images lo < hi can only
    be edge hi - 1, which hangs at vertex 0 when hi == 1 and at
    (hi - 2) // q_E otherwise; -1 marks a mapped pair that is not an edge."""
    edge_map = []
    for e in range(t.n_edges):
        u, w = endpoints(t, e)
        if vm[u] is None or vm[w] is None:
            edge_map.append(None)
            continue
        lo, hi = sorted((vm[u], vm[w]))
        edge_map.append(hi - 1 if hi == 1 or (hi - 2) // t.q_E == lo else -1)
    return edge_map


def reference_epsilon(g):
    """The sign read vertex by vertex, at each expanded u with a mapped edge
    hanging there, and at vertex 0, where the root edge hangs even at
    depth 0."""
    t = g.tree
    label, vm = t.v_label, g.vertex_map
    em = reference_edge_map(t, vm)
    swaps = set()
    for u in range(max(t.n_expanded, 1)):
        if vm[u] is None:
            continue
        kids = children(t, u)
        first, stop = (0, max(kids.stop, 1)) if u == 0 else (kids.start, kids.stop)
        if em[first:stop].count(None) < stop - first:
            swaps.add(label[vm[u]] != label[u])
    if len(swaps) > 1:
        raise ValueError("automorphism is not label-coherent")
    if not swaps:
        raise ValueError("automorphism domain contains no edges")
    return -1 if swaps.pop() else 1


def outcome(f, *args):
    """f's value, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def subtree(t, v):
    """v and the vertices below it."""
    below, stack = [], [v]
    while stack:
        below.append(stack.pop())
        stack.extend(e + 1 for e in children(t, below[-1]))
    return below


# one depth-1 tree per q_E in {4, 9, 16, 25, 49, 64, 81}, and deeper ones
DRAW_TREES = [tree.build_tree_pair(q, 1) for q in OLD_QF] + [
    tree.build_tree_pair(2, 3), tree.build_tree_pair(3, 2)]
AUT_TREES = [tree.build_tree_pair(q, depth)
             for q, depth in ((2, 1), (2, 3), (3, 2), (4, 2), (5, 2))]


@settings(max_examples=150, deadline=None)
@given(t=st.sampled_from(DRAW_TREES), seed=st.integers(0, 2**64),
       swap=st.booleans())
def test_lift_draws_are_random_shuffles(t, seed, swap):
    a, b = (1, 0) if swap else (0, 1)
    rng, oracle = random.Random(seed), random.Random(seed)
    assert tree._lift(t, a, b, rng) == shuffled_lift(t, a, b, oracle)
    assert rng.getstate() == oracle.getstate()
    rng, oracle = random.Random(seed), random.Random(seed)
    g = tree.random_automorphism(t, rng)
    assert g.vertex_map == shuffled_lift(t, *(
        (1, 0) if oracle.random() < 0.5 else (0, 1)), oracle)
    assert rng.getstate() == oracle.getstate()


@settings(max_examples=300, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32),
       holes=st.lists(st.integers(min_value=0), max_size=40),
       swaps=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(min_value=0)), max_size=3))
def test_edge_map_matches_floor_division(t, seed, holes, swaps):
    # a random automorphism with holes punched and a few images exchanged,
    # which mostly turns mapped edges into non-edges
    vm = tree.random_automorphism(t, random.Random(seed)).vertex_map
    n = t.n_vertices
    for i in holes:
        vm[i % n] = None
    for i, j in swaps:
        vm[i % n], vm[j % n] = vm[j % n], vm[i % n]
    expected = reference_edge_map(t, vm)
    if -1 in expected:
        e = expected.index(-1)
        u, w = endpoints(t, e)
        with pytest.raises(ValueError) as info:
            tree.TreeAutomorphism(t, vm)
        assert str(info.value) == (f"vertex map breaks adjacency: edge {e} "
                                   f"maps to non-edge ({vm[u]},{vm[w]})")
    else:
        assert tree.TreeAutomorphism(t, vm).vertex_map == vm


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32))
def test_epsilon_matches_the_vertex_loop_on_full_maps(t, seed):
    rng = random.Random(seed)
    g = tree.random_automorphism(t, rng)
    h = tree.random_automorphism(t, rng)
    for aut in (g, h, tree.compose(g, h), tree.endpoint_swap(t)):
        assert aut.full and None not in reference_edge_map(t, aut.vertex_map)
        assert tree.epsilon_tree(aut) == reference_epsilon(aut)


@pytest.mark.parametrize("q", [2, 3])
def test_epsilon_of_a_depth_0_pair(q):
    # the root edge is the whole tree: its near end, vertex 0, is expanded
    # by no level, and the sign is still read there
    t = tree.TreePair(q, 0)
    ident = tree.TreeAutomorphism(t, [0, 1])
    swap = tree.endpoint_swap(t)
    assert ident.full and swap.full and swap.vertex_map == [1, 0]
    assert tree.epsilon_tree(ident) == reference_epsilon(ident) == 1
    assert tree.epsilon_tree(swap) == reference_epsilon(swap) == -1
    assert tree.epsilon_tree(tree.compose(swap, swap)) == 1
    g = tree.random_automorphism(t, random.Random(q))
    assert tree.epsilon_tree(g) == reference_epsilon(g)
    # one mapped endpoint spans no edge
    half = tree.TreeAutomorphism(t, [0, None])
    assert outcome(tree.epsilon_tree, half) == outcome(reference_epsilon, half)


def test_compose_refuses_automorphisms_of_two_trees():
    g, h = (tree.endpoint_swap(tree.build_tree_pair(2, depth))
            for depth in (1, 2))
    with pytest.raises(ValueError, match=re.escape(
            "of two trees: (q_F, depth) = (2, 1) and (2, 2)")):
        tree.compose(g, h)
    with pytest.raises(ValueError, match=re.escape(
            "of two trees: (q_F, depth) = (2, 2) and (2, 1)")):
        tree.compose(h, g)
    # two pairs built alike are one tree
    twin = tree.endpoint_swap(tree.build_tree_pair(2, 1))
    assert tree.compose(g, twin).vertex_map == list(range(g.tree.n_vertices))


@pytest.mark.parametrize("t", AUT_TREES)
def test_epsilon_matches_the_vertex_loop_on_translations(t):
    for steps in range(-t.depth, t.depth + 1):
        aut = tree.translation_automorphism(t, steps)
        assert outcome(tree.epsilon_tree, aut) == outcome(reference_epsilon, aut)


@settings(max_examples=300, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32),
       glued=st.booleans(), keep=st.integers(0, 8))
def test_epsilon_matches_the_vertex_loop_on_partial_maps(t, seed, glued, keep):
    # a random automorphism with about keep/8 of its vertices kept, or two
    # of them glued on the subtrees below the first children of vertices 0
    # and 1, which is incoherent when exactly one of them swaps the ends
    rng = random.Random(seed)
    g = tree.random_automorphism(t, rng)
    vm = list(g.vertex_map)
    if glued:
        h = tree.random_automorphism(t, rng)
        vm = [None] * t.n_vertices
        for source, root in ((g, 2), (h, 2 + t.q_E)):
            for v in subtree(t, root):
                vm[v] = source.vertex_map[v]
    vm = [x if rng.randrange(8) < keep else None for x in vm]
    try:
        aut = tree.TreeAutomorphism(t, vm)
    except ValueError as exc:  # both glued subtrees land on one image
        assert glued and "not injective" in str(exc)
        return
    assert outcome(tree.epsilon_tree, aut) == outcome(reference_epsilon, aut)


def exchanged(vm, i, j):
    vm = list(vm)
    vm[i], vm[j] = vm[j], vm[i]
    return vm


@pytest.mark.parametrize("t", [t for t in AUT_TREES if t.depth > 1])
def test_full_map_refusals_keep_their_messages(t):
    n, q_E = t.n_vertices, t.q_E
    vm = tree.random_automorphism(t, random.Random(5)).vertex_map
    # -1 would read parents[-1] if the range were not checked first
    with pytest.raises(ValueError, match=r"^vertex id out of range: -1$"):
        tree.TreeAutomorphism(t, vm[:-1] + [-1])
    with pytest.raises(ValueError, match=r"^vertex map is not injective$"):
        tree.TreeAutomorphism(t, vm[:-1] + [vm[0]])
    # the last child of vertex 2 against the first child of vertex 3, and
    # the root edge sent to the edge (0, 2)
    last_of_2, first_of_3 = 1 + 3 * q_E, 2 + 3 * q_E
    for bad in (exchanged(vm, last_of_2, first_of_3),
                exchanged(range(n), 1, 2)):
        expected = reference_edge_map(t, bad)
        e = expected.index(-1)
        u, w = endpoints(t, e)
        with pytest.raises(ValueError) as info:
            tree.TreeAutomorphism(t, bad)
        assert str(info.value) == (f"vertex map breaks adjacency: edge {e} "
                                   f"maps to non-edge ({bad[u]},{bad[w]})")


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32),
       keep_g=st.integers(0, 8), keep_h=st.integers(0, 8))
def test_compose_is_the_per_vertex_gather(t, seed, keep_g, keep_h):
    # keep = 8 leaves a map full, so both of compose's gathers are drawn
    rng = random.Random(seed)
    g, h = (tree.TreeAutomorphism(t, [
        x if rng.randrange(8) < keep else None
        for x in tree.random_automorphism(t, rng).vertex_map])
        for keep in (keep_g, keep_h))
    gv = g.vertex_map
    assert tree.compose(g, h).vertex_map == [None if x is None else gv[x]
                                             for x in h.vertex_map]


# -- per-edge Fraction references for the integer passes ----------------------

def reference_verify_harmonic(t, vals):
    violations = []
    for v in range(t.n_expanded):
        start = 1 + v * t.q_E
        total = sum(vals[start:start + t.q_E], vals[0 if v <= 1 else v - 1])
        if total != 0:
            violations.append(v)
    return tuple(violations)


def reference_decay(t, vals, levels):
    best = Fraction(0)
    for e in range(t.n_edges):
        best = max(best, abs(vals[e]) * t.q_E ** levels[e])
    return best


def reference_tree_period(t, vals, levels):
    deltas = reference_build(t.q_F, t.depth)["deltas"]
    layer_sums = [Fraction(0)] * (t.depth + 1)
    for e in range(t.n_edges):
        if not deltas[e]:
            layer_sums[levels[e]] += vals[e]
    sums, acc = [], Fraction(0)
    for s in layer_sums:
        acc += s
        sums.append(acc)
    return sums


def assert_matches_references(t, cocycle, vals, levels):
    """The cocycle passes against per-edge references, with each edge's
    level given by a BFS from the root edge."""
    assert edge_values(t, cocycle) == vals
    assert tree.verify_harmonic(t, cocycle).violations \
        == len(reference_verify_harmonic(t, vals))
    assert tree.decay_check(t, cocycle) == reference_decay(t, vals, levels)
    assert tree.tree_period(t, cocycle) == reference_tree_period(t, vals, levels)


TREES = {(q, depth): tree.build_tree_pair(q, depth)
         for q in (2, 3) for depth in (1, 2, 3)}
TREE_LEVELS = {shape: edge_bfs(t, [0]) for shape, t in TREES.items()}
TREE_DELTAS = {shape: reference_build(*shape)["deltas"] for shape in TREES}


def level_cocycle(profile):
    """The cocycle with value profile[k] on the edges of level k."""
    values = [Fraction(x) for x in profile]
    den = lcm(*(x.denominator for x in values))
    return tree.EdgeCocycle(
        [x.numerator * (den // x.denominator) for x in values], den)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(TREES)),
       key=st.sampled_from(("levels", "deltas")),
       harmonic=st.booleans(), edits=st.lists(
           st.tuples(st.integers(0, 3), st.fractions()), max_size=2),
       profile=st.lists(st.fractions(), min_size=4, max_size=4))
@example(shape=(2, 3), key="deltas", harmonic=True,
         edits=[(3, Fraction(0))], profile=[Fraction(0)] * 4)
def test_integer_passes_match_fraction_references(shape, key, harmonic,
                                                  edits, profile):
    # random profiles on levels or deltas; a harmonic one (the alternating
    # cocycle, the solved profile) with a few classes edited is
    # non-harmonic at some vertices only.  A level profile goes through
    # every cocycle pass; a profile on the vertex loop's deltas is harmonic
    # exactly when the solver's pattern rows all annihilate it
    t, levels = TREES[shape], TREE_LEVELS[shape]
    if harmonic and key == "levels":
        profile = [Fraction(-1, t.q_E) ** k for k in range(4)]
    elif harmonic and t.depth >= 2:
        profile = [*tree.invariant_solver(t).profile, Fraction(0)]
    for c, value in edits:
        profile[c] = value
    profile = profile[:t.depth + 1]
    vals = [profile[c] for c in (levels if key == "levels"
                                 else TREE_DELTAS[shape])]
    if key == "levels":
        assert_matches_references(t, level_cocycle(profile), vals, levels)
    else:
        rows = dense_rows(t)
        assert (not reference_verify_harmonic(t, vals)) == (
            not any(sum(map(mul, row, profile)) for row in rows))


@pytest.mark.parametrize("q,depth", [(2, 3), (3, 3), (4, 2)])
def test_harmonic_cocycles_match_fraction_references(q, depth):
    t = tree.build_tree_pair(q, depth)
    f = tree.iwahori_cocycle(t)
    levels = edge_bfs(t, [0])
    assert_matches_references(
        t, f, [Fraction(-1, t.q_E) ** k for k in levels], levels)
    # the solved profile is harmonic vertex by vertex
    profile = tree.invariant_solver(t).profile
    deltas = reference_build(q, depth)["deltas"]
    assert reference_verify_harmonic(t, [profile[d] for d in deltas]) == ()


# -- the audit reads the pattern rows -------------------------------------------

NOT_CONNECTED = "marked subtree is not connected to the root edge"


def shape_problem(d, row):
    """The class shape problem of row d, damaged to `row`."""
    parent = f", its parent edge alone at {d}" if d else ""
    return (f"an interior vertex hung at delta {d} has edges by delta {row}, "
            f"expected them at {d} and {d + 1}{parent}")


def test_audit_reports_damaged_trees(monkeypatch):
    # the (2, 2) rows are {0: 3, 1: 2} and {1: 1, 2: 4}; the rows given as
    # {d: row} replace them, in the audit and in the marked class it pushes
    # out of row 0
    t = tree.build_tree_pair(2, 2)
    rows = tree._pattern_rows(t)

    def damaged_audit(edits):
        damaged = [edits.get(d, row) for d, row in enumerate(rows)]
        with monkeypatch.context() as patch:
            patch.setattr(tree, "_pattern_rows", lambda pair: damaged)
            return tree.check_tree_invariants(t)

    def row_problems(edits):
        return damaged_audit(edits).problems

    # one marked child at each marked vertex: its row has one marked edge
    # too few, and level k >= 1 has 2 marked edges
    assert damaged_audit({0: {0: 2, 1: 3}}) == tree.TreeAuditReport(
        problems=("a marked interior vertex has 2 marked edges, expected 3",
                  "marked sphere census mismatch"),
        marked_census=(1, 2, 2), ambient_census=(1, 8, 32))
    assert row_problems({0: {0: 2, 1: 2}}) == (
        "a marked interior vertex has 2 marked edges, expected 3",
        "an interior vertex hung at delta 0 has 4 edges, expected 5",
        "marked sphere census mismatch", "ambient sphere census mismatch")
    # the edges at delta 1 carry three children at delta 2 each
    assert row_problems({1: {1: 1, 2: 3}}) == (
        "an interior vertex hung at delta 1 has 4 edges, expected 5",
        "ambient sphere census mismatch")
    # an edge of row 1 moved from delta 2 to delta 0 hangs a marked edge
    # below an unmarked vertex
    assert row_problems({1: {0: 1, 1: 1, 2: 3}}) == (
        NOT_CONNECTED, shape_problem(1, {0: 1, 1: 1, 2: 3}))
    # moved to delta 1, it is a second edge at the parent's delta; and an
    # edge of row 0 moved to delta 2 lies two panels from the subtree
    assert row_problems({1: {1: 2, 2: 3}}) == (shape_problem(1, {1: 2, 2: 3}),)
    assert row_problems({0: {2: 1, 0: 3, 1: 1}}) == (
        shape_problem(0, {0: 3, 1: 1, 2: 1}),)
    # with no parent edge at delta 1, five edges at delta 2 are five children
    assert row_problems({1: {2: 5}}) == (
        shape_problem(1, {2: 5}), "ambient sphere census mismatch")


DETECTION_TREES = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)]


def test_audit_refuses_every_changed_row(monkeypatch):
    # census_oracle.changed_rows makes 368 row sets on these trees, and the
    # audit lists a problem on every one.  The census audit it replaced,
    # kept as the oracle, lists one on 222, runs past the last row on 120
    # and passes 26, among them an edge of row 1 moved to the parent's delta
    # at (2, 2).  Where the oracle answers, its degree problems are the
    # audit's, and an ambient census it finds short the audit finds too: the
    # census multiplied each reached row's child count
    def degree(problems):
        return [p for p in problems if "edges, expected" in p]

    outcomes = Counter()
    for q, depth in DETECTION_TREES:
        t = tree.build_tree_pair(q, depth)
        rows = tree._pattern_rows(t)
        assert census_oracle.audit(t) == tree.check_tree_invariants(t)
        assert tree.check_tree_invariants(t).ok
        for damaged in census_oracle.changed_rows(rows, depth):
            with monkeypatch.context() as patch:
                patch.setattr(tree, "_pattern_rows", lambda pair: damaged)
                problems = tree.check_tree_invariants(t).problems
            assert problems, (q, depth, damaged)
            try:
                old = census_oracle.audit(t, damaged).problems
            except IndexError:
                outcomes["raised"] += 1
                continue
            outcomes["listed" if old else "passed"] += 1
            assert degree(old) == degree(problems), damaged
            assert (old[-1:] != ("ambient sphere census mismatch",)
                    or problems[-1] == "ambient sphere census mismatch"), damaged
    assert outcomes == {"listed": 222, "raised": 120, "passed": 26}


def test_swapped_deltas_mark_another_sound_subtree():
    # edges 9 and 11 hang at the marked vertex 2: with their deltas swapped
    # in the vertex loop's column, the delta-0 edges there are 10 and 11
    # instead of 9 and 10, which is another q_F of the vertex's children.
    # The per-vertex audit passes that column, and its census and rows are
    # the quotient's: the quotient does not say which children are marked
    t = tree.build_tree_pair(2, 2)
    deltas = reference_build(2, 2)["deltas"]
    deltas[9], deltas[11] = deltas[11], deltas[9]
    assert [e for e in range(9, 13) if not deltas[e]] == [10, 11]
    assert reference_audit(t, deltas) == ()
    assert reference_census(2, 2, deltas) == dense_census(t)
    assert reference_rows(2, 2, deltas) == set(dense_rows(t))
    assert tree.check_tree_invariants(t) == tree.TreeAuditReport(
        problems=(), marked_census=(1, 4, 8), ambient_census=(1, 8, 32))


AUDIT_TREES = [tree.build_tree_pair(q, depth)
               for q in (2, 3, 4) for depth in (1, 2)] + [tree.TreePair(2, 0)]


@pytest.mark.parametrize("q,depth", [(2, 1), (3, 5), (2, 8), (7, 3), (3, 6)])
def test_tree_pair_keeps_few_bytes_per_edge(q, depth):
    # nothing per edge: from 9 edges at (2, 1) to 1,195,741 at (3, 6), the
    # build keeps, and peaks at, the same few hundred bytes
    tracemalloc.start()
    try:
        tree.build_tree_pair(q, depth)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= peak <= 1_000, (kept, peak)


def test_solver_recheck_fires(monkeypatch):
    # a row {0: 1} ends at class 0, so the substitution never solves from
    # it; only the recheck of every row refuses the profile
    t = tree.build_tree_pair(2, 3)
    rows = tree._pattern_rows
    monkeypatch.setattr(tree, "_pattern_rows", lambda t: rows(t) + [{0: 1}])
    with pytest.raises(ModelError, match="^invariant space has dimension 0, "
                                         "expected 1$"):
        tree.invariant_solver(t)


def test_invariant_solver_raises_on_degenerate_model(monkeypatch):
    # without the row that ends at the last class, no row solves for it
    t = tree.build_tree_pair(2, 3)
    rows = tree._pattern_rows
    monkeypatch.setattr(tree, "_pattern_rows",
                        lambda t: [row for row in rows(t) if t.depth not in row])
    with pytest.raises(ModelError, match="^no row ends at column 3$"):
        tree.invariant_solver(t)


# -- the quotient against the vertex loops on the oracle's column --------------

def reference_reconstruct_layer(t, deltas, delta, values):
    """The layer pushed outward edge by edge: each outer edge's panel sums
    the input values of its edges at delta or closer."""
    out, panels = {}, {}
    for e in range(t.n_edges):
        if deltas[e] == delta + 1:
            panels.setdefault(endpoints(t, e)[0], []).append(e)
    for panel, outer in panels.items():
        inner = [e for e in incident_edges(t, panel) if deltas[e] <= delta]
        inner_sum = sum((values[e] for e in inner), Fraction(0))
        for e in outer:
            out[e] = -inner_sum / len(outer)
    return out


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(sorted(TREES)), delta=st.integers(0, 4),
       value=st.fractions())
def test_reconstruct_layer_matches_the_edge_loop(shape, delta, value):
    # each step is the one value the edge loop gives every edge of the next
    # class, and None past the last class; a delta past depth is refused
    t, deltas = TREES[shape], TREE_DELTAS[shape]
    if delta > t.depth:
        with pytest.raises(ValueError, match=f"got {delta}$"):
            tree.reconstruct_layer(t, delta, value)
        return
    values = dict.fromkeys((e for e in range(t.n_edges) if deltas[e] == delta),
                           value)
    expected = set(reference_reconstruct_layer(t, deltas, delta,
                                               values).values())
    step = tree.reconstruct_layer(t, delta, value)
    assert expected == (set() if step is None else {step})


def reference_audit(t, deltas):
    """The audit's problems found vertex by vertex on the column and the
    labels, the marks being the edges at delta 0, with the delta messages
    of the per-edge audit that the census replaced."""
    q_F, q_E = t.q_F, t.q_E
    v_label = t.v_label
    e_in_F = bytearray(d == 0 for d in deltas)
    vertex_problems, label_problems, delta_problems = [], [], []
    for v in range(t.n_expanded):
        kids = children(t, v)
        s, u = kids.start, kids.stop
        p = 0 if v <= 1 else v - 1
        n_marked = e_in_F[p] + e_in_F[s:u].count(True)
        if e_in_F[p]:
            if n_marked != q_F + 1:
                vertex_problems.append(
                    f"marked interior vertex {v} has {n_marked} marked edges")
        elif n_marked:
            vertex_problems.append(
                f"unmarked vertex {v} touches {n_marked} marked edges")
        h = 0 if v == 0 else s
        label = v_label[v]
        if label in v_label[h + 1:u + 1]:
            label_problems.extend(f"edge {e} joins equal labels"
                                  for e in range(h, u) if v_label[e + 1] == label)
        at_v = [*deltas[h:u], deltas[p]] if v else [*deltas[h:u]]
        least = min(at_v)
        n_least = at_v.count(least)
        if (n_least == (1 if least else q_F + 1)
                and (not least or deltas[p] == least)
                and n_least + at_v.count(least + 1) == len(at_v)):
            continue
        delta_problems.append(f"vertex {v} breaks the delta recursion")
    problems = vertex_problems + label_problems
    if not e_in_F[0]:
        problems.append(NOT_CONNECTED)
    # the censuses by BFS level
    levels = edge_bfs(t, [0])
    marked = [level for level, mark in zip(levels, e_in_F) if mark]
    ks = range(1, t.depth + 1)
    if [marked.count(k) for k in ks] != [2 * q_F**k for k in ks]:
        problems.append("marked sphere census mismatch")
    if [levels.count(k) for k in ks] != [2 * q_E**k for k in ks]:
        problems.append("ambient sphere census mismatch")
    return tuple(problems + delta_problems)


def test_audit_is_the_three_column_reference():
    # on every audited tree, the depth-0 pair of the root edge alone
    # included, the report is that of the per-vertex audit of the vertex
    # loop's deltas and the derived labels: no problems, and the marked and
    # ambient censuses by BFS level
    for t in AUDIT_TREES:
        deltas = reference_build(t.q_F, t.depth)["deltas"]
        marked, ambient = [0] * (t.depth + 1), [0] * (t.depth + 1)
        for k, d in zip(edge_bfs(t, [0]), deltas):
            marked[k] += not d
            ambient[k] += 1
        assert reference_audit(t, deltas) == ()
        assert tree.check_tree_invariants(t) == tree.TreeAuditReport(
            problems=(), marked_census=tuple(marked),
            ambient_census=tuple(ambient))


@pytest.mark.parametrize("q,depth", [(q, depth) for q in (11, 13, 16)
                                     for depth in (1, 2)])
def test_prime_powers_past_the_old_list_match_the_vertex_loop(q, depth):
    # q_F the tree once refused, up to the 131,585 edges of (16, 2): the
    # census, the rows and the audit are those of the per-vertex build
    t = tree.build_tree_pair(q, depth)
    deltas = reference_build(q, depth)["deltas"]
    census = reference_census(q, depth, deltas)
    assert dense_census(t) == census
    assert set(dense_rows(t)) == reference_rows(q, depth, deltas)
    assert reference_audit(t, deltas) == ()
    assert tree.check_tree_invariants(t) == tree.TreeAuditReport(
        problems=(), marked_census=tuple(level[0] for level in census),
        ambient_census=tuple(map(sum, census)))


def deepest_tree(q):
    """The largest depth both bit caps allow at q_F = q, found by walking
    up from depth 0: 3 q_E^depth, which bounds the vertex count, within
    MAX_PRINTED_BITS, and all levels' bits within MAX_LISTED_BITS."""
    bits = (q * q - 1).bit_length()
    depth = 0
    while ((3 * q ** (2 * depth + 2)).bit_length() <= errors.MAX_PRINTED_BITS
           and bits * (depth + 1) * (depth + 2) // 2 <= errors.MAX_LISTED_BITS):
        depth += 1
    return depth


PRIME_POWERS = sorted({p**k for p in (2, 3, 5, 7, 11, 13, 31, 127)
                       for k in range(1, 6)} | {2**61 - 1, (2**61 - 1)**2})


@settings(max_examples=10, deadline=None)
@given(shape=st.sampled_from(PRIME_POWERS).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(1, deepest_tree(q)))))
@example(shape=(3**5, deepest_tree(3**5)))
@example(shape=(2**61 - 1, deepest_tree(2**61 - 1)))
def test_every_prime_power_answers_off_the_quotient(shape):
    # the marked sums are period A1's S_0..S_depth, the profile is
    # c_1 = -(q + 1)/(q^2 - q) with c_(d+1) = -c_d/q^2, the audit passes,
    # and one level deeper a cap refuses the pair
    q, depth = shape
    t = tree.build_tree_pair(q, depth)
    sums = tree.tree_period(t, tree.iwahori_cocycle(t))
    assert sums == period.period_series(growth_from_exponents(
        build_affine_system("A", 1), depth), q)
    if depth >= 2:
        profile = [Fraction(1), Fraction(-(q + 1), q * q - q)]
        while len(profile) <= depth:
            profile.append(profile[-1] / -(q * q))
        assert tree.invariant_solver(t).profile == tuple(profile)
    assert tree.check_tree_invariants(t).ok
    with pytest.raises(ValueError, match="over the cap|exceeds the cap"):
        tree.TreePair(q, deepest_tree(q) + 1)


@settings(max_examples=10, deadline=None)
@given(shape=st.sampled_from(PRIME_POWERS).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(1, deepest_tree(q)))))
@example(shape=(3**5, deepest_tree(3**5)))
@example(shape=(2**61 - 1, deepest_tree(2**61 - 1)))
def test_census_is_the_closed_form_per_class(shape):
    # level k >= 1 holds 2 q_F^k edges at delta 0, 2 (q_E - q_F) q_F^(k-d)
    # q_E^(d-1) at each delta d in 1..k and none past k, and level 0 the
    # root edge alone: a closed form that does not reuse the rows, checked
    # past the 34 shapes the vertex loop can build
    q, depth = shape
    q_E = q * q
    f_powers = [q**i for i in range(depth + 1)]
    e_powers = [q_E**i for i in range(depth)]
    census = census_oracle.census(tree.build_tree_pair(q, depth))
    assert next(census) == {0: 1}
    for k, level in enumerate(census, 1):
        assert level == {0: 2 * f_powers[k], **{
            d: 2 * (q_E - q) * f_powers[k - d] * e_powers[d - 1]
            for d in range(1, k + 1)}}, (k, q)
    assert k == depth


@pytest.mark.parametrize("q", OLD_QF)
def test_solver_rows_are_the_symbolic_patterns(q, monkeypatch):
    # a marked vertex meets q_F + 1 edges at delta 0 and q_E - q_F at delta
    # 1; an unmarked one meets its parent edge at some d >= 1 and q_E edges
    # at d + 1, for every d the depth leaves room for
    q_E = q * q
    collected = []
    solve = tree.nullspace
    monkeypatch.setattr(tree, "nullspace",
                        lambda rows, n: collected.append(rows) or solve(rows, n))
    for depth in range(2, 5):
        if tree._projected_edges(q_E, depth) > EDGE_BOUND:
            break
        t = tree.build_tree_pair(q, depth)
        tree.invariant_solver(t)

        def row(*pairs):
            counts = [0] * (depth + 1)
            for d, n_edges in pairs:
                counts[d] = n_edges
            return tuple(counts)

        expected = {row((0, q + 1), (1, q_E - q))} | {
            row((d, 1), (d + 1, q_E)) for d in range(1, depth)}
        assert {tuple(dense(r, depth)) for r in collected.pop()} == expected
        assert reference_rows(q, depth,
                              reference_build(q, depth)["deltas"]) == expected
    # depth 1, below what the solver takes, has the two marked root ends
    assert tree._pattern_rows(tree.build_tree_pair(q, 1)) == [
        {0: q + 1, 1: q_E - q}]


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32),
       keep=st.integers(0, 8))
def test_full_says_whether_every_vertex_is_mapped(t, seed, keep):
    rng = random.Random(seed)
    g = tree.random_automorphism(t, rng)
    h = tree.random_automorphism(t, rng)
    part = tree.TreeAutomorphism(
        t, [x if rng.randrange(8) < keep else None for x in g.vertex_map])
    shifts = [tree.translation_automorphism(t, steps)
              for steps in range(-t.depth, t.depth + 1)]
    for aut in (g, h, tree.compose(g, h), tree.endpoint_swap(t), part,
                tree.compose(part, h), tree.compose(h, part), *shifts,
                tree.compose(shifts[0], shifts[-1])):
        assert aut.full == (None not in aut.vertex_map)
        assert aut.full == (None not in reference_edge_map(t, aut.vertex_map))
