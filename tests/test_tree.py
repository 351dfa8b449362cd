"""Tree pair structure, cocycles, the invariant solver, automorphisms."""

import hashlib
import random
import tracemalloc
import weakref
from collections import deque
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buildingkit import period, suite, tree
from buildingkit.coxeter import build_affine_system, growth_coefficients
from buildingkit.errors import BudgetError, ModelError
from linalg_oracle import normalized_kernel


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
    assert (t.n_edges, t.e_delta.count(0)) == (9, 5)
    assert t.n_vertices == 10
    t = tree.build_tree_pair(3, 1)
    assert (t.n_edges, t.e_delta.count(0)) == (19, 7)


@pytest.mark.parametrize("q,depth", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_sphere_sizes(q, depth):
    t = tree.build_tree_pair(q, depth)
    assert t.sphere_sizes(marked_only=True) == [1] + [2 * q**k
                                                      for k in range(1, depth + 1)]
    assert t.sphere_sizes() == [1] + [2 * (q * q)**k for k in range(1, depth + 1)]
    assert t.n_edges == sum(t.sphere_sizes())
    assert t.n_vertices == t.n_edges + 1


@settings(max_examples=150, deadline=None)
@given(t=st.sampled_from([tree.build_tree_pair(q, depth)
                          for q, depth in ((2, 1), (2, 3), (3, 2))]),
       edits=st.lists(st.tuples(st.integers(min_value=0),
                                st.integers(0, 255)), max_size=6),
       cut=st.booleans())
def test_marked_census_counts_the_marked_levels(t, edits, cut):
    # deltas edited to any byte, 255 included, and the column maybe cut
    # short; the census counts the BFS levels 0..depth of the edges at
    # delta 0, up to the end of the column
    deltas = bytearray(t.e_delta)
    for i, value in edits:
        deltas[i % t.n_edges] = value
    if cut:
        del deltas[t.n_edges // 2:]
    damaged_tree = damaged(t, e_delta=deltas)
    marked = [level for level, d in zip(edge_bfs(t, [0]), deltas) if not d]
    assert damaged_tree.sphere_sizes(marked_only=True) == [
        marked.count(k) for k in range(t.depth + 1)]


@pytest.mark.parametrize("q,depth", [(2, 4), (3, 3), (7, 2)])
def test_audit_returns_the_censuses(q, depth):
    t = tree.build_tree_pair(q, depth)
    audit = tree.check_tree_invariants(t)
    assert audit.marked_census == tuple(t.sphere_sizes(marked_only=True))
    assert audit.ambient_census == tuple(t.sphere_sizes())
    assert tree.check_tree_invariants(damaged(t)) == audit
    # a column of the wrong length is reported alone, with no census
    short = tree.check_tree_invariants(damaged(t, e_delta=bytearray(1)))
    assert short.marked_census == short.ambient_census == ()


@pytest.mark.parametrize("q,depth", [(2, 3), (2, 4), (3, 3)] + [
    (q, depth) for q in tree.ALLOWED_QF for depth in (1, 2)])
def test_delta_and_level_against_bfs_oracle(q, depth):
    # the deltas are the distances to the edges at delta 0
    t = tree.build_tree_pair(q, depth)
    edges = range(t.n_edges)
    marked = [e for e in edges if not t.e_delta[e]]
    assert edge_bfs(t, marked) == list(t.e_delta)
    # level k is exactly the edges at BFS distance k from the root edge
    levels = edge_bfs(t, [0])
    assert max(levels) == t.depth
    for k in range(t.depth + 1):
        assert list(t.level(k)) == [e for e in edges if levels[e] == k]


def test_structural_invariants_audit():
    for q, depth in [(2, 4), (3, 3), (4, 2)]:
        assert tree.check_tree_invariants(tree.build_tree_pair(q, depth)).ok


def test_delta_recursion_invariant_directly():
    # delta >= 2: exactly one incident edge at the closer panel is one class
    # nearer; delta = 1: the closer panel is marked and carries q_F + 1 marked edges
    t = tree.build_tree_pair(3, 3)
    for e in range(t.n_edges):
        delta = t.e_delta[e]
        if delta == 0:
            continue
        closer = sum(1 for x in incident_edges(t, endpoints(t, e)[0])
                     if t.e_delta[x] == delta - 1)
        assert closer == (t.q_F + 1 if delta == 1 else 1), (e, delta)


def test_bad_build_arguments():
    with pytest.raises(ValueError):
        tree.build_tree_pair(6, 2)
    with pytest.raises(ValueError):
        tree.build_tree_pair(2, 0)


def test_bool_depth_is_refused():
    # True == 1, so an unchecked bool would build a depth-1 tree whose
    # depth reads True
    with pytest.raises(ValueError, match="depth must be >= 1, got True"):
        tree.build_tree_pair(2, True)
    with pytest.raises(ValueError, match="depth must be >= 1, got False"):
        tree.build_tree_pair(2, False)


def test_budget_error_reports_smallest_failing_depth():
    # the default budget of 4,000,000 edges; the count stops at the first
    # depth over it, and nothing the size of a tree is allocated
    for q, depth, edges in ((3, 7, 10_761_679), (2, 11, 11_184_809)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as exc:
                tree.build_tree_pair(q, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"tree with q_F={q} needs {edges} edges "
                                  f"at depth {depth}, over budget 4000000")
        assert exc.value.budget == tree.DEFAULT_EDGE_BUDGET == 4_000_000
        assert exc.value.smallest_failing_depth == depth
        assert peak < 100_000, peak


def reference_build(q_F, depth):
    """The oracle for the level-by-level build: the marks, deltas and labels
    built vertex by vertex, each expanded vertex appending its q_E
    children's entries.  The marks are the edges at delta 0, so only the
    deltas and labels are returned; the labels are the oracle for the
    distance parity that `TreePair.v_label` reads off the levels."""
    q_E = q_F * q_F
    # entries 0 and 1 for the marked children, at every depth, 0 included
    block = [bytes([x]) * q_E for x in range(max(depth + 1, 2))]
    e_in_F, e_delta = bytearray(b"\x01"), bytearray(1)
    v_label = bytearray(b"\x00\x01")
    f_flags = block[1][:q_F] + block[0][q_F:]
    f_deltas = block[0][:q_F] + block[1][q_F:]
    for v in range((tree._projected_edges(q_E, depth) - 1) // q_E):
        parent = 0 if v <= 1 else v - 1
        v_label += block[1 - v_label[v]]
        if e_in_F[parent]:
            e_in_F += f_flags
            e_delta += f_deltas
        else:
            e_in_F += block[0]
            e_delta += block[e_delta[parent] + 1]
    assert e_in_F == bytearray(d == 0 for d in e_delta)
    return {"e_delta": e_delta, "v_label": v_label}


@pytest.mark.parametrize("q", tree.ALLOWED_QF)
def test_build_matches_the_vertex_loop(q):
    # every depth up to about 250k edges; the build fills the deltas alone
    depth = 1
    while tree._projected_edges(q * q, depth) <= 250_000:
        t = tree.build_tree_pair(q, depth)
        assert "v_label" not in vars(t)  # derived on first read only
        assert type(t.e_delta) is bytearray
        assert t.e_delta == reference_build(q, depth)["e_delta"], depth
        depth += 1
    assert depth > 2


@pytest.mark.parametrize("q", tree.ALLOWED_QF)
def test_labels_are_the_vertex_loop_fill(q):
    # every depth up to about 250k edges, and the depth-0 pair of the root
    # edge alone: the labels, derived on first read, are bytes, equal the
    # vertex loop's fill and differ at the two endpoints of every edge
    depth = 0
    while tree._projected_edges(q * q, depth) <= 250_000:
        reference = reference_build(q, depth)
        t = tree.TreePair(q, depth, reference["e_delta"])
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
        assert report.violations == ()
        assert report.interior_checked + report.boundary_skipped == t.n_vertices
        assert tree.decay_check(t, f) == 1


def test_non_harmonic_cocycles_flagged():
    # cocycles constant on levels: 1 everywhere, 1 on the root edge (level 0
    # holds only it) and 0 elsewhere, and 0 everywhere
    t = tree.build_tree_pair(2, 3)
    const = tree.EdgeCocycle([1] * (t.depth + 1))
    report = tree.verify_harmonic(t, const)
    assert len(report.violations) == report.interior_checked
    assert tree.decay_check(t, const) == t.q_E ** t.depth

    ind = tree.EdgeCocycle([1] + [0] * t.depth)
    assert edge_values(t, ind) == [1] + [0] * (t.n_edges - 1)
    report = tree.verify_harmonic(t, ind)
    # only the two endpoints of the root edge see the lone nonzero value
    assert report.violations == (0, 1)
    assert tree.decay_check(t, ind) == 1

    zero = tree.EdgeCocycle([0] * (t.depth + 1))
    assert tree.verify_harmonic(t, zero).ok
    assert tree.decay_check(t, zero) == 0


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
    # vertex
    assert reference_verify_harmonic(
        t, [sol.profile[d] for d in t.e_delta]) == ()


def test_invariant_solver_needs_depth():
    with pytest.raises(ValueError):
        tree.invariant_solver(tree.build_tree_pair(2, 1))


@pytest.mark.parametrize("q", [2, 3])
def test_reconstruct_layer_reproduces_profile(q):
    t = tree.build_tree_pair(q, 4)
    sol = tree.invariant_solver(t)
    value, delta = sol.profile[0], 0
    while layer := tree.reconstruct_layer(t, delta, value):
        delta += 1
        assert set(layer) == {e for e in range(t.n_edges) if t.e_delta[e] == delta}
        assert set(layer.values()) == {sol.profile[delta]}
        value = layer[min(layer)]
    assert delta == max(t.e_delta) == t.depth


@pytest.mark.parametrize("q,depth", [(2, 1), (2, 3), (3, 2)])
def test_reconstruct_layer_refuses_a_delta_past_the_classes(q, depth):
    t = tree.build_tree_pair(q, depth)
    for delta in (-1, depth + 1):
        with pytest.raises(ValueError,
                           match=rf"^delta must be in 0..{depth}, got {delta}$"):
            tree.reconstruct_layer(t, delta, Fraction(1))
    assert tree.reconstruct_layer(t, depth, Fraction(1)) == {}


@pytest.mark.parametrize("damage", ["one edge", "common value"])
def test_suite_check_7_chains_the_returned_layers(monkeypatch, damage):
    # the layer at delta 2 comes back damaged: with one edge off, or with a
    # wrong value shared by every edge, which the next step must start from
    reconstruct, calls = tree.reconstruct_layer, []

    def damaged_step(t, delta, value):
        calls.append((t.q_F, delta, value))
        layer = reconstruct(t, delta, value)
        if delta == 1:
            if damage == "one edge":
                layer[max(layer)] *= 2
            else:
                layer = dict.fromkeys(layer, 2 * layer[min(layer)])
        return layer

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
        assert given == profile


def test_endpoint_swap_and_identity_signs():
    t = tree.build_tree_pair(2, 3)
    swap = tree.endpoint_swap(t)
    assert len(swap.vertex_map) == t.n_vertices
    assert len(swap.edge_map) == t.n_edges
    assert tree.epsilon_tree(swap) == -1
    assert swap.edge_map[0] == 0  # the root edge maps to itself, reversed
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
    assert sorted(g.edge_map) == list(range(t.n_edges))
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
    assert t.endpoints(9) == (2, 10) and t.endpoints(13) == (3, 14)
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


def test_edge_between_index():
    # the edge between u and w is read off the automorphism edge map: the
    # root edge's endpoints sent to u, w in either order land on it
    t = tree.build_tree_pair(2, 2)
    for e in range(t.n_edges):
        u, w = endpoints(t, e)
        assert tree.TreeAutomorphism(t, partial_map(t, {0: u, 1: w})).edge_map[0] == e
        assert tree.TreeAutomorphism(t, partial_map(t, {0: w, 1: u})).edge_map[0] == e
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
                assert tree.TreeAutomorphism(t, vm).edge_map[0] == edge, (u, w)


def test_out_of_range_vertex_ids():
    t = tree.build_tree_pair(2, 2)
    n = t.n_vertices
    for image in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            tree.TreeAutomorphism(t, partial_map(t, {0: image}))
    for length in (n - 1, n + 1):  # an id-indexed list of the wrong length
        with pytest.raises(ValueError, match="entries"):
            tree.TreeAutomorphism(t, list(range(length)))


def test_random_automorphism_golden_vertex_map():
    # computed with the dict-based implementation; pins RNG consumption
    g = tree.random_automorphism(tree.build_tree_pair(2, 2), random.Random(11))
    assert g.vertex_map == [
        1, 0, 8, 6, 7, 9, 2, 5, 4, 3, 36, 37, 34, 35, 27, 29, 26, 28, 33, 31,
        32, 30, 39, 38, 40, 41, 11, 13, 12, 10, 23, 24, 25, 22, 21, 18, 20, 19,
        14, 16, 15, 17]
    assert g.edge_map == [0] + [image - 1 for image in g.vertex_map[2:]]


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
    hanging there."""
    t = g.tree
    label, vm, em = t.v_label, g.vertex_map, g.edge_map
    swaps = set()
    for u in range(t.n_expanded):
        if vm[u] is None:
            continue
        kids = children(t, u)
        first = 0 if u == 0 else kids.start
        if em[first:kids.stop].count(None) < kids.stop - first:
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
DRAW_TREES = [tree.build_tree_pair(q, 1) for q in tree.ALLOWED_QF] + [
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
        assert tree.TreeAutomorphism(t, vm).edge_map == expected


@settings(max_examples=100, deadline=None)
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32))
def test_epsilon_matches_the_vertex_loop_on_full_maps(t, seed):
    rng = random.Random(seed)
    g = tree.random_automorphism(t, rng)
    h = tree.random_automorphism(t, rng)
    for aut in (g, h, tree.compose(g, h), tree.endpoint_swap(t)):
        assert None not in aut.edge_map
        assert tree.epsilon_tree(aut) == reference_epsilon(aut)


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
@given(t=st.sampled_from(AUT_TREES), seed=st.integers(0, 2**32))
def test_full_maps_build_their_edge_map_on_request(t, seed):
    rng = random.Random(seed)
    g = tree.TreeAutomorphism(t, tree._lift(t, 0, 1, rng))
    h = tree.TreeAutomorphism(t, tree._lift(t, 1, 0, rng))
    for aut in (g, h, tree.compose(g, h), tree.compose(h, g),
                tree.endpoint_swap(t),
                tree.TreeAutomorphism(t, range(t.n_vertices))):
        assert aut.full and "edge_map" not in vars(aut)
        assert aut.edge_map == reference_edge_map(t, aut.vertex_map)
        assert aut.edge_map is aut.edge_map
        assert aut.full == (None not in aut.edge_map)


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
    layer_sums = [Fraction(0)] * (t.depth + 1)
    for e in range(t.n_edges):
        if not t.e_delta[e]:
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
        == reference_verify_harmonic(t, vals)
    assert tree.decay_check(t, cocycle) == reference_decay(t, vals, levels)
    assert tree.tree_period(t, cocycle) == reference_tree_period(t, vals, levels)


TREES = {(q, depth): tree.build_tree_pair(q, depth)
         for q in (2, 3) for depth in (1, 2, 3)}
TREE_LEVELS = {shape: edge_bfs(t, [0]) for shape, t in TREES.items()}


def level_cocycle(profile):
    """The cocycle with value profile[k] on the edges of level k."""
    values = [Fraction(x) for x in profile]
    den = lcm(*(x.denominator for x in values))
    return tree.EdgeCocycle(
        [x.numerator * (den // x.denominator) for x in values], den)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(sorted(TREES)),
       key=st.sampled_from(("levels", "e_delta")),
       harmonic=st.booleans(), edits=st.lists(
           st.tuples(st.integers(0, 3), st.fractions()), max_size=2),
       profile=st.lists(st.fractions(), min_size=4, max_size=4))
@example(shape=(2, 3), key="e_delta", harmonic=True,
         edits=[(3, Fraction(0))], profile=[Fraction(0)] * 4)
def test_integer_passes_match_fraction_references(shape, key, harmonic,
                                                  edits, profile):
    # random profiles on levels or deltas; a harmonic one (the alternating
    # cocycle, the solved profile) with a few classes edited is
    # non-harmonic at some vertices only.  A level profile goes through
    # every cocycle pass; a delta profile is harmonic exactly when the
    # solver's pattern rows all annihilate it
    t, levels = TREES[shape], TREE_LEVELS[shape]
    if harmonic and key == "levels":
        profile = [Fraction(-1, t.q_E) ** k for k in range(4)]
    elif harmonic and t.depth >= 2:
        profile = [*tree.invariant_solver(t).profile, Fraction(0)]
    for c, value in edits:
        profile[c] = value
    profile = profile[:t.depth + 1]
    vals = [profile[c] for c in (levels if key == "levels" else t.e_delta)]
    if key == "levels":
        assert_matches_references(t, level_cocycle(profile), vals, levels)
    else:
        rows = tree._pattern_rows(t)
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
    assert reference_verify_harmonic(t, [profile[d] for d in t.e_delta]) == ()


# -- the audit reports damage instead of raising ------------------------------

COLUMNS = ("e_delta",)


def damaged(t, **arrays):
    """A tree on a bytearray copy of t's deltas, or the given ones in their
    place."""
    fields = {name: bytearray(getattr(t, name)) for name in COLUMNS}
    fields.update(arrays)
    return tree.TreePair(t.q_F, t.depth, **fields)


@pytest.mark.parametrize("name", COLUMNS)
def test_tree_pair_refuses_a_column_that_is_no_bytes(name):
    t = tree.build_tree_pair(2, 1)
    with pytest.raises(ValueError, match=rf"^column {name} is a list, "
                                         r"expected bytes or a bytearray$"):
        damaged(t, **{name: list(getattr(t, name))})
    assert damaged(t, **{name: bytes(getattr(t, name))}).n_edges == t.n_edges


def test_audit_reports_damaged_trees():
    t = tree.build_tree_pair(2, 2)

    def problems(**arrays):
        return tree.check_tree_invariants(damaged(t, **arrays)).problems

    deltas = bytearray(t.e_delta)
    deltas[1] = 1
    # vertex 2 is created by edge 1, so it is unmarked now, and its
    # unmarked children 11 and 12 are one class past edge 1
    assert problems(e_delta=deltas) == (
        "marked interior vertex 0 has 2 marked edges",
        "unmarked vertex 2 touches 2 marked edges",
        "marked sphere census mismatch",
        "edge 11 at delta=1, expected delta=2",
        "edge 12 at delta=1, expected delta=2")
    deltas = bytearray(t.e_delta)
    deltas[17] += 1
    assert problems(e_delta=deltas) == (
        "edge 17 at delta=3, expected delta in 0..2",)
    # edge 12 hangs at the marked vertex 2, one class past its parent edge
    deltas = bytearray(t.e_delta)
    deltas[12] = 2
    assert problems(e_delta=deltas) == ("edge 12 at delta=2, expected delta=1",)
    # every single-edge delta change is reported
    for e in range(t.n_edges):
        for d in range(t.depth + 2):
            if d != t.e_delta[e]:
                deltas = bytearray(t.e_delta)
                deltas[e] = d
                assert problems(e_delta=deltas), (e, d)


def test_swapped_deltas_mark_another_sound_subtree():
    # edges 9 and 11 hang at the marked vertex 2: with their deltas swapped,
    # the delta-0 edges there are 10 and 11 instead of 9 and 10, which is
    # another q_F of the vertex's children; the audit sees a sound tree with
    # the built tree's censuses and invariant profile
    t = tree.build_tree_pair(2, 2)
    deltas = bytearray(t.e_delta)
    deltas[9], deltas[11] = deltas[11], deltas[9]
    swapped = damaged(t, e_delta=deltas)
    assert [e for e in range(9, 13) if not deltas[e]] == [10, 11]
    assert tree.check_tree_invariants(swapped) == tree.check_tree_invariants(t)
    assert tree.check_tree_invariants(swapped) == tree.TreeAuditReport(
        problems=(), marked_census=(1, 4, 8), ambient_census=(1, 8, 32))
    assert tree.invariant_solver(swapped) == tree.invariant_solver(t)


def marked_walk_connects(t):
    """Oracle: walk the marked edges, those at delta 0, out from the root
    edge through their endpoints and check that the walk reaches every
    marked edge."""
    marked = {e for e in range(t.n_edges) if not t.e_delta[e]}
    seen_vertices, seen_edges, stack = {0, 1}, {0}, [0, 1]
    while stack:
        for e in incident_edges(t, stack.pop()):
            if e in marked and e not in seen_edges:
                seen_edges.add(e)
                for w in endpoints(t, e):
                    if w not in seen_vertices:
                        seen_vertices.add(w)
                        stack.append(w)
    return seen_edges == marked


AUDIT_TREES = [tree.build_tree_pair(q, depth)
               for q in (2, 3, 4) for depth in (1, 2)] + [
    tree.TreePair(2, 0, bytearray(1))]
NOT_CONNECTED = "marked subtree is not connected to the root edge"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(AUDIT_TREES),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 3)),
                min_size=1, max_size=5))
def test_audit_connectivity_agrees_with_the_marked_walk(t, flips):
    # each flip marks an unmarked edge (delta 0) or unmarks a marked one
    deltas = bytearray(t.e_delta)
    for e, d in flips:
        e %= t.n_edges
        deltas[e] = 0 if deltas[e] else d
    damaged_tree = damaged(t, e_delta=deltas)
    audit = tree.check_tree_invariants(damaged_tree)
    others = [p for p in audit.problems if p != NOT_CONNECTED]
    assert audit.ok == (not others and marked_walk_connects(damaged_tree))
    assert (NOT_CONNECTED in audit.problems) == bool(deltas[0])


@pytest.mark.parametrize("q", [2, 3])
def test_audit_reports_columns_of_the_wrong_length(q):
    # the deltas cut to every shorter length, even before the parent edge
    # of an expanded vertex, or one entry too long
    t = tree.build_tree_pair(q, 2)
    n = len(t.e_delta)
    assert n == t.n_edges
    for deltas in [t.e_delta[:k] for k in range(n)] + [t.e_delta + b"\0"]:
        assert tree.check_tree_invariants(damaged(t, e_delta=deltas)).problems == (
            f"column e_delta has {len(deltas)} entries, expected {n}",)


@pytest.mark.parametrize("q,depth", [(3, 5), (2, 8), (7, 3)])
def test_tree_pair_keeps_few_bytes_per_edge(q, depth):
    # one byte per delta, and nothing else per edge; while building, the
    # copies of a level stay under one more byte per edge
    tracemalloc.start()
    try:
        t = tree.build_tree_pair(q, depth)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 2 * t.n_edges, kept / t.n_edges
    assert peak <= 2 * t.n_edges, peak / t.n_edges


def test_suite_frees_the_deep_trees_before_the_sampler(monkeypatch):
    # only checks 5 and 6 read the depth-6 trees; check 12's sampler, which
    # sets the suite's peak memory, must not run on top of their columns
    built, live_shapes = [], []
    build, swap = tree.build_tree_pair, tree.endpoint_swap

    def tracked_build(*args, **kwargs):
        t = build(*args, **kwargs)
        built.append(((t.q_F, t.depth), weakref.ref(t)))
        return t

    def tracked_swap(t):
        if not live_shapes:
            live_shapes.append(sorted(shape for shape, ref in built
                                      if ref() is not None))
        return swap(t)

    monkeypatch.setattr(tree, "build_tree_pair", tracked_build)
    monkeypatch.setattr(tree, "endpoint_swap", tracked_swap)
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 1)
    assert suite.run_suite().passed
    assert {(2, 6), (3, 6)} <= {shape for shape, _ in built}
    assert live_shapes == [[(2, 4), (3, 4), (4, 3), (5, 3)]]


def test_solver_recheck_fires(monkeypatch):
    # a row (1, 0, 0, 0) ends at class 0, so the substitution never solves
    # from it; only the recheck of every row refuses the profile
    t = tree.build_tree_pair(2, 3)
    rows = tree._pattern_rows
    monkeypatch.setattr(tree, "_pattern_rows",
                        lambda t: rows(t) | {(1, 0, 0, 0)})
    with pytest.raises(ModelError, match="^invariant space has dimension 0, "
                                         "expected 1$"):
        tree.invariant_solver(t)


def test_invariant_solver_raises_on_degenerate_model(monkeypatch):
    # without the row that ends at the last class, no row solves for it
    t = tree.build_tree_pair(2, 3)
    rows = tree._pattern_rows
    monkeypatch.setattr(tree, "_pattern_rows",
                        lambda t: {row for row in rows(t) if not row[t.depth]})
    with pytest.raises(ModelError, match="^no row ends at column 3$"):
        tree.invariant_solver(t)


# -- the column passes against the vertex loops they replaced -----------------

def reference_reconstruct_layer(t, delta, values):
    """The layer pushed outward edge by edge: each outer edge's panel sums
    the input values of its edges at delta or closer."""
    out, panels = {}, {}
    for e in range(t.n_edges):
        if t.e_delta[e] == delta + 1:
            panels.setdefault(endpoints(t, e)[0], []).append(e)
    for panel, outer in panels.items():
        inner = [e for e in incident_edges(t, panel) if t.e_delta[e] <= delta]
        inner_sum = sum((values[e] for e in inner), Fraction(0))
        for e in outer:
            out[e] = -inner_sum / len(outer)
    return out


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(sorted(TREES)),
       edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 4)),
                      max_size=3),
       delta=st.integers(0, 4), value=st.fractions())
@example(shape=(2, 2), edits=[(0, 1)], delta=0, value=Fraction(1))  # root out
def test_reconstruct_layer_matches_the_edge_loop(shape, edits, delta, value):
    # on damaged deltas too: a panel with an edge closer than the layer has
    # no input value for it, and is refused, and so is a delta past depth
    t = TREES[shape]
    deltas = bytearray(t.e_delta)
    for e, d in edits:
        deltas[e % t.n_edges] = d
    t = damaged(t, e_delta=deltas)
    if delta > t.depth:
        with pytest.raises(ValueError, match=f"got {delta}$"):
            tree.reconstruct_layer(t, delta, value)
        return
    values = dict.fromkeys((e for e in range(t.n_edges) if deltas[e] == delta),
                           value)
    try:
        expected = reference_reconstruct_layer(t, delta, values)
    except KeyError:
        with pytest.raises(ModelError, match=f"closer than delta={delta}"):
            tree.reconstruct_layer(t, delta, value)
        return
    layer = tree.reconstruct_layer(t, delta, value)
    assert layer == expected and list(layer) == list(expected)


def reference_audit(t):
    """The audit's problems found vertex by vertex on three columns, the
    marks being the edges at delta 0, with the delta messages it gave
    before its column identities reported their own failures."""
    q_F, q_E = t.q_F, t.q_E
    e_delta, v_label = t.e_delta, t.v_label
    e_in_F = bytearray(d == 0 for d in e_delta)
    if len(e_delta) != t.n_edges:
        return (f"column e_delta has {len(e_delta)} entries, "
                f"expected {t.n_edges}",)
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
        deltas = e_delta[h:u]
        at_v = [*deltas, e_delta[p]] if v else [*deltas]
        least = min(at_v)
        n_least = at_v.count(least)
        if (n_least == (1 if least else q_F + 1)
                and (not least or e_delta[p] == least)
                and n_least + at_v.count(least + 1) == len(at_v)):
            continue
        closer = {}
        for d in set(deltas):
            n_closer = at_v.count(d - 1)
            if d and n_closer != (q_F + 1 if d == 1 else 1):
                closer[d] = n_closer
        for e in range(h, u):
            d = e_delta[e]
            if d in closer:
                if d == 1:
                    delta_problems.append(
                        f"edge {e} at delta=1 sees {closer[d]} marked edges")
                else:
                    delta_problems.append(
                        f"edge {e} at delta={d} has {closer[d]} inner neighbors")
            elif d > least + 1:
                delta_problems.append(
                    f"edge {e} at delta={d} is more than one class past "
                    f"delta={least} at vertex {v}")
        if n_least != (1 if least else q_F + 1) and least + 1 not in closer:
            delta_problems.append(
                f"vertex {v} has {n_least} edges at its least delta={least}")
    problems = vertex_problems + label_problems
    if not e_in_F[0]:
        problems.append(NOT_CONNECTED)
    # the censuses by BFS level; the ambient one never differs, since BFS
    # walks the id layout, and the audit only reports it
    levels = edge_bfs(t, [0])
    marked = [level for level, mark in zip(levels, e_in_F) if mark]
    ks = range(1, t.depth + 1)
    if [marked.count(k) for k in ks] != [2 * q_F**k for k in ks]:
        problems.append("marked sphere census mismatch")
    if [levels.count(k) for k in ks] != [2 * q_E**k for k in ks]:
        problems.append("ambient sphere census mismatch")
    return tuple(problems + delta_problems)


def reference_rows(t):
    """The solver's rows collected vertex by vertex: per class, how many
    edges at the vertex carry that delta."""
    rows = set()
    for v in range(t.n_expanded):
        counts = [0] * (t.depth + 1)
        for e in incident_edges(t, v):
            counts[t.e_delta[e]] += 1
        rows.add(tuple(counts))
    return rows


CENSUS_AND_CONNECTIVITY = {NOT_CONNECTED, "marked sphere census mismatch"}
ORACLE_TREES = AUDIT_TREES + [tree.build_tree_pair(2, 3),
                              tree.build_tree_pair(3, 2)]


def propagate(t, deltas, edited):
    """Recompute the deltas top-down by the construction's rules, except at
    the edited indices, whose values then carry on below them as the rules
    dictate: an edge is at delta 0 when its parent edge is and it is one of
    its vertex's first q_F children, and one class past its parent edge
    otherwise.  A delta + 1 stays a byte: 255 + 1 wraps to 0, as in the
    build's byte table."""
    q_F, q_E = t.q_F, t.q_E
    for e in range(1, t.n_edges):
        if e not in edited:
            p = parent_edge((e - 1) // q_E)
            marked = not deltas[p] and (e - 1) % q_E < q_F
            deltas[e] = 0 if marked else (deltas[p] + 1) % 256


def reference_deltas(t):
    """The audit's delta messages found edge by edge on three columns, the
    marks being the edges at delta 0: every edge but the root edge has
    delta 0 when it is marked and its parent edge's + 1 otherwise."""
    deltas = t.e_delta
    marks = [d == 0 for d in deltas]
    found = []
    for e in range(1, t.n_edges):
        parent = parent_edge(endpoints(t, e)[0])
        want = 0 if marks[e] else deltas[parent] + 1
        if deltas[e] != want:
            found.append(f"edge {e} at delta={deltas[e]}, expected delta={want}")
    return found


def in_range(t):
    """Whether every delta is in 0..depth."""
    return set(t.e_delta) <= set(range(t.depth + 1))


def reference_report(t):
    """The audit's report found entry by entry on three columns, the marks
    being the edges at delta 0: its problems, in its groups and words, and
    the marked and ambient censuses by BFS level."""
    deltas, labels = t.e_delta, t.v_label
    marks = [d == 0 for d in deltas]
    if len(deltas) != t.n_edges:
        return (f"column e_delta has {len(deltas)} entries, "
                f"expected {t.n_edges}",), (), ()
    degree = []
    label = [f"vertex {v} has label {x}, expected 0 or 1"
             for v, x in enumerate(labels) if x > 1]
    delta = [f"edge {e} at delta={d}, expected delta in 0..{t.depth}"
             for e, d in enumerate(deltas) if d > t.depth]
    if not label and not delta:
        for v in range(t.n_expanded):
            above = marks[parent_edge(v)]
            below = sum(marks[e] for e in children(t, v))
            if above and below != t.q_F:
                degree.append(
                    f"marked interior vertex {v} has {1 + below} marked edges")
            elif not above and below:
                degree.append(
                    f"unmarked vertex {v} touches {below} marked edges")
        label = [f"edge {e} joins equal labels" for e in range(t.n_edges)
                 if labels[e + 1] == labels[endpoints(t, e)[0]]]
        delta = reference_deltas(t)
    connected = [] if marks[0] else [NOT_CONNECTED]
    levels = edge_bfs(t, [0])
    marked, ambient = [0] * (t.depth + 1), [0] * (t.depth + 1)
    for k, mark in zip(levels, marks):
        marked[k] += mark
        ambient[k] += 1
    census = ([] if marked[1:] == [2 * t.q_F**k for k in range(1, t.depth + 1)]
              else ["marked sphere census mismatch"])
    return (tuple(degree + label + connected + census + delta),
            tuple(marked), tuple(ambient))


def edited_deltas(t, edits, rebuild):
    """A tree on t's deltas with the (index, value) edits made, the deltas
    below them maybe rebuilt around the edits."""
    deltas = bytearray(t.e_delta)
    edited = set()
    for i, value in edits:
        i %= len(deltas)
        deltas[i] = value
        edited.add(i)
    if rebuild:
        propagate(t, deltas, edited)
    return damaged(t, e_delta=deltas)


EDITS = st.lists(st.tuples(st.integers(min_value=0),
                           st.sampled_from((0, 1, 2, 3, 255))),
                 min_size=1, max_size=5)


@settings(max_examples=600, deadline=None)
@given(t=st.sampled_from(AUDIT_TREES), edits=EDITS, rebuild=st.booleans())
@example(t=AUDIT_TREES[1], edits=[(0, 0)], rebuild=False)  # sound
def test_audit_is_the_three_column_reference(t, edits, rebuild):
    # 1-5 deltas edited, to 0-3 (which hold depth + 1 <= 3) or 255, then
    # maybe the deltas rebuilt around the edits; the report, the censuses
    # included, is that of the entry-by-entry audit whose marks are the
    # edges at delta 0 and which also reads the derived labels
    t = edited_deltas(t, edits, rebuild)
    audit = tree.check_tree_invariants(t)
    assert (audit.problems, audit.marked_census,
            audit.ambient_census) == reference_report(t)


@settings(max_examples=600, deadline=None)
@given(t=st.sampled_from(ORACLE_TREES), edits=EDITS, rebuild=st.booleans())
def test_column_passes_match_the_vertex_loops(t, edits, rebuild):
    # deltas edited, then maybe rebuilt around the edits, so that damage can
    # also be locally consistent: a wrong delta with the deltas below it
    # that follow from it
    t = edited_deltas(t, edits, rebuild)
    expected = reference_audit(t)
    problems = tree.check_tree_invariants(t).problems
    # the column identities pass no tree the vertex loop faults
    assert problems or not expected
    if not any(tree._column_problems(t)):
        assert set(expected) <= CENSUS_AND_CONNECTIVITY
    # with every delta in range, the two agree on all but the deltas, whose
    # messages differ
    if in_range(t):
        assert [p for p in problems if "delta=" in p] == reference_deltas(t)
        assert ([p for p in problems if "delta=" not in p]
                == [p for p in expected if "delta=" not in p])
    try:
        rows = reference_rows(t)
    except IndexError:  # a delta past the last class
        with pytest.raises(ModelError, match="deltas in 0.."):
            tree._pattern_rows(t)
    else:
        assert tree._pattern_rows(t) == rows
        if t.depth >= 2:
            # a profile, or a kernel of 0, is the row reduction's; the
            # substitution alone refuses a class no row ends at
            try:
                solved = [list(tree.invariant_solver(t).profile)]
            except ModelError as exc:
                solved = [] if "dimension 0" in str(exc) else None
            if solved is not None:
                assert solved == normalized_kernel(rows, t.depth + 1)


@pytest.mark.parametrize("q,depth", [(2, 1), (2, 6), (3, 4), (4, 3), (9, 2)])
def test_built_trees_take_the_column_test(q, depth):
    assert tree._column_problems(tree.build_tree_pair(q, depth)) == ([], [])


def test_column_test_guards():
    # a tree the strided comparisons alone would pass: deltas past the depth
    # that follow the child rule
    t = tree.build_tree_pair(2, 1)
    past = damaged(t, e_delta=bytearray(b"\x02") + b"\x03" * (t.n_edges - 1))
    assert any(tree._column_problems(past))
    problems = tree.check_tree_invariants(past).problems
    assert not set(problems) <= CENSUS_AND_CONNECTIVITY


@pytest.mark.parametrize("q", tree.ALLOWED_QF)
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
        if tree._projected_edges(q_E, depth) > tree.DEFAULT_EDGE_BUDGET:
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
        assert set(collected.pop()) == expected
        assert reference_rows(t) == expected
    # depth 1, below what the solver takes, has the two marked root ends
    assert tree._pattern_rows(tree.build_tree_pair(q, 1)) == {(q + 1, q_E - q)}


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
        assert aut.full == (None not in aut.edge_map)
