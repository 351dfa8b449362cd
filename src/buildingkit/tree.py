"""Truncated regular-tree pair and exact cocycle checks on it.

The ambient tree is (q_E+1)-regular with q_E = q_F^2, built outward from a
root edge to a fixed depth; inside it sits a marked (q_F+1)-regular subtree
through the same root edge.  Chambers are edges, panels are vertices, and
the gallery distance between edges is the number of panel crossings, i.e.
the BFS level at which an edge is created.

Storage is flat columns with implicit ids: edge 0 is the root edge joining
vertices 0 and 1, edge e (e >= 1) creates vertex e + 1 as its far endpoint,
and the children edges of vertex v occupy the contiguous range starting at
1 + v * q_E, so edge e >= 1 hangs at vertex (e - 1) // q_E.  A vertex is
interior when all q_E + 1 of its neighbors are materialized, which happens
exactly when it was expanded; the first 2 (q_E^depth - 1) / (q_E - 1)
vertices are.  The tree stores only the columns its construction decides,
as bytearrays of one byte per entry: the 0/1 flags `e_in_F`, the labels
`v_label` and the small counts `e_level` and `e_delta`.  Every function
also accepts plain int lists for these columns.

The marked subtree follows creation order: every marked vertex marks its
first q_F children edges, and a vertex is marked exactly when the edge that
created it is.  Each edge also records delta, its edge-to-edge gallery
distance to the nearest marked edge.

A cocycle is constant on the classes of a column (the levels, or the
deltas): one integer numerator per class over one common denominator.  So the
harmonicity, decay and period passes do integer arithmetic once per distinct
vertex pattern, (class, level) pair or level, and build a `Fraction` only for
their results.  Automorphisms are id-indexed lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from math import lcm
from operator import mul, ne

from .errors import BudgetError, ModelError
from .linalg import nullspace

ALLOWED_QF = (2, 3, 4, 5, 7, 8, 9)

DEFAULT_EDGE_BUDGET = 4_000_000


def _projected_edges(q_E, depth):
    total = 1
    power = 1
    for _ in range(depth):
        power *= q_E
        total += 2 * power
    return total


class TreePair:
    """Truncated (q_E+1)-regular tree with a marked (q_F+1)-regular subtree."""

    def __init__(self, q_F, depth, e_in_F, e_level, e_delta, v_label):
        self.q_F = q_F
        self.q_E = q_F * q_F
        self.depth = depth
        self.e_in_F = e_in_F
        self.e_level = e_level
        self.e_delta = e_delta
        self.v_label = v_label
        self.n_edges = _projected_edges(self.q_E, depth)
        self.n_expanded = (self.n_edges - 1) // self.q_E
        self.n_vertices = self.n_edges + 1

    # -- structure accessors -------------------------------------------------

    def endpoints(self, e):
        return (e - 1) // self.q_E if e else 0, e + 1

    def parent_edge(self, v):
        # both endpoints of the root edge point back to it
        return 0 if v <= 1 else v - 1

    def children(self, v):
        """Ids of the materialized child edges of v (empty at the boundary)."""
        if v >= self.n_expanded:
            return range(0)
        start = 1 + v * self.q_E
        return range(start, start + self.q_E)

    def incident_edges(self, v):
        yield self.parent_edge(v)
        yield from self.children(v)

    @cached_property
    def parents(self):
        """Vertex-indexed list of the vertex each one hangs at: None for
        vertex 0, 0 for vertex 1, (v - 2) // q_E for every other v."""
        return [None, 0, *chain.from_iterable(
            map(repeat, range(self.n_expanded), repeat(self.q_E)))]

    def edges(self):
        return range(self.n_edges)

    # -- census ---------------------------------------------------------------

    def sphere_sizes(self, marked_only=False):
        """Edge counts per gallery distance from the root edge."""
        levels, marks = self.e_level, self.e_in_F
        if marked_only and {type(levels), type(marks)} <= {bytes, bytearray}:
            # the levels or-ed with 255 (no level 0..depth) where the mark is
            # 0, as integers, and the 255s deleted
            n = min(len(levels), len(marks))
            unmarked = marks[:n].translate(bytes((255, *bytes(255))))
            levels = (int.from_bytes(levels[:n], "little") | int.from_bytes(
                unmarked, "little")).to_bytes(n, "little").translate(None, b"\xff")
        elif marked_only:
            levels = list(compress(levels, marks))
        return [levels.count(k) for k in range(self.depth + 1)]


def build_tree_pair(q_F, depth, edge_budget=DEFAULT_EDGE_BUDGET):
    """Build the truncated tree pair for a residue size q_F and a depth.

    Raises BudgetError before allocating anything when the edge count would
    exceed the budget; the error reports the smallest depth that already
    fails.
    """
    if q_F not in ALLOWED_QF:
        raise ValueError(f"q_F must be one of {ALLOWED_QF}, got {q_F}")
    if isinstance(depth, bool) or depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    q_E = q_F * q_F
    n_edges = _projected_edges(q_E, depth)
    if n_edges > edge_budget:
        failing = next(L for L in range(1, depth + 1)
                       if _projected_edges(q_E, L) > edge_budget)
        raise BudgetError(
            f"tree with q_F={q_F} needs {n_edges} edges at "
            f"depth {depth}, over budget {edge_budget}",
            budget=edge_budget, smallest_failing_depth=failing)

    # level k is 2 q_E^k edges from `start` on; they hang at the far ends of
    # level k - 1 (of the root edge, for k = 1), so the j-th children are
    # the slice [start + j:stop:q_E], an entry per edge of level k - 1.
    # Vertex 0's side is the first half of each level.
    e_in_F, e_level, e_delta = (bytearray(n_edges) for _ in range(3))
    v_label = bytearray(n_edges + 1)
    e_in_F[0] = v_label[1] = 1
    marks, deltas = b"\x01\x01", b"\x00\x00"
    # the first q_F children of a marked edge are marked, at delta 0; every
    # other child is one class past its parent edge (no delta exceeds depth)
    to_first, to_rest = bytes((0, *range(2, 256), 0)), bytes((*range(1, 256), 0))
    start = 1
    for k in range(1, depth + 1):
        size = len(marks) * q_E
        stop, half = start + size, start + size // 2
        e_level[start:stop] = bytes((k,)) * size
        v_label[start + 1:half + 1] = bytes((k % 2,)) * (size // 2)
        v_label[half + 1:stop + 1] = bytes((1 - k % 2,)) * (size // 2)
        shifted = deltas.translate(to_first), deltas.translate(to_rest)
        for j in range(q_E):
            e_delta[start + j:stop:q_E] = shifted[j >= q_F]
        for j in range(q_F):  # the other children stay unmarked
            e_in_F[start + j:stop:q_E] = marks
        marks, deltas = e_in_F[start:stop], e_delta[start:stop]
        start = stop

    return TreePair(q_F, depth, e_in_F, e_level, e_delta, v_label)


# ---------------------------------------------------------------------------
# whole columns: per-vertex identities on strided slices
#
# Expanded vertex v's j-th child edge is 1 + v * q_E + j, so the slice
# column[1 + j::q_E] holds that entry for every expanded vertex, in id order.
# A byte string read as one big-endian integer has a byte per vertex; sums of
# 0/1 columns over the at most q_E + 1 <= 82 edges at a vertex never carry
# from one byte into the next, so `+`, `&` and `==` on such integers act on
# every vertex at once.

def _as_bytes(column):
    """A column as a bytes-like object; a list with an entry outside 0..255
    raises ValueError, one with a non-integer entry TypeError."""
    return column if isinstance(column, (bytes, bytearray)) else bytes(column)


def _hits(value):
    """Translation table sending the byte `value` to 1 and all others to 0."""
    return bytes(map(value.__eq__, range(256)))


def _at_parents(column, n):
    """The parent-edge entry of each of the first n vertices: the root
    edge's for vertices 0 and 1, edge v - 1's for every other v."""
    return column[:1] + column[:n - 1] if n else column[:0]


def _child_sums(column, q_E, n):
    """Per expanded vertex, the sum of its child edges' entries, as one
    integer with a byte per vertex (vertex 0 the most significant)."""
    stop = 1 + n * q_E
    return sum(int.from_bytes(column[1 + j:stop:q_E], "big")
               for j in range(q_E))


def _edge_sums(column, q_E, n):
    """Per expanded vertex, the sum over all its edges, the parent edge
    included, as in `_child_sums`."""
    return (_child_sums(column, q_E, n)
            + int.from_bytes(_at_parents(column, n), "big"))


def _columns_sound(tree):
    """Whether the degree, label and delta identities of
    `check_tree_invariants` hold at every expanded vertex; False as well
    when the columns cannot be read as bytes, when a delta is 255 and when
    no vertex is expanded."""
    q_F, q_E, n = tree.q_F, tree.q_E, tree.n_expanded
    try:
        marks, deltas, labels = map(
            _as_bytes, (tree.e_in_F, tree.e_delta, tree.v_label))
    except (TypeError, ValueError):
        return False
    if (not n or 255 in deltas
            or marks.count(0) + marks.count(1) != len(marks)
            or labels.count(0) + labels.count(1) != len(labels)
            or (deltas[0] == 0) != (marks[0] == 1) or labels[0] == labels[1]):
        return False
    as_int = int.from_bytes
    # a marked vertex has q_F marked children, an unmarked one none
    if _child_sums(marks, q_E, n) != as_int(
            _at_parents(marks, n).translate(bytes((0, q_F, *bytes(254)))),
            "big"):
        return False
    # a child edge's delta is 0 when it is marked and its parent edge's + 1
    # otherwise (255 is excluded, so + 1 does not wrap); its far endpoint's
    # label is the flip of its near one's
    plus_one = as_int(_at_parents(deltas, n).translate(
        bytes((*range(1, 256), 0))), "big")
    flipped = labels[:n].translate(bytes((1, 0, *bytes(254))))
    unmarked = bytes((255, *bytes(255)))
    stop = 1 + n * q_E
    for j in range(q_E):
        if (labels[2 + j:stop + 1:q_E] != flipped
                or as_int(deltas[1 + j:stop:q_E], "big") != plus_one & as_int(
                    marks[1 + j:stop:q_E].translate(unmarked), "big")):
            return False
    return True


def _vertex_patterns(column, q_E, n):
    """An edge column around each vertex 0..n-1: weights, and one tuple per
    vertex in id order.  A tuple holds the vertex's parent-edge entry
    (weight 1), then its entry in each distinct child slice
    `column[1 + j::q_E]`, weighted by the number of j with an equal slice.
    A sound tree has one or two distinct child slices and few tuples."""
    stop = 1 + n * q_E
    weights, kids = [1], []
    for j in range(q_E):
        kid = column[1 + j:stop:q_E]
        if kid in kids:
            weights[1 + kids.index(kid)] += 1
        else:
            weights.append(1)
            kids.append(kid)
    return weights, zip(_at_parents(column, n), *kids)


def _pattern_rows(tree):
    """The distinct incidence patterns of the expanded vertices: how many of
    a vertex's edges fall in each delta class 0..depth."""
    q_E, n_classes, deltas = tree.q_E, tree.depth + 1, tree.e_delta
    weights, at_vertex = _vertex_patterns(deltas, q_E, tree.n_expanded)
    rows = {tuple(sum(w for w, x in zip(weights, at) if x == d)
                  for d in range(n_classes))
            for at in set(at_vertex)}
    if len(deltas) != tree.n_edges or any(sum(row) != q_E + 1 for row in rows):
        raise ModelError(
            f"e_delta is not {tree.n_edges} deltas in 0..{tree.depth}")
    return rows


# ---------------------------------------------------------------------------
# cocycles

class EdgeCocycle:
    """Exact rational edge values, constant on the classes of an edge
    column such as `e_level` or `e_delta`.

    Stores that column, one integer numerator per class, `nums`, and one
    positive denominator `den`, and nothing per edge: edge e has the value
    nums[column[e]] / den, which indexing returns as a `Fraction`.
    """

    __slots__ = ("column", "nums", "den")

    def __init__(self, column, nums, den=1):
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        self.column = column
        self.nums = list(nums)
        self.den = den

    def __getitem__(self, e):
        return Fraction(self.nums[self.column[e]], self.den)

    def __len__(self):
        return len(self.column)

    @classmethod
    def from_deltas(cls, tree, profile):
        """Cocycle constant on delta-classes; profile[delta] gives the value.

        The common denominator is the lcm of the class values' denominators.
        """
        values = [Fraction(profile[d]) for d in range(max(tree.e_delta) + 1)]
        den = lcm(*(x.denominator for x in values))
        return cls(tree.e_delta,
                   [x.numerator * (den // x.denominator) for x in values], den)


def iwahori_cocycle(tree):
    """The alternating geometric cocycle (-1/q_E)^(distance to the root edge),
    constant on levels, over the common denominator q_E^depth."""
    q_E, depth = tree.q_E, tree.depth
    return EdgeCocycle(
        tree.e_level, [(-1) ** k * q_E ** (depth - k) for k in range(depth + 1)],
        q_E ** depth)


@dataclass(frozen=True)
class HarmonicityReport:
    violations: tuple
    interior_checked: int
    boundary_skipped: int

    @property
    def ok(self):
        return not self.violations


def verify_harmonic(tree, cocycle):
    """Check that the edge values around every interior vertex sum to zero.

    Boundary vertices have missing neighbors, so they are skipped and counted
    rather than reported as violations.  A vertex's sum depends only on the
    classes of its edges, so it is taken once per distinct tuple of classes
    (see `_vertex_patterns`), over numerators that share one denominator;
    only when some tuple sums to nonzero are the vertices listed one by one.
    """
    nums, n = cocycle.nums, tree.n_expanded
    weights, at_vertex = _vertex_patterns(cocycle.column, tree.q_E, n)
    bad = {at for at in set(at_vertex)
           if sum(map(mul, weights, map(nums.__getitem__, at)))}
    violations = ()
    if bad:
        at_vertex = _vertex_patterns(cocycle.column, tree.q_E, n)[1]
        violations = tuple(v for v, at in enumerate(at_vertex) if at in bad)
    return HarmonicityReport(violations=violations, interior_checked=n,
                             boundary_skipped=tree.n_vertices - n)


def tree_period(tree, cocycle):
    """Partial sums of the cocycle over marked edges, sphere by sphere.

    A sphere's sum is its marked edges counted per class, times the class
    numerators.  When the classes are the levels, the counts are the marked
    census; otherwise the (level, class) pairs of the marked edges are
    counted.
    """
    nums = cocycle.nums
    if cocycle.column is tree.e_level:
        layer_sums = map(mul, tree.sphere_sizes(marked_only=True), nums)
    else:
        layer_sums = [0] * (tree.depth + 1)
        pairs = Counter(compress(zip(tree.e_level, cocycle.column), tree.e_in_F))
        for (k, c), n_edges in pairs.items():
            layer_sums[k] += n_edges * nums[c]
    return [Fraction(acc, cocycle.den) for acc in accumulate(layer_sums)]


def decay_check(tree, cocycle):
    """Exact sup over edges of |value| * q_E^(distance to the root edge).

    Taken over the distinct (class, level) pairs that occur: when the
    classes are the levels, over the levels present.
    """
    nums, levels = cocycle.nums, tree.e_level
    if cocycle.column is levels:
        pairs = [(k, k) for k in range(len(nums)) if k in levels]
    else:
        pairs = set(zip(cocycle.column, levels))
    return Fraction(max((abs(nums[c]) * tree.q_E ** k for c, k in pairs),
                        default=0), cocycle.den)


# ---------------------------------------------------------------------------
# the invariant cocycle: solve on delta-classes, then rebuild layer by layer

@dataclass(frozen=True)
class InvariantSolution:
    dimension: int
    profile: tuple  # value on delta-class d is profile[d], normalized profile[0] = 1


def invariant_solver(tree):
    """Solve for cocycles constant on delta-classes, harmonic at interior vertices.

    Builds one linear equation per distinct interior-vertex incidence pattern
    and computes the exact nullspace.  Any dimension other than 1 is a model
    bug and raises ModelError, as does a delta outside 0..depth.  The
    returned profile is normalized to value 1 on the marked edges.  Before
    returning, the profile is checked against every pattern row: a vertex's
    harmonic sum is its row times the profile, so with exact values this
    decides harmonicity at every interior vertex.
    """
    if tree.depth < 2:
        raise ValueError("need depth >= 2 to constrain every delta class")
    n_classes = tree.depth + 1
    rows = sorted(_pattern_rows(tree))
    basis = nullspace(rows, n_classes)
    if len(basis) != 1:
        raise ModelError(
            f"invariant space has dimension {len(basis)}, expected 1")
    vec = basis[0]
    if vec[0] == 0:
        raise ModelError("invariant cocycle vanishes on the marked subtree")
    profile = tuple(x / vec[0] for x in vec)
    if any(sum(map(mul, row, profile)) for row in rows):
        raise ModelError("solved profile is not harmonic at some interior vertex")
    return InvariantSolution(dimension=1, profile=profile)


def reconstruct_layer(tree, values):
    """Push a constant layer of values one delta-step outward.

    `values` must cover exactly the edges of one delta-class, with a single
    common value.  For each edge one class further out, the value is forced
    by harmonicity at its inner panel: the edges at the panel split into the
    known inner ones and the unknown outer ones, the outer ones all carry the
    same value, so that value is minus the inner sum over the outer count.
    Panels that split alike share one value object.  Returns the full next
    layer as a dict; empty when already at the rim.
    """
    if not values:
        raise ValueError("empty input layer")
    deltas = _as_bytes(tree.e_delta)
    classes = set(map(deltas.__getitem__, values))
    if len(classes) != 1:
        raise ValueError(
            f"input edges span several delta classes: {sorted(classes)}")
    delta = classes.pop()
    known = deltas.translate(_hits(delta))
    # a negative key aliases an edge counted from the end, and is no member
    if values.keys() != set(compress(range(tree.n_edges), known)):
        raise ValueError(f"input must cover every edge at delta={delta}")
    layer = list(values.values())
    value = layer[0]
    # list.count tries identity before equality, so a layer sharing one value
    # object is checked without a Fraction comparison per edge
    if layer.count(value) != len(layer):
        raise ValueError("input layer is not constant")

    q_E, n = tree.q_E, tree.n_expanded
    if not n:  # the root edge alone, and it is in the layer
        return {}
    # per panel: its edges at delta or closer, those at delta, and its outer
    # edges, the ones hanging there at delta + 1 (the root edge at vertex 0)
    inner = deltas.translate(bytes(map(delta.__ge__, range(256))))
    outer = deltas.translate(_hits(delta + 1))
    sums = (_edge_sums(inner, q_E, n), _edge_sums(known, q_E, n),
            _child_sums(outer, q_E, n) + (outer[0] << 8 * (n - 1)))
    panels = list(zip(*(x.to_bytes(n, "big") for x in sums)))
    forced = {}
    for split in dict.fromkeys(panels):  # in order of first panel
        n_inner, n_known, n_outer = split
        if not n_outer:
            continue
        if n_inner != n_known:
            raise ModelError(f"panel {panels.index(split)} has an edge "
                             f"closer than delta={delta}")
        forced[split] = -sum(repeat(value, n_inner), Fraction(0)) / n_outer
    # every child edge gets its panel's value; the outer ones are kept
    spread = chain.from_iterable(map(repeat, map(forced.get, panels),
                                     repeat(q_E)))
    out = dict(compress(zip(range(1, tree.n_edges), spread),
                        outer[1:tree.n_edges]))
    if outer[0]:
        out = {0: forced[panels[0]], **out}
    return out


# ---------------------------------------------------------------------------
# automorphisms and the sign character

class TreeAutomorphism:
    """Partial automorphism: a vertex bijection on a sub-ball of the tree.

    `vertex_map` is a sequence indexed by vertex id with None where
    undefined, and is stored as a list.  Its length, the range of its images
    and their injectivity are checked in that order.  `full` says whether
    every vertex, and so every edge, is mapped.  The marked subtree does not
    need to be preserved.

    A full map keeps adjacency exactly when it sends the root edge onto
    itself and each other vertex to a child of its parent's image: one that
    keeps adjacency is an automorphism of the finite ball, so it fixes the
    ball's central edge and keeps every vertex's distance from it.  That
    rule is checked with whole-list passes.  A partial map, or a full one
    that breaks the rule, is checked edge by edge, so a refusal names the
    lowest edge whose mapped endpoints are not an edge again.

    `edge_map`, a list indexed by edge id with None where an endpoint is
    unmapped, is induced from the vertex map.  A partial map builds it while
    it is checked; a full map builds it on first access.
    """

    def __init__(self, tree, vertex_map):
        self.tree = tree
        n = tree.n_vertices
        vm = list(vertex_map)
        if len(vm) != n:
            raise ValueError(f"vertex map has {len(vm)} entries for {n} vertices")
        distinct = set(vm)
        self.full = None not in distinct
        images = vm if self.full else [x for x in vm if x is not None]
        if images and not (0 <= min(images) and max(images) < n):
            bad = next(x for x in images if not 0 <= x < n)
            raise ValueError(f"vertex id out of range: {bad}")
        # a partial map's None counts once among the distinct entries
        if len(distinct) - (not self.full) != len(images):
            raise ValueError("vertex map is not injective")
        self.vertex_map = vm

        q_E, n_expanded, parent = tree.q_E, tree.n_expanded, tree.parents
        if self.full and vm[0] + vm[1] == 1:
            # the parent of each image, read in q_E slots: slot j holds the
            # j-th children of the expanded vertices in id order
            above = list(map(parent.__getitem__, islice(vm, 2, None)))
            head = vm[:n_expanded]
            if all(above[j::q_E] == head for j in range(q_E)):
                return

        # the images of the near endpoints: vm[0] for the root edge, then
        # each expanded vertex's image once per child edge
        near_images = chain((vm[0],), chain.from_iterable(
            map(repeat, vm[:n_expanded], repeat(q_E))))
        # images a, b are joined by the edge that created b when a is b's
        # parent, by the one that created a when b is a's, and by none
        # otherwise; -1 marks a mapped pair that is not an edge
        edge_map = [None if a is None or b is None
                    else b - 1 if parent[b] == a
                    else a - 1 if parent[a] == b else -1
                    for a, b in zip(near_images, islice(vm, 1, None))]
        if -1 in edge_map:
            e = edge_map.index(-1)
            raise ValueError(
                f"vertex map breaks adjacency: edge {e} maps to non-edge "
                f"({vm[tree.endpoints(e)[0]]},{vm[e + 1]})")
        self.edge_map = edge_map

    @cached_property
    def edge_map(self):
        # reached only for a full map that kept the root edge and sent every
        # other vertex v to a child of its parent's image, which the edge
        # v - 1 created
        return [0, *map((-1).__add__, islice(self.vertex_map, 2, None))]


def epsilon_tree(g):
    """Sign of the induced permutation of the two vertex types.

    +1 when the automorphism preserves the bipartition labels, -1 when it
    swaps them on every mapped edge.  A mixed or empty answer is incoherent
    and raises ValueError.
    """
    tree = g.tree
    label, vm = tree.v_label, g.vertex_map
    # the sign of a mapped edge is read at its near endpoint u; on a full map
    # every expanded vertex is one, otherwise only those with a mapped edge
    # hanging there: among their children, or the root edge at 0
    us = range(tree.n_expanded)
    if not g.full:
        em = g.edge_map
        mapped = []
        for u in us:
            kids = tree.children(u)
            first = 0 if u == 0 else kids.start
            if (vm[u] is not None
                    and em[first:kids.stop].count(None) < kids.stop - first):
                mapped.append(u)
        us = mapped
    swaps = set(map(ne, map(label.__getitem__, map(vm.__getitem__, us)),
                    map(label.__getitem__, us)))
    if len(swaps) > 1:
        raise ValueError("automorphism is not label-coherent")
    if not swaps:
        raise ValueError("automorphism domain contains no edges")
    return -1 if swaps.pop() else 1


def _lift(tree, a, b, rng=None):
    """Vertex map that sends the root edge (0, 1) to the edge (a, b).

    Then, for each expanded vertex v in creation order whose image w is
    expanded too, v's children go to w's neighbors other than the image of
    v's parent side, in id order or permuted by `rng`.  When that image is
    a child of w, it leaves w's child block and w's parent side goes first.
    The map is partial where images run past the boundary.

    The permutation is `rng.shuffle`'s Fisher-Yates pass written out: for
    i from q_E - 1 down to 1, j is drawn from `rng.getrandbits` with the
    bit length of i + 1, redrawn while j > i, and entries i and j swap.  It
    draws what `rng.shuffle` draws, so the maps and the generator's state
    afterwards are the same, without a call per draw.
    """
    q_E, n_expanded = tree.q_E, tree.n_expanded
    draws = [(i, (i + 1).bit_length()) for i in range(q_E - 1, 0, -1)]
    getrandbits = None if rng is None else rng.getrandbits
    vmap = [None] * tree.n_vertices
    vmap[0], vmap[1] = a, b
    for v in range(n_expanded):
        w = vmap[v]
        if w is None or w >= n_expanded:
            continue
        first = 2 + w * q_E
        block = list(range(first, first + q_E))
        # the image of v's parent side: w's parent side or a child of w
        back = vmap[1 - v if v <= 1 else (v - 2) // q_E]
        if back >= first:
            block.remove(back)
            block.insert(0, 1 - w if w <= 1 else (w - 2) // q_E)
        if getrandbits is not None:
            for i, bits in draws:
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                block[i], block[j] = block[j], block[i]
        vmap[2 + v * q_E:2 + (v + 1) * q_E] = block
    return vmap


def endpoint_swap(tree):
    """The involution exchanging the two root-edge endpoints, matched by
    creation order below them."""
    return TreeAutomorphism(tree, _lift(tree, 1, 0))


def random_automorphism(tree, rng, swap=None):
    """Random full automorphism: optional endpoint swap, then a uniform
    permutation of the children at every expanded vertex.

    `rng` is a `random.Random`; the coin is `rng.random()` and each
    permutation draws what `rng.shuffle` would (see `_lift`)."""
    if swap is None:
        swap = rng.random() < 0.5
    a, b = (1, 0) if swap else (0, 1)
    return TreeAutomorphism(tree, _lift(tree, a, b, rng))


def compose(g, h):
    """The automorphism x -> g(h(x)), on the domain where both are defined."""
    gv, hv = g.vertex_map, h.vertex_map
    return TreeAutomorphism(g.tree, map(gv.__getitem__, hv) if h.full
                            else [None if x is None else gv[x] for x in hv])


def translation_automorphism(tree, steps):
    """Partial automorphism shifting the canonical axis through the root edge.

    The axis follows first children on both sides of the root edge: place 0
    is vertex 0, place 1 is vertex 1, place k > 1 lies k - 1 first children
    below vertex 1 and place -k lies k first children below vertex 0.  A
    shift by `steps` lifts the root edge to the places `steps` and
    `steps + 1`, so every axis vertex moves that many places toward the
    positive end, and hanging subtrees follow by creation order as far as
    their images are materialized.  Odd shifts swap the two vertex labels.
    """
    if abs(steps) > tree.depth:
        raise ValueError(f"shift {steps} exceeds the materialized axis")
    ends = []
    for k in (steps, steps + 1):
        v = int(k > 0)
        for _ in range(abs(k) - v):
            v = 2 + v * tree.q_E
        ends.append(v)
    return TreeAutomorphism(tree, _lift(tree, *ends))


# ---------------------------------------------------------------------------
# structural invariant audit

@dataclass(frozen=True)
class TreeAuditReport:
    problems: tuple
    # per-level edge counts, marked and all; empty for a column of the wrong
    # length
    marked_census: tuple = ()
    ambient_census: tuple = ()

    @property
    def ok(self):
        return not self.problems


def check_tree_invariants(tree):
    """Audit the structural invariants of a built tree pair.

    First checks that every column has one entry per edge or vertex, and on
    a mismatch reports only that.  Then checks marked-subtree degrees and
    connectivity, label alternation across every edge, sphere censuses, and
    the delta recursion (each delta >= 2 edge has exactly one inner neighbor
    one class closer; each delta = 1 edge hangs at a marked vertex carrying
    q_F + 1 marked edges; at every interior vertex each edge has the least
    delta m there or m + 1, and m is carried by q_F + 1 edges when m = 0 and
    by exactly one edge otherwise).  Incidence is the id layout itself, so
    degrees and endpoints need no check.  Connectivity is read off the
    marks: once no unmarked vertex touches a marked edge, every marked edge
    hangs below a marked parent edge, so the marked edges reach the root
    edge exactly when the root edge is marked.  A malformed tree is
    reported, never raised on.

    The degrees, labels and deltas are decided on whole columns.  A tree
    built by `build_tree_pair` satisfies these identities, and they imply
    every per-vertex check above:

    - marks and labels are 0 or 1;
    - the root edge has delta 0 exactly when it is marked;
    - each expanded vertex has q_F marked children when it is marked (when
      its parent edge is), and none otherwise;
    - each child edge has delta 0 when it is marked, and its parent edge's
      delta + 1 otherwise;
    - each vertex's label is the flip of the one it hangs at.

    Only a tree that fails them, or that the column test cannot read (a list
    column with an entry outside 0..255, a delta of 255, no expanded
    vertex), goes through the per-vertex loop, which finds the problems.
    """
    q_F, q_E = tree.q_F, tree.q_E
    e_in_F, e_delta, v_label = tree.e_in_F, tree.e_delta, tree.v_label
    short = [f"column {name} has {len(column)} entries, expected {n}"
             for name, column, n in (("e_in_F", e_in_F, tree.n_edges),
                                     ("e_level", tree.e_level, tree.n_edges),
                                     ("e_delta", e_delta, tree.n_edges),
                                     ("v_label", v_label, tree.n_vertices))
             if len(column) != n]
    if short:
        return TreeAuditReport(problems=tuple(short))
    vertex_problems, label_problems, delta_problems = (
        ([], [], []) if _columns_sound(tree) else _vertex_problems(tree))

    problems = vertex_problems + label_problems
    if not e_in_F[0]:
        problems.append("marked subtree is not connected to the root edge")

    marked, ambient = tree.sphere_sizes(marked_only=True), tree.sphere_sizes()
    if marked[1:] != [2 * q_F**k for k in range(1, tree.depth + 1)]:
        problems.append("marked sphere census mismatch")
    if ambient[1:] != [2 * q_E**k for k in range(1, tree.depth + 1)]:
        problems.append("ambient sphere census mismatch")
    return TreeAuditReport(problems=tuple(problems + delta_problems),
                           marked_census=tuple(marked),
                           ambient_census=tuple(ambient))


def _vertex_problems(tree):
    """The degree, label and delta problems of an audited tree, found vertex
    by vertex: three lists of messages."""
    q_F = tree.q_F
    e_in_F, e_delta, v_label = tree.e_in_F, tree.e_delta, tree.v_label
    vertex_problems, label_problems, delta_problems = [], [], []
    for v in range(tree.n_expanded):
        kids = tree.children(v)
        s, t = kids.start, kids.stop
        p = 0 if v <= 1 else v - 1
        n_marked = e_in_F[p] + e_in_F[s:t].count(True)
        # v is marked exactly when its parent edge is
        if e_in_F[p]:
            if n_marked != q_F + 1:
                vertex_problems.append(
                    f"marked interior vertex {v} has {n_marked} marked edges")
        elif n_marked:
            vertex_problems.append(
                f"unmarked vertex {v} touches {n_marked} marked edges")

        # the edges hanging at v: its children, and the root edge at vertex 0
        h = 0 if v == 0 else s
        label = v_label[v]
        if label in v_label[h + 1:t + 1]:
            label_problems.extend(f"edge {e} joins equal labels"
                                  for e in range(h, t) if v_label[e + 1] == label)
        deltas = e_delta[h:t]
        # every edge at v (vertex 0's parent edge hangs at it), as a list:
        # a bytearray's count refuses the d - 1 = -1 asked below
        at_v = [*deltas, e_delta[p]] if v else [*deltas]
        least = min(at_v)
        n_least = at_v.count(least)
        # sound: q_F + 1 marked edges at delta 0, or the parent edge alone at
        # the least delta, and every other edge one class further out
        if (n_least == (1 if least else q_F + 1) and (not least or e_delta[p] == least)
                and n_least + at_v.count(least + 1) == len(at_v)):
            continue
        closer = {}
        for d in set(deltas):
            n_closer = at_v.count(d - 1)
            if d and n_closer != (q_F + 1 if d == 1 else 1):
                closer[d] = n_closer
        for e in range(h, t):
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
        # an edge one class past the least would already report a wrong count
        if n_least != (1 if least else q_F + 1) and least + 1 not in closer:
            delta_problems.append(
                f"vertex {v} has {n_least} edges at its least delta={least}")
    return vertex_problems, label_problems, delta_problems
