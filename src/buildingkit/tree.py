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
vertices are.  Levels are id ranges too: level 0 is the root edge, and
level k is the next 2 q_E^k ids.  The tree stores only the columns its
construction decides, as bytearrays of one byte per entry: the 0/1 flags
`e_in_F`, the labels `v_label` and the deltas `e_delta`; `TreePair` refuses
a column of any other type.

The marked subtree follows creation order: every marked vertex marks its
first q_F children edges, and a vertex is marked exactly when the edge that
created it is.  Each edge also records delta, its edge-to-edge gallery
distance to the nearest marked edge.

A cocycle is constant on the levels: one integer numerator per level over
one common denominator.  So the harmonicity, decay and period passes do
integer arithmetic once per level, and build a `Fraction` only for their
results.  The invariant cocycle is constant on the deltas instead; it is
solved by forward substitution on its triangular rows, and rebuilt class by
class.  Automorphisms are id-indexed lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
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
    """Truncated (q_E+1)-regular tree with a marked (q_F+1)-regular subtree.

    Each column is bytes or a bytearray; any other type is refused with a
    ValueError that names the column."""

    def __init__(self, q_F, depth, e_in_F, e_delta, v_label):
        for name, column in (("e_in_F", e_in_F), ("e_delta", e_delta),
                             ("v_label", v_label)):
            if not isinstance(column, (bytes, bytearray)):
                raise ValueError(f"column {name} is a {type(column).__name__}, "
                                 f"expected bytes or a bytearray")
        self.q_F = q_F
        self.q_E = q_F * q_F
        self.depth = depth
        self.e_in_F = e_in_F
        self.e_delta = e_delta
        self.v_label = v_label
        self.n_edges = _projected_edges(self.q_E, depth)
        self.n_expanded = (self.n_edges - 1) // self.q_E
        self.n_vertices = self.n_edges + 1

    # -- structure accessors -------------------------------------------------

    def endpoints(self, e):
        return (e - 1) // self.q_E if e else 0, e + 1

    @cached_property
    def parents(self):
        """Vertex-indexed list of the vertex each one hangs at: None for
        vertex 0, 0 for vertex 1, (v - 2) // q_E for every other v."""
        return [None, 0, *chain.from_iterable(
            map(repeat, range(self.n_expanded), repeat(self.q_E)))]

    def level(self, k):
        """Ids of the edges at gallery distance k from the root edge: edge 0
        for k = 0, the next 2 q_E^k ids for each k >= 1."""
        return range(_projected_edges(self.q_E, k - 1) if k else 0,
                     _projected_edges(self.q_E, k))

    # -- census ---------------------------------------------------------------

    def sphere_sizes(self, marked_only=False):
        """Edge counts per gallery distance from the root edge: the length
        of each level's slice of `e_in_F`, or its nonzero marks."""
        marks, ids = self.e_in_F, range(len(self.e_in_F))
        slices = [ids[r.start:r.stop]
                  for r in map(self.level, range(self.depth + 1))]
        if marked_only:
            return [len(s) - marks.count(0, s.start, s.stop) for s in slices]
        return list(map(len, slices))


def build_tree_pair(q_F, depth, edge_budget=DEFAULT_EDGE_BUDGET):
    """Build the truncated tree pair for a residue size q_F and a depth.

    Raises BudgetError before allocating anything when the edge count would
    exceed the budget; the count is walked level by level only as far as
    the smallest depth that already fails, which the error names.
    """
    if q_F not in ALLOWED_QF:
        raise ValueError(f"q_F must be one of {ALLOWED_QF}, got {q_F}")
    if isinstance(depth, bool) or depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    q_E = q_F * q_F
    n_edges = 1
    for k in range(1, depth + 1):
        n_edges += 2 * q_E ** k
        if n_edges > edge_budget:
            raise BudgetError(
                f"tree with q_F={q_F} needs {n_edges} edges at "
                f"depth {k}, over budget {edge_budget}",
                budget=edge_budget, smallest_failing_depth=k)

    # level k is 2 q_E^k edges from `start` on; they hang at the far ends of
    # level k - 1 (of the root edge, for k = 1), so the j-th children are
    # the slice [start + j:stop:q_E], an entry per edge of level k - 1.
    # Vertex 0's side is the first half of each level.
    e_in_F, e_delta = bytearray(n_edges), bytearray(n_edges)
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
        # slice assignment copies a bytes source first, not a bytearray one
        v_label[start + 1:half + 1] = bytearray((k % 2,)) * (size // 2)
        v_label[half + 1:stop + 1] = bytearray((1 - k % 2,)) * (size // 2)
        shifted = deltas.translate(to_first), deltas.translate(to_rest)
        for j in range(q_E):
            e_delta[start + j:stop:q_E] = shifted[j >= q_F]
        for j in range(q_F):  # the other children stay unmarked
            e_in_F[start + j:stop:q_E] = marks
        if k < depth:  # the last level's copies would have no reader
            marks, deltas = e_in_F[start:stop], e_delta[start:stop]
        start = stop

    return TreePair(q_F, depth, e_in_F, e_delta, v_label)


# ---------------------------------------------------------------------------
# whole columns: per-vertex identities on strided slices
#
# Expanded vertex v's j-th child edge is 1 + v * q_E + j, so the slice
# column[1 + j::q_E] holds that entry for every expanded vertex, in id order.
# A byte string read as one big-endian integer has a byte per vertex; sums of
# 0/1 columns over the at most q_E + 1 <= 82 edges at a vertex never carry
# from one byte into the next, so `+`, `&` and `==` on such integers act on
# every vertex at once.

def _hits(value):
    """Translation table sending the byte `value` to 1 and all others to 0."""
    return bytes(value) + b"\1" + bytes(255 - value)


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


def _outside(column, top):
    """(id, entry) for each entry above top.  Deleting the bytes 0..top
    keeps only the entries out of range, so one pass clears a column in
    range without copying it."""
    if not column.translate(None, bytes(range(top + 1))):
        return []
    return [(i, x) for i, x in enumerate(column) if x > top]


def _column_problems(tree):
    """The degree, label and delta problems of a tree whose columns have
    their lengths: three lists of messages, each in id order.

    Each identity of `check_tree_invariants` is one comparison of whole
    columns, read entry by entry only when it fails: slot j of expanded
    vertex v is edge 1 + v * q_E + j.  The comparisons assume bytes in
    range, so an entry outside its range is reported in their place.
    """
    q_F, q_E, n, depth = tree.q_F, tree.q_E, tree.n_expanded, tree.depth
    degree = [f"edge {e} has mark {x}, expected 0 or 1"
              for e, x in _outside(tree.e_in_F, 1)]
    label = [f"vertex {v} has label {x}, expected 0 or 1"
             for v, x in _outside(tree.v_label, 1)]
    delta = [f"edge {e} at delta={x}, expected delta in 0..{depth}"
             for e, x in _outside(tree.e_delta, depth)]
    if degree or label or delta:
        return degree, label, delta
    marks, deltas, labels = tree.e_in_F, tree.e_delta, tree.v_label
    as_int = int.from_bytes
    # p * q_F marked children at a vertex whose parent edge has mark p
    above, kids = _at_parents(marks, n), _child_sums(marks, q_E, n)
    if kids != as_int(above.translate(bytes((0, q_F, *bytes(254)))), "big"):
        degree = [f"marked interior vertex {v} has {1 + s} marked edges" if p
                  else f"unmarked vertex {v} touches {s} marked edges"
                  for v, (p, s) in enumerate(zip(above, kids.to_bytes(n, "big")))
                  if s != p * q_F]
    # the edges joining equal labels, and (edge, delta, expected) triples;
    # no delta exceeds depth < 255, so + 1 does not wrap
    same = [0] if labels[0] == labels[1] else []
    off = ([(0, deltas[0], "=0" if marks[0] else ">0")]
           if (deltas[0] == 0) != marks[0] else [])
    flipped = labels[:n].translate(bytes((1, 0, *bytes(254))))
    plus_one = as_int(_at_parents(deltas, n).translate(
        bytes((*range(1, 256), 0))), "big")
    unmarked = bytes((255, *bytes(255)))
    stop = 1 + n * q_E
    for j in range(q_E):
        far, have = labels[2 + j:stop + 1:q_E], deltas[1 + j:stop:q_E]
        if far != flipped:
            same += [1 + v * q_E + j for v, (a, b) in enumerate(zip(labels, far))
                     if a == b]
        want = plus_one & as_int(marks[1 + j:stop:q_E].translate(unmarked), "big")
        if as_int(have, "big") != want:
            off += [(1 + v * q_E + j, d, f"={x}")
                    for v, (d, x) in enumerate(zip(have, want.to_bytes(n, "big")))
                    if d != x]
    label = [f"edge {e} joins equal labels" for e in sorted(same)]
    delta = [f"edge {e} at delta={d}, expected delta{x}"
             for e, d, x in sorted(off)]
    return degree, label, delta


def _pattern_rows(tree):
    """The distinct incidence patterns of the expanded vertices: how many of
    a vertex's edges fall in each delta class 0..depth.

    A vertex's deltas are its parent edge's (weight 1) and its entry in each
    distinct child slice `e_delta[1 + j::q_E]`, weighted by the number of j
    with an equal slice.  A sound tree has one or two distinct child slices
    and few such tuples."""
    q_E, n, deltas = tree.q_E, tree.n_expanded, tree.e_delta
    n_classes, stop = tree.depth + 1, 1 + n * q_E
    weights, kids = [1], []
    for j in range(q_E):
        kid = deltas[1 + j:stop:q_E]
        if kid in kids:
            weights[1 + kids.index(kid)] += 1
        else:
            weights.append(1)
            kids.append(kid)
    rows = {tuple(sum(w for w, x in zip(weights, at) if x == d)
                  for d in range(n_classes))
            for at in set(zip(_at_parents(deltas, n), *kids))}
    if len(deltas) != tree.n_edges or any(sum(row) != q_E + 1 for row in rows):
        raise ModelError(
            f"e_delta is not {tree.n_edges} deltas in 0..{tree.depth}")
    return rows


# ---------------------------------------------------------------------------
# cocycles

class EdgeCocycle:
    """Exact rational edge values that depend only on the level, the
    distance to the root edge.

    Stores one integer numerator per level, `nums`, and one positive
    denominator `den`, and nothing per edge: each edge e in `tree.level(k)`
    has the value nums[k] / den on the tree it is read against.  The
    cocycle passes raise ValueError unless the tree has one level per
    numerator.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=1):
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        self.nums = list(nums)
        self.den = den


def iwahori_cocycle(tree):
    """The alternating geometric cocycle (-1/q_E)^(distance to the root edge),
    constant on levels, over the common denominator q_E^depth."""
    q_E, depth = tree.q_E, tree.depth
    return EdgeCocycle([(-1) ** k * q_E ** (depth - k) for k in range(depth + 1)],
                       q_E ** depth)


@dataclass(frozen=True)
class HarmonicityReport:
    violations: tuple
    interior_checked: int
    boundary_skipped: int

    @property
    def ok(self):
        return not self.violations


def _level_nums(tree, cocycle):
    """The cocycle's numerators, refused unless there is one per level."""
    nums = cocycle.nums
    if len(nums) != tree.depth + 1:
        raise ValueError(f"cocycle has {len(nums)} numerators for "
                         f"{tree.depth + 1} levels")
    return nums


def verify_harmonic(tree, cocycle):
    """Check that the edge values around every interior vertex sum to zero.

    Boundary vertices have missing neighbors, so they are skipped and counted
    rather than reported as violations.  Every interior vertex at level
    k < depth, vertices 0 and 1 for k = 0 and the far ends of level k's
    edges after that, touches one edge of level k and q_E of level k + 1.
    So the sum nums[k] + q_E * nums[k + 1] is taken once per level, and a
    level where it is nonzero lists its vertices as one id range.
    """
    nums, n, q_E = _level_nums(tree, cocycle), tree.n_expanded, tree.q_E
    violations = tuple(chain.from_iterable(
        range(r.start + 1 if k else 0, r.stop + 1)
        for k, r in enumerate(map(tree.level, range(tree.depth)))
        if nums[k] + q_E * nums[k + 1]))
    return HarmonicityReport(violations=violations, interior_checked=n,
                             boundary_skipped=tree.n_vertices - n)


def tree_period(tree, cocycle):
    """Partial sums of the cocycle over marked edges, sphere by sphere: a
    sphere's sum is its marked census times its level's numerator."""
    layer_sums = map(mul, tree.sphere_sizes(marked_only=True),
                     _level_nums(tree, cocycle))
    return [Fraction(acc, cocycle.den) for acc in accumulate(layer_sums)]


def decay_check(tree, cocycle):
    """Exact sup over edges of |value| * q_E^(distance to the root edge),
    taken over the levels 0..depth, each of which holds an edge."""
    return Fraction(max(abs(x) * tree.q_E ** k for k, x in
                        enumerate(_level_nums(tree, cocycle))), cocycle.den)


# ---------------------------------------------------------------------------
# the invariant cocycle: solve on delta-classes, then rebuild layer by layer

@dataclass(frozen=True)
class InvariantSolution:
    dimension: int
    profile: tuple  # value on delta-class d is profile[d], normalized profile[0] = 1


def invariant_solver(tree):
    """Solve for cocycles constant on delta-classes, harmonic at interior vertices.

    Builds one linear equation per distinct interior-vertex incidence
    pattern, a vertex's harmonic sum being its row times the profile.  A
    sound tree's rows end at distinct classes 1..depth (a marked vertex's at
    1, an unmarked one's at d + 1 for its parent edge's d), so `nullspace`
    solves them by forward substitution: the kernel is the returned profile,
    1 on the marked edges, or 0.  A kernel of 0, a class no row ends at and
    a delta outside 0..depth are model bugs and raise ModelError.
    """
    if tree.depth < 2:
        raise ValueError("need depth >= 2 to constrain every delta class")
    basis = nullspace(_pattern_rows(tree), tree.depth + 1)
    if len(basis) != 1:
        raise ModelError(
            f"invariant space has dimension {len(basis)}, expected 1")
    return InvariantSolution(dimension=1, profile=tuple(basis[0]))


def reconstruct_layer(tree, delta, value):
    """Push a constant layer of values one delta-step outward.

    Every edge of the class `delta`, read off `e_delta`, carries `value`; a
    delta outside 0..depth is refused with a ValueError.  For each edge one
    class further out, the value is forced by harmonicity at its inner
    panel: the edges at the panel split into the known inner ones and the
    unknown outer ones, the outer ones all carry the same value, so that
    value is minus the inner sum over the outer count.  Panels that split
    alike share one value object.  Returns the next layer as a dict from
    edge id to value; empty when already at the rim.
    """
    if not 0 <= delta <= tree.depth:
        raise ValueError(f"delta must be in 0..{tree.depth}, got {delta}")
    deltas = tree.e_delta
    known = deltas.translate(_hits(delta))
    q_E, n = tree.q_E, tree.n_expanded
    if not n:  # a depth-0 tree: no panel is expanded, no class lies past
        return {}
    # per panel: its edges at delta or closer, those at delta, and its outer
    # edges, the ones hanging there at delta + 1 (the root edge at vertex 0)
    inner = deltas.translate(b"\1" * (delta + 1) + bytes(255 - delta))
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
    # every expanded vertex is one, otherwise the near endpoints of the
    # mapped edges, which are mapped vertices
    us = range(tree.n_expanded) if g.full else {
        tree.endpoints(e)[0] for e, image in enumerate(g.edge_map)
        if image is not None}
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


def random_automorphism(tree, rng):
    """Random full automorphism: the endpoint swap on a fair coin, then a
    uniform permutation of the children at every expanded vertex.

    `rng` is a `random.Random`; the coin is `rng.random() < 0.5` and each
    permutation draws what `rng.shuffle` would (see `_lift`)."""
    a, b = (1, 0) if rng.random() < 0.5 else (0, 1)
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
    a mismatch reports only that.  Then checks that every mark and label is
    0 or 1 and every delta in 0..depth, and reports each entry outside its
    range.  When all are in range, it checks these identities, each as one
    comparison of whole columns (see `_column_problems`):

    - the root edge joins two labels that differ, and has delta 0 exactly
      when it is marked;
    - each expanded vertex has q_F marked children when it is marked (when
      its parent edge is), and none otherwise;
    - each child edge's far endpoint has the flip of its near one's label;
    - each child edge has delta 0 when it is marked, and its parent edge's
      delta + 1 otherwise.

    Then it checks connectivity and the marked sphere census.  Incidence is
    the id layout itself, so degrees and endpoints need no check.
    Connectivity is read off the marks: once no unmarked vertex has a marked
    child, every marked edge hangs below a marked parent edge, so the marked
    edges reach the root edge exactly when the root edge is marked.  Then
    the deltas are the gallery distances to the marked subtree, since an
    unmarked vertex's nearest marked edge lies past its parent edge.  The
    levels are the id layout itself (`TreePair.level`), so they need no
    check either; the ambient census is each level's id-range length,
    2 q_E^k, once the column lengths are right, so it is reported, not
    compared.  Problems are listed as degree, label, connectivity, census
    and delta problems, each group in id order.  A malformed tree is
    reported, never raised on.
    """
    short = [f"column {name} has {len(column)} entries, expected {n}"
             for name, column, n in (("e_in_F", tree.e_in_F, tree.n_edges),
                                     ("e_delta", tree.e_delta, tree.n_edges),
                                     ("v_label", tree.v_label, tree.n_vertices))
             if len(column) != n]
    if short:
        return TreeAuditReport(problems=tuple(short))
    degree, labels, deltas = _column_problems(tree)
    problems = degree + labels
    if not tree.e_in_F[0]:
        problems.append("marked subtree is not connected to the root edge")

    marked = tree.sphere_sizes(marked_only=True)
    if marked[1:] != [2 * tree.q_F**k for k in range(1, tree.depth + 1)]:
        problems.append("marked sphere census mismatch")
    return TreeAuditReport(problems=tuple(problems + deltas),
                           marked_census=tuple(marked),
                           ambient_census=tuple(tree.sphere_sizes()))

