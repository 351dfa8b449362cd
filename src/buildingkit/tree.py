"""Truncated regular-tree pair and exact cocycle checks on it.

The ambient tree is (q_E+1)-regular with q_E = q_F^2, built outward from a
root edge to a fixed depth; inside it sits a marked (q_F+1)-regular subtree
through the same root edge.  Chambers are edges, panels are vertices, and
the gallery distance between edges is the number of panel crossings, i.e.
the BFS level at which an edge is created.

Ids are implicit: edge 0 is the root edge joining vertices 0 and 1, edge
e (e >= 1) creates vertex e + 1 as its far endpoint, and the children
edges of vertex v occupy the contiguous range starting at 1 + v * q_E, so
edge e >= 1 hangs at vertex (e - 1) // q_E.  A vertex is interior when all
q_E + 1 of its neighbors are materialized, which happens exactly when it
was expanded; the first 2 (q_E^depth - 1) / (q_E - 1) vertices are.
Levels are id ranges too: level 0 is the root edge, and level k is the
next 2 q_E^k ids.  A vertex's label is its distance from vertex 0 mod 2,
which the layout decides: `v_label` reads it off the levels.

The tree stores nothing per edge.  An edge's delta is its gallery
distance to the marked subtree, so the marked edges are the edges at
delta 0, and an edge's children depend on its delta alone.  That child
rule is written once, as the pattern rows (`_pattern_row`): they are the
finite quotient whose universal cover is the tree, and they answer every
question about deltas.  The solver solves them, each reconstruction step
reads one, the audit checks each against identities of the tree, and the
audit and the tree period push the marked class alone out of row 0.

So a pair is refused (ValueError) only for a depth that is no integer >= 0
and by the input contract in `errors`: a q_F that is no prime power, a
vertex count, the largest count it prints, whose bound 3 q_E^depth passes
MAX_PRINTED_BITS, or all levels' counts, a listing past MAX_LISTED_BITS.
Only the id listings count edges, against DEFAULT_EDGE_BUDGET: the
parents, the labels and the automorphisms' lifts.

A cocycle is constant on the levels: one integer numerator per level over
one common denominator.  So the harmonicity, decay and period passes do
integer arithmetic once per level, and build a `Fraction` only for their
results.  The invariant cocycle is constant on the deltas instead; it is
solved by forward substitution on its triangular rows, and rebuilt one
value per class.  Automorphisms are id-indexed lists.
"""

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import mul, ne

from .errors import (MAX_PRINTED_BITS, BudgetError, ModelError, fits, require_int,
                     require_listable, require_prime_power, require_rational, shown)
from .linalg import nullspace

DEFAULT_EDGE_BUDGET = 4_000_000


def _projected_edges(q_E, depth):
    """1 + 2 (q_E + q_E^2 + ... + q_E^depth), the edges down to `depth`."""
    return 1 + 2 * q_E * (q_E**depth - 1) // (q_E - 1)


class TreePair:
    """Truncated (q_E+1)-regular tree with a marked (q_F+1)-regular subtree:
    q_F, the depth and the counts they decide, and nothing per edge."""

    def __init__(self, q_F, depth):
        require_prime_power(q_F)
        require_int(depth, "depth", lo=0)
        if not fits((q_F * q_F, depth), (3, 1)):
            raise ValueError(f"the vertex count can reach 3 q_E^depth, over the cap of "
                             f"{MAX_PRINTED_BITS} bits for a printed int")
        require_listable(q_F * q_F, depth, "the levels", "q_E", "depth")
        self.q_F = q_F
        self.q_E = q_F * q_F
        self.depth = depth
        self.n_edges = _projected_edges(self.q_E, depth)
        self.n_expanded = (self.n_edges - 1) // self.q_E
        self.n_vertices = self.n_edges + 1

    # -- structure accessors -------------------------------------------------

    @cached_property
    def parents(self):
        """Vertex-indexed list of the vertex each one hangs at: None for
        vertex 0, 0 for vertex 1, (v - 2) // q_E for every other v."""
        _require_listable_ids(self)
        return [None, 0, *chain.from_iterable(
            map(repeat, range(self.n_expanded), repeat(self.q_E)))]

    @cached_property
    def v_label(self):
        """Vertex-indexed labels, each vertex's distance from vertex 0 mod 2:
        0 for vertex 0, 1 for vertex 1, and for the vertices that level
        k >= 1 creates, k mod 2 on vertex 0's side (the level's first half)
        and 1 - k mod 2 on vertex 1's side."""
        _require_listable_ids(self)
        labels = [b"\0\1"]
        for k in range(1, self.depth + 1):
            half = len(self.level(k)) // 2
            labels += bytes((k % 2,)) * half, bytes((1 - k % 2,)) * half
        return b"".join(labels)

    def level(self, k):
        """Ids of the edges at gallery distance k from the root edge: edge 0
        for k = 0, the next 2 q_E^k ids for each k >= 1, up to the depth."""
        require_int(k, "k", 0, self.depth)
        return range(_projected_edges(self.q_E, k - 1) if k else 0,
                     _projected_edges(self.q_E, k))


def build_tree_pair(q_F, depth):
    """Build the truncated tree pair for a prime power q_F and a depth >= 1;
    it stores nothing per edge, so no edge budget applies."""
    return TreePair(q_F, require_int(depth, "depth", lo=1))


def _require_listable_ids(tree):
    """Refuse to list ids on a tree of more than DEFAULT_EDGE_BUDGET edges."""
    if tree.n_edges > DEFAULT_EDGE_BUDGET:
        raise BudgetError(f"listing the ids of the tree with q_F={tree.q_F} at depth {tree.depth} "
                          f"takes {tree.n_edges} edges, over budget {DEFAULT_EDGE_BUDGET}",
                          budget=DEFAULT_EDGE_BUDGET)


# ---------------------------------------------------------------------------
# the delta quotient

def _pattern_row(tree, d):
    """The child rule, as the incidence pattern of a vertex hung at an edge
    of delta d: {delta: how many of its edges, the parent edge included,
    are at that delta}.  A marked vertex meets q_F + 1 marked edges and
    q_E - q_F at delta 1; one hung at delta d >= 1 meets q_E at d + 1."""
    q_F, q_E = tree.q_F, tree.q_E
    return {d: 1, d + 1: q_E} if d else {0: q_F + 1, 1: q_E - q_F}


def _pattern_rows(tree):
    """Row d is `_pattern_row(tree, d)`, for each delta d = 0..depth - 1
    that an expanded vertex's parent edge takes."""
    return [_pattern_row(tree, d) for d in range(tree.depth)]


def _marked_census(tree, row):
    """Per level k = 0..depth, its edges at delta 0, pushed out of row 0,
    given as `row`: the root edge, then at each of its two ends and at every
    later marked far end the row's marked edges less the parent edge.  Only
    row 0 has children at delta 0, so the marked class is pushed alone."""
    kids = row.get(0, 0) - 1
    return tuple(islice(chain([1], accumulate(repeat(kids), mul, initial=2 * kids)),
                        tree.depth + 1))


# ---------------------------------------------------------------------------
# cocycles

class EdgeCocycle:
    """Exact rational edge values that depend only on the level, the
    distance to the root edge.

    Stores one integer numerator per level, `nums`, and one positive
    denominator `den`, and nothing per edge: each edge e in `tree.level(k)`
    has the value nums[k] / den on the tree it is read against.  `nums` is
    a sequence, each numerator and the denominator pass `require_int`, and
    the cocycle passes raise ValueError unless the tree has one level per
    numerator.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den=1):
        self.den = require_int(den, "den", lo=1)
        if not isinstance(nums, Sequence):
            raise ValueError(f"nums must be a sequence of integers, got {shown(nums)}")
        self.nums = [require_int(x, f"nums[{k}]") for k, x in enumerate(nums)]


def iwahori_cocycle(tree):
    """The alternating geometric cocycle (-1/q_E)^(distance to the root edge),
    constant on levels, over the common denominator q_E^depth."""
    q_E, depth = tree.q_E, tree.depth
    return EdgeCocycle([(-1) ** k * q_E ** (depth - k) for k in range(depth + 1)],
                       q_E ** depth)


class HarmonicityReport(namedtuple("HarmonicityReport",
                                   "violations interior_checked boundary_skipped")):
    """violations counts the interior vertices the sum fails at."""

    __slots__ = ()

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
    level where it is nonzero counts its 2 q_E^k vertices as violations.
    """
    nums, n, q_E = _level_nums(tree, cocycle), tree.n_expanded, tree.q_E
    violations = sum(2 * q_E**k for k in range(tree.depth)
                     if nums[k] + q_E * nums[k + 1])
    return HarmonicityReport(violations=violations, interior_checked=n,
                             boundary_skipped=tree.n_vertices - n)


def tree_period(tree, cocycle):
    """Partial sums of the cocycle over marked edges, sphere by sphere: a
    sphere's sum is its marked count, `_marked_census` of row 0, times its
    level's numerator."""
    marked = _marked_census(tree, _pattern_row(tree, 0))
    layer_sums = map(mul, _level_nums(tree, cocycle), marked)
    return [Fraction(acc, cocycle.den) for acc in accumulate(layer_sums)]


def decay_check(tree, cocycle):
    """Exact sup over edges of |value| * q_E^(distance to the root edge),
    taken over the levels 0..depth, each of which holds an edge."""
    return Fraction(max(abs(x) * tree.q_E ** k for k, x in
                        enumerate(_level_nums(tree, cocycle))), cocycle.den)


# ---------------------------------------------------------------------------
# the invariant cocycle: solve on delta-classes, then rebuild layer by layer

class InvariantSolution(namedtuple("InvariantSolution", "dimension profile")):
    """The value on delta-class d is profile[d], normalized to profile[0] = 1."""

    __slots__ = ()


def invariant_solver(tree):
    """Solve for cocycles constant on delta-classes, harmonic at interior vertices.

    Builds one linear equation per interior-vertex incidence pattern, a
    vertex's harmonic sum being its row times the profile.  The rows end at
    distinct classes 1..depth (a marked vertex's at 1, an unmarked one's at
    d + 1 for its parent edge's d), so `nullspace` solves them by forward
    substitution: the kernel is the returned profile, 1 on the marked
    edges, or 0.  A kernel of 0 and a class no row ends at are model bugs
    and raise ModelError.
    """
    if tree.depth < 2:
        raise ValueError("need depth >= 2 to constrain every delta class")
    basis = nullspace(_pattern_rows(tree), tree.depth + 1)
    if len(basis) != 1:
        raise ModelError(
            f"invariant space has dimension {len(basis)}, expected 1")
    return InvariantSolution(dimension=1, profile=tuple(basis[0]))


def reconstruct_layer(tree, delta, value):
    """Push a constant class value one delta-step outward.

    Every edge of the class `delta` carries `value`; a delta outside
    0..depth, and a value that is no int or Fraction, is refused with a
    ValueError.  The edges one class further out
    hang at the far ends of those edges (at the marked vertices, for
    delta 0), vertices whose pattern row is `_pattern_row(tree, delta)`.
    There the inner edges carry `value` and the outer edges all carry the
    same value, so harmonicity forces it to minus the inner sum over the
    outer count.  Returns that value as a Fraction, or None at the rim,
    where no class lies further out.
    """
    require_int(delta, "delta", 0, tree.depth)
    require_rational(value, "value")
    if delta == tree.depth:
        return None
    row = _pattern_row(tree, delta)
    return Fraction(-row[delta] * value, row[delta + 1])


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
            raise ValueError(f"vertex id out of range: {shown(bad)}")
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

        # edge v - 1 joins vertex v to its parent, and the images a, b of
        # those two are an edge again when one is the other's parent
        near_images = map(vm.__getitem__, islice(parent, 1, None))
        for e, (a, b) in enumerate(zip(near_images, islice(vm, 1, None))):
            if not (a is None or b is None or parent[b] == a or parent[a] == b):
                raise ValueError(f"vertex map breaks adjacency: edge {e} "
                                 f"maps to non-edge ({a},{b})")


def epsilon_tree(g):
    """Sign of the induced permutation of the two vertex types.

    +1 when the automorphism preserves the bipartition labels, -1 when it
    swaps them on every mapped edge.  A mixed or empty answer is incoherent
    and raises ValueError.
    """
    tree = g.tree
    label, vm = tree.v_label, g.vertex_map
    # the sign of a mapped edge is read at its near endpoint u, the parent
    # of its far one; on a full map every expanded vertex is one, and vertex
    # 0, the root edge's, is one even at depth 0, where none is expanded;
    # otherwise the mapped parents of the mapped vertices
    us = range(max(tree.n_expanded, 1)) if g.full else {
        u for u, image in zip(islice(tree.parents, 1, None), islice(vm, 1, None))
        if image is not None and vm[u] is not None}
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
    _require_listable_ids(tree)
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
    """The automorphism x -> g(h(x)), on the domain where both are defined;
    g and h must act on the same tree, a ValueError otherwise."""
    if (g.tree.q_F, g.tree.depth) != (h.tree.q_F, h.tree.depth):
        raise ValueError(
            f"cannot compose automorphisms of two trees: (q_F, depth) = "
            f"({shown(g.tree.q_F)}, {g.tree.depth}) and "
            f"({shown(h.tree.q_F)}, {h.tree.depth})")
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
    if abs(require_int(steps, "steps")) > tree.depth:
        raise ValueError(f"steps must be in {-tree.depth}..{tree.depth}, got "
                         f"{shown(steps)}: the shift exceeds the materialized axis")
    ends = []
    for k in (steps, steps + 1):
        v = int(k > 0)
        for _ in range(abs(k) - v):
            v = 2 + v * tree.q_E
        ends.append(v)
    return TreeAutomorphism(tree, _lift(tree, *ends))


# ---------------------------------------------------------------------------
# structural invariant audit

class TreeAuditReport(namedtuple("TreeAuditReport",
                                 "problems marked_census ambient_census")):
    """The two censuses are the per-level edge counts, marked and all: the
    marked class pushed out of the audited row 0, and the layout's level
    sizes."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.problems


def check_tree_invariants(tree):
    """Audit the pattern rows, one at a time, against identities that do not
    reuse the child rule (Serre, *Trees*, ch. II §1).

    - a vertex meets q_E + 1 edges, whichever row it has, and a marked one,
      hung at an edge at delta 0, meets q_F + 1 marked edges (the degree
      problems);
    - no row d >= 1 has an edge at delta 0: a marked edge never hangs below
      an unmarked vertex (the connectivity problem);
    - row d's edges lie at deltas d and d + 1, and for d >= 1 the parent
      edge is its only one at d: the distance to a subtree changes by one
      across each panel and grows away from it (the class shape problems);
    - level k >= 1 has 2 q_F^k edges at delta 0, pushed out of row 0, and
      each row has q_E children, its edges less its parent edge, so that
      level k has 2 q_E^k edges (the census problems).

    Problems are listed in that order.  Incidence and the levels are the id
    layout itself, and the labels its distance parity (`v_label`), so they
    need no check.
    """
    q_F, q_E, depth = tree.q_F, tree.q_E, tree.depth
    rows = _pattern_rows(tree)
    marked = _marked_census(tree, rows[0] if rows else {})
    problems = []
    if rows and (n := rows[0].get(0, 0)) != q_F + 1:
        problems.append(f"a marked interior vertex has {n} marked "
                        f"edges, expected {q_F + 1}")
    problems += [f"an interior vertex hung at delta {d} has {n} "
                 f"edges, expected {q_E + 1}"
                 for d, n in enumerate(sum(row.values()) for row in rows)
                 if n != q_E + 1]
    if any(0 in row for row in rows[1:]):
        problems.append("marked subtree is not connected to the root edge")
    problems += [f"an interior vertex hung at delta {d} has edges by delta "
                 f"{dict(sorted(row.items()))}, expected them at {d} and {d + 1}"
                 + (f", its parent edge alone at {d}" if d else "")
                 for d, row in enumerate(rows)
                 if set(row) - {d, d + 1} or d and row.get(d) != 1]
    if marked[1:] != tuple(2 * q_F**k for k in range(1, depth + 1)):
        problems.append("marked sphere census mismatch")
    if any(sum(row.values()) - (d in row) != q_E for d, row in enumerate(rows)):
        problems.append("ambient sphere census mismatch")
    return TreeAuditReport(problems=tuple(problems), marked_census=marked,
                           ambient_census=(1, *(2 * q_E**k for k in range(1, depth + 1))))
