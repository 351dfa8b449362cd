"""Translations along the canonical axis through the root edge: a family of
partial tree automorphisms that move the root edge off itself, the tests'
fixed maps for `TreeAutomorphism`, `epsilon_tree` and `compose` beside the
package's lifts, which all send the root edge onto itself.

A translation is the lift of the root edge to another edge, which holds
only as far as its images are materialized, so the maps are partial.  No
effort is spent on performance.
"""

from buildingkit import tree
from buildingkit.errors import require_int, shown


def lift(pair, a, b):
    """Vertex map that sends the root edge (0, 1) to the edge (a, b).

    Then, for each expanded vertex v in creation order whose image w is
    expanded too, v's children go to w's neighbors other than the image of
    v's parent side, in id order.  When that image is a child of w, it
    leaves w's child block and w's parent side goes first.  The map is
    partial where images run past the boundary.
    """
    tree._require_listable_ids(pair)
    q_E, n_expanded = pair.q_E, pair.n_expanded
    vmap = [None] * pair.n_vertices
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
        vmap[2 + v * q_E:2 + (v + 1) * q_E] = block
    return vmap


def translation_automorphism(pair, steps):
    """Partial automorphism shifting the canonical axis through the root edge.

    The axis follows first children on both sides of the root edge: place 0
    is vertex 0, place 1 is vertex 1, place k > 1 lies k - 1 first children
    below vertex 1 and place -k lies k first children below vertex 0.  A
    shift by `steps` lifts the root edge to the places `steps` and
    `steps + 1`, so every axis vertex moves that many places toward the
    positive end, and hanging subtrees follow by creation order as far as
    their images are materialized.  Odd shifts swap the two vertex labels.
    """
    if abs(require_int(steps, "steps")) > pair.depth:
        raise ValueError(f"steps must be in {-pair.depth}..{pair.depth}, got "
                         f"{shown(steps)}: the shift exceeds the materialized axis")
    ends = []
    for k in (steps, steps + 1):
        v = int(k > 0)
        for _ in range(abs(k) - v):
            v = 2 + v * pair.q_E
        ends.append(v)
    return tree.TreeAutomorphism(pair, lift(pair, *ends))
