"""The census of the delta quotient, every class of every level, and the
audit that once read it: the tests' oracle for `check_tree_invariants`,
which checks the pattern rows themselves, and for the marked class that it
and `tree_period` push alone.

The census is pushed out of the pattern rows one level at a time.  It holds
O(depth^2) entries where the package needs two counts per level, and it
reaches a row for every delta it meets, so damaged rows can send it past
the last row (IndexError).  No effort is spent on performance.
"""

from buildingkit import tree


def census(pair, rows=None):
    """Yield, per level k = 0..depth, {delta: number of level k's edges at
    that delta}, nonzero entries only, pushed out of `rows`, the pair's
    pattern rows by default.

    Level 0 is the marked root edge, whose two ends both carry children;
    every later edge has one far end.  A vertex hung at an edge of delta d
    has the edges of its row as children, less its parent edge.
    """
    rows = tree._pattern_rows(pair) if rows is None else rows
    kids = [[(c, a - (c == d)) for c, a in row.items() if a - (c == d)]
            for d, row in enumerate(rows)]
    yield {0: 1}
    ends = {0: 2}  # the two ends of the root edge
    for _ in range(pair.depth):
        level = {}
        for d, n in ends.items():
            for c, a in kids[d]:
                level[c] = level[c] + n * a if c in level else n * a
        yield level
        ends = level


def audit(pair, rows=None):
    """The audit that read the census: its problems, in its order, and the
    marked and ambient counts per level of the census pushed out of `rows`,
    the pair's pattern rows by default, as a `tree.TreeAuditReport`.

    - a vertex meets q_E + 1 edges, and a marked one q_F + 1 marked edges;
    - the root edge is at delta 0;
    - level k >= 1 has 2 q_F^k edges at delta 0 and 2 q_E^k in all.
    """
    q_F, q_E, depth = pair.q_F, pair.q_E, pair.depth
    rows = tree._pattern_rows(pair) if rows is None else rows
    marked, ambient = zip(*((level.get(0, 0), sum(level.values()))
                            for level in census(pair, rows)))
    problems = []
    if rows and (n := rows[0].get(0, 0)) != q_F + 1:
        problems.append(f"a marked interior vertex has {n} marked "
                        f"edges, expected {q_F + 1}")
    problems += [f"an interior vertex hung at delta {d} has {n} "
                 f"edges, expected {q_E + 1}"
                 for d, n in enumerate(sum(row.values()) for row in rows)
                 if n != q_E + 1]
    if not marked[0]:
        problems.append("marked subtree is not connected to the root edge")
    if marked[1:] != tuple(2 * q_F**k for k in range(1, depth + 1)):
        problems.append("marked sphere census mismatch")
    if ambient != (1, *(2 * q_E**k for k in range(1, depth + 1))):
        problems.append("ambient sphere census mismatch")
    return tree.TreeAuditReport(problems=tuple(problems), marked_census=marked,
                                ambient_census=ambient)


def changed_rows(rows, depth):
    """Every row set that differs from `rows` in one row, by one of: a
    class's count moved by -1, +1 or +2; a class in 0..depth + 1 that the
    row lacks added with 1 or 2 edges; one edge moved from a class of the
    row to any other class in 0..depth + 1.  A class left with no edges
    leaves the row, so rows keep nonzero entries only, as the package's do."""
    classes = range(depth + 2)
    for d, row in enumerate(rows):
        changed = [{**row, c: a + step} for c, a in row.items() for step in (-1, 1, 2)]
        changed += [{**row, c: a} for c in classes if c not in row for a in (1, 2)]
        changed += [{**row, c: row[c] - 1, b: row.get(b, 0) + 1}
                    for c in row for b in classes if b != c]
        for new in changed:
            yield [*rows[:d], {c: a for c, a in new.items() if a}, *rows[d + 1:]]
