"""The invariant cocycle's kernel, solved by forward substitution.

`nullspace` is the one solve of the tree layer's invariant-cocycle solver.
Its rows are triangular, so it substitutes instead of reducing; general row
reduction is the tests' oracle.  The module and `nullspace` keep their
names only because the benchmark (perfbench/tracing.py) times them by name;
they move into `tree.py` when that tracer is next edited.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import ModelError


def nullspace(rows, n_cols):
    """The kernel {x : row . x = 0 for every row} of integer rows of length
    n_cols: `[x]` with x[0] = 1 when it is a line, `[]` when it is 0.

    For each column k in 1..n_cols - 1 the first row whose last nonzero
    column is k is chosen, or ModelError names a column no row ends at.
    The chosen rows are triangular with nonzero diagonal entries, so their
    rank is n_cols - 1 and their kernel is the line through the x that
    substitution solves from x[0] = 1, column by column.  The full kernel
    lies in that line: it is the line if x meets every row, and 0
    otherwise.  So the kernel never has a second basis vector, and never a
    vector with a vanishing first entry.
    """
    ends = {}
    for row in rows:
        ends.setdefault(max((c for c, a in enumerate(row) if a), default=0), row)
    x = [Fraction(1)]
    for k in range(1, n_cols):
        if k not in ends:
            raise ModelError(f"no row ends at column {k}")
        row = ends[k]
        x.append(-sum(map(mul, row[:k], x)) / row[k])
    return [] if any(sum(map(mul, row, x)) for row in rows) else [x]
