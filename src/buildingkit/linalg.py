"""The invariant cocycle's kernel, solved by forward substitution.

`nullspace` is the one solve of the tree layer's invariant-cocycle solver.
Its rows are mappings {column: nonzero coefficient} and triangular, so it
substitutes instead of reducing; general row reduction is the tests'
oracle.  The module and `nullspace` keep their names only because the
benchmark (perfbench/tracing.py) times them by name; they move into
`tree.py` when that tracer is next edited.
"""

from fractions import Fraction

from .errors import ModelError


def nullspace(rows, n_cols):
    """The kernel {x : row . x = 0 for every row} of integer rows, each a
    mapping {column: nonzero coefficient} on columns 0..n_cols - 1: `[x]`
    with x[0] = 1 when it is a line, `[]` when it is 0.

    For each column k in 1..n_cols - 1 the first row whose last column is
    k is chosen, or ModelError names a column no row ends at.  The chosen
    rows are triangular with nonzero diagonal entries, so their rank is
    n_cols - 1 and their kernel is the line through the x that
    substitution solves from x[0] = 1, column by column.  The full kernel
    lies in that line: it is the line if x meets every row, and 0
    otherwise.  So the kernel never has a second basis vector, and never a
    vector with a vanishing first entry.  Both passes visit each row's
    entries once, so the work is proportional to the entries the rows hold.
    """
    ends = {max(row, default=0): row for row in reversed(rows)}
    x = [Fraction(1)]
    for k in range(1, n_cols):
        if k not in ends:
            raise ModelError(f"no row ends at column {k}")
        row = ends[k]
        x.append(Fraction(-sum(a * x[c] for c, a in row.items() if c != k),
                          row[k]))
    return [] if any(sum(a * x[c] for c, a in row.items()) for row in rows) else [x]
