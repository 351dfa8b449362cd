"""Exact rational row reduction: the tests' oracle for `linalg.nullspace`.

The package solves the invariant cocycle's triangular rows by forward
substitution; here any rows are reduced with `Fraction` pivots, and the
kernel gets one basis vector per free column.  The matrices are small, so
no effort is spent on performance.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row-echelon form. Returns (new_rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def nullspace(a_rows, n_cols):
    """Basis of {x : A x = 0}, one vector per free column."""
    m, pivots = rref(a_rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def normalized_kernel(rows, n_cols):
    """The oracle's kernel basis, each vector scaled to first entry 1 when
    it has a nonzero one."""
    return [[x / v[0] for x in v] if v[0] else v
            for v in nullspace(rows, n_cols)]
