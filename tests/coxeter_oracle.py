"""The affine Weyl groups as integer affine maps: the tests' oracle for the
Coxeter matrices that `build_affine_system` reads off Cartan products.

The d+1 generators act on the span of the simple coroots, in the
simple-coroot basis.  The finite simple reflections come straight from the
Cartan matrix, and the affine generator s_0 reflects across the wall of the
highest root theta shifted by one, so its translation part is the highest
coroot, whose coordinates are the comarks.  Everything is rebuilt from the
package's `_dynkin` and `_positive_roots` alone, independently of the affine
Cartan matrix.
"""

import functools

from buildingkit import coxeter
from buildingkit.errors import ModelError

# every supported type: A1-A9, B3-B9, C2-C9, D4-D9, E6-E8, F4, G2
ALL_TYPES = ([("A", d) for d in range(1, 10)] + [("B", d) for d in range(3, 10)]
             + [("C", d) for d in range(2, 10)] + [("D", d) for d in range(4, 10)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


class AffineMap:
    """Integer affine transformation x -> M x + v; immutable and hashable."""

    __slots__ = ("matrix", "shift")

    def __init__(self, matrix, shift):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.shift = tuple(shift)

    def __mul__(self, other):
        # composition: (self * other)(x) = self(other(x))
        m, v = self.matrix, self.shift
        om, ov = other.matrix, other.shift
        n = len(v)
        new_m = tuple(
            tuple(sum(m[i][k] * om[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        new_v = tuple(sum(m[i][k] * ov[k] for k in range(n)) + v[i] for i in range(n))
        return AffineMap(new_m, new_v)

    def is_identity(self):
        n = len(self.shift)
        return (all(v == 0 for v in self.shift)
                and all(self.matrix[i][j] == (1 if i == j else 0)
                        for i in range(n) for j in range(n)))

    def __eq__(self, other):
        return (isinstance(other, AffineMap)
                and self.matrix == other.matrix and self.shift == other.shift)

    def __hash__(self):
        return hash((self.matrix, self.shift))


def transformation_order(t, cap=6):
    """Exact order of t, or INFINITE_ORDER if it exceeds cap.

    Finite dihedral orders in an affine Coxeter system are at most 6, so any
    pair product that survives the cap is genuinely infinite.
    """
    p = t
    for k in range(1, cap + 1):
        if p.is_identity():
            return k
        p = p * t
    return coxeter.INFINITE_ORDER


@functools.cache
def certified_generators(family, rank):
    """The generators s_0..s_d of the affine system, checked against its
    Coxeter matrix: each is an involution and each pair product has the
    order the matrix records, or ModelError is raised."""
    d = rank
    cartan, norms = coxeter._dynkin(family, d)
    theta = max(coxeter._positive_roots(cartan), key=sum)
    t_row = [sum(theta[j] * cartan[j][k] for j in range(d)) for k in range(d)]
    c = [theta[j] * norms[j] // max(norms) for j in range(d)]
    gens = [AffineMap([[(j == k) - c[j] * t_row[k] for k in range(d)]
                       for j in range(d)], c)]
    for i in range(d):
        gens.append(AffineMap([[(j == k) - (cartan[i][k] if j == i else 0)
                                for k in range(d)] for j in range(d)], [0] * d))

    m = coxeter.build_affine_system(family, rank).coxeter_matrix
    for i in range(d + 1):
        if not (gens[i] * gens[i]).is_identity():
            raise ModelError(f"generator {i} is not an involution")
        for j in range(i + 1, d + 1):
            got = transformation_order(gens[i] * gens[j])
            if got != m[i][j]:
                raise ModelError(
                    f"pair ({i},{j}) has order {got}, Coxeter matrix says {m[i][j]}")
    return tuple(gens)


def comarks(family, rank):
    """The comarks c_1..c_d, the coordinates of the highest coroot: the
    translation part of s_0."""
    return certified_generators(family, rank)[0].shift
