"""Irreducible affine Coxeter systems, built and enumerated in integers.

A system of family X and rank d is built from the Cartan matrix of its Dynkin
diagram, with integers only: the positive roots, the highest root and its
coroot are integer vectors over the simple roots and coroots.  The affine
Cartan matrix adds the node alpha_0 = delta - theta for the highest root
theta, and the Coxeter matrix is read off its products: a_ij a_ji = 0, 1, 2, 3
or 4 gives m_ij = 2, 3, 4, 6 or infinity, since the Weyl group of a Cartan
matrix is a Coxeter group (Kac, Infinite Dimensional Lie Algebras, Prop. 3.13).
No group element is ever formed; the tests realize the generators as integer
affine maps and check every pair order against that matrix.

The exponents come from the heights of the positive roots (Kostant) and the
affine growth series from Bott's formula over them.  The `growth` command and
`poincare_finite` count the same groups by walking orbits, as the oracles
both are tested against.  A point x is stored by its integer coordinates
y_i = h * alpha_i(x) for i = 0..d, where alpha_0(x) = 1 - theta(x) and
h = ht(theta) + 1.  The generator s_i maps y to
y - y_i * (column i of the affine Cartan matrix), and it lengthens the
element exactly when y_i > 0 (the numbers game).  Walked from a point whose
zero coordinates are the nodes J, the k-th layer holds the cosets w W_J whose
minimal representative w has length k (Bjorner-Brenti, Combinatorics of
Coxeter Groups, ch. 4), and W(t) = W_J(t) W^J(t) (Humphreys, Reflection
Groups and Coxeter Groups, 1.10-1.11).  So the finite group's series is the
product of the walks of the chain W_{1} < W_{1,2} < ... < W, and the affine
series that product times the walk from the special vertex x = 0, at
y = e_0, whose stabilizer is the finite group: E8 walks 356 points for its
finite group and 3,382 for the affine series at K = 60.  From x0 =
rho^vee / h inside the fundamental alcove, at y = (1, ..., 1), the walk lists
the group itself, one element per point; the tests keep it as the oracle.
Only `growth_coefficients` takes an element budget, which still counts
group elements, not points walked.

Numbering: node 0 is always the affine node, nodes 1..d carry the Bourbaki
numbering of the finite diagram.  Coxeter matrices store the order of
s_i s_j, with 0 encoding an infinite order (only family A at rank 1 has one).

Instances are immutable; all operations are deterministic and safe to share
across threads.
"""

import functools
import itertools
import operator
from collections import Counter, namedtuple

from .errors import (MAX_LISTED_BITS, BudgetError, InvalidTypeError, ModelError,
                     require_int, shown)

INFINITE_ORDER = 0

DEFAULT_ELEMENT_BUDGET = 2_000_000

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# The tests certify the pair orders of every type that _check_type accepts
# and fail if one is missing from their list, so raising this cap is checked
MAX_RANK = 9


def _check_type(family, rank):
    """Refuse an unknown family or a rank outside its range (InvalidTypeError),
    and a rank that breaks `require_int` (its ValueError)."""
    if family not in FAMILIES:
        raise InvalidTypeError(f"unknown family {shown(family)}; expected one of {FAMILIES}")
    require_int(rank, "rank")
    fixed = {"E": (6, 7, 8), "F": (4,), "G": (2,)}
    minimum = {"A": 1, "B": 3, "C": 2, "D": 4}
    if family in fixed:
        if rank not in fixed[family]:
            raise InvalidTypeError(f"family {family} requires rank in {fixed[family]}, got {shown(rank)}")
    elif rank < minimum[family]:
        hint = " (rank 2 is family C)" if family == "B" else ""
        raise InvalidTypeError(f"family {family} requires rank >= {minimum[family]}{hint}, got {shown(rank)}")
    elif rank > MAX_RANK:
        raise InvalidTypeError(f"rank is capped at {MAX_RANK}, got {shown(rank)}")


# ---------------------------------------------------------------------------
# the finite root system, in integer coordinates over the simple roots

def _dynkin(family, d):
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> and squared root lengths.

    Bourbaki numbering, 0-indexed: a chain 0-1-...-(d-1), except that in D the
    last node hangs off node d-3 and in E the edges are 0-2, 1-3, 2-3, 3-4, ...
    """
    if family == "D":
        edges = [(i, i + 1) for i in range(d - 2)] + [(d - 3, d - 1)]
    elif family == "E":
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, d - 1)]
    else:
        edges = [(i, i + 1) for i in range(d - 1)]
    norms = {"B": [2] * (d - 1) + [1], "C": [1] * (d - 1) + [2],
             "F": [2, 2, 1, 1], "G": [1, 3]}.get(family, [1] * d)
    a = [[2 * int(i == j) for j in range(d)] for i in range(d)]
    for i, j in edges:
        top = max(norms[i], norms[j])
        a[i][j] = -(top // norms[j])
        a[j][i] = -(top // norms[i])
    return a, norms


def _positive_roots(cartan):
    """The set of positive roots, as coefficient vectors over the simple roots.

    The simple reflection s_i(b) = b - <b, alpha_i^vee> alpha_i permutes the
    positive roots other than alpha_i, so closing the simple roots under the
    s_i and keeping the images without a negative coefficient yields them all.
    """
    d = len(cartan)
    simple = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    roots = set(simple)
    frontier = simple
    while frontier:
        new = []
        for b in frontier:
            for i in range(d):
                pairing = sum(b[j] * cartan[j][i] for j in range(d))
                img = b[:i] + (b[i] - pairing,) + b[i + 1:]
                if min(img) >= 0 and img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return roots


# ---------------------------------------------------------------------------
# system construction

class CoxeterSystem(namedtuple("CoxeterSystem", "family rank coxeter_matrix "
                               "cartan_matrix n_positive_roots exponents")):
    """An affine Coxeter system, as its integer Cartan data.

    coxeter_matrix is the (rank+1) square matrix of pair orders, index 0 the
    affine node, with 0 encoding infinity.  cartan_matrix is the affine
    Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> in the same numbering.
    exponents lists the exponents m_1 <= ... <= m_rank of the finite part.
    """

    __slots__ = ()


class GrowthSeries(namedtuple("GrowthSeries",
                              "family rank truncation coefficients source")):
    """Sphere sizes a_k of the Cayley graph, a_k = #{w : length(w) = k}."""

    __slots__ = ()


def build_affine_system(family, rank):
    """Construct the affine system of the given family and rank.

    Raises ModelError unless the highest root is unique, its coroot is
    integral, the finite diagram is connected and the root heights give
    rank exponents; the Coxeter matrix comes from the affine Cartan products.
    The arguments are checked before the cache sees them.
    """
    _check_type(family, rank)
    return _build_affine_system(family, rank)


@functools.cache
def _build_affine_system(family, rank):
    d = rank
    cartan, norms = _dynkin(family, d)
    roots = _positive_roots(cartan)
    top = max(map(sum, roots))
    highest = [r for r in roots if sum(r) == top]
    if len(highest) != 1:
        raise ModelError(f"highest root of {family}{rank} is not unique")
    theta = highest[0]

    # pairings of the highest root against the simple coroots, the coordinates
    # of its coroot in the simple-coroot basis (theta is long, so its squared
    # length is max(norms)), and the simple roots against that coroot
    t_row = [sum(theta[j] * cartan[j][k] for j in range(d)) for k in range(d)]
    c = []
    for j in range(d):
        coef, rem = divmod(theta[j] * norms[j], max(norms))
        if rem:
            raise ModelError(f"highest coroot of {family}{rank} is not integral")
        c.append(coef)
    theta_on_coroot = [sum(cartan[j][k] * c[k] for k in range(d)) for j in range(d)]
    # affine Cartan matrix: alpha_0 = delta - theta pairs as minus theta
    affine = ([[2] + [-t for t in t_row]]
              + [[-theta_on_coroot[j]] + cartan[j] for j in range(d)])

    # Coxeter matrix from affine Cartan products, 0/1/2/3 -> 2/3/4/6, 4 -> infinite
    order_of_product = {0: 2, 1: 3, 2: 4, 3: 6, 4: INFINITE_ORDER}
    m = [[1 if i == j else order_of_product[affine[i][j] * affine[j][i]]
          for j in range(d + 1)] for i in range(d + 1)]

    # the finite diagram must be connected (irreducible root system)
    seen = {1}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in range(1, d + 1):
            if j not in seen and m[i][j] > 2:
                seen.add(j)
                stack.append(j)
    if len(seen) != d:
        raise ModelError("finite diagram is not connected")

    # exponent m occurs n_m - n_{m+1} times, n_h counting the positive roots
    # of height h (Kostant)
    n_height = Counter(map(sum, roots))
    exps = tuple(m for m in range(1, top + 1)
                 for _ in range(n_height[m] - n_height[m + 1]))
    if len(exps) != d or sum(exps) != len(roots):
        raise ModelError(f"root heights of {family}{rank} give exponents {exps}")

    return CoxeterSystem(
        family=family,
        rank=rank,
        coxeter_matrix=tuple(tuple(row) for row in m),
        cartan_matrix=tuple(tuple(row) for row in affine),
        n_positive_roots=len(roots),
        exponents=exps,
    )


# ---------------------------------------------------------------------------
# enumeration

def _sphere_sizes(cartan, nodes, start):
    """Yield the sizes of the layers 0, 1, 2, ... of the walk from `start`.

    `cartan` is a Cartan matrix, `nodes` the generators s_i that may move and
    `start` a point with y_i >= 0 at every moving node.  Layer k+1 is every
    point s_i(y) for y in layer k with y_i > 0 (the numbers game), so the
    walk lists each coset w W_J of the stabilizer W_J of `start`, J the
    moving nodes where it is 0, once: in the layer of the length of its
    minimal representative w.  Each layer is walked only when its size is
    asked for, only the current one is kept, and the walk ends after the last
    nonempty layer.
    """
    moves = [(i, [(j, row[i]) for j, row in enumerate(cartan) if j != i and row[i]])
             for i in nodes]
    layer = {tuple(start)}
    while layer:
        yield len(layer)
        nxt = set()
        for y in layer:
            for i, column in moves:
                y_i = y[i]
                if y_i > 0:
                    z = list(y)
                    z[i] = -y_i
                    for j, a_ji in column:
                        z[j] -= y_i * a_ji
                    nxt.add(tuple(z))
        layer = nxt


def _times(poly, sizes):
    """Yield the coefficients of poly times the series `sizes`, one for each
    size, each as soon as that size is known."""
    seen = []
    for size in sizes:
        seen.append(size)
        yield sum(map(operator.mul, poly, reversed(seen)))


def _basis_point(system, node):
    return tuple(int(i == node) for i in range(system.rank + 1))


def _finite_series(system):
    """Length polynomial of the finite group W = <s_1..s_d>.

    It is the product over m = 1..d of the coset walks of
    W_{1..m-1} < W_{1..m}: step m walks the nodes 1..m from the point e_m
    whose only nonzero coordinate is node m, whose stabilizer among them is
    W_{1..m-1}.  Raises ModelError unless its degree, the length of the
    longest element, is the number of positive roots.
    """
    poly = [1]
    for m in range(1, system.rank + 1):
        walk = _sphere_sizes(system.cartan_matrix, range(1, m + 1),
                             _basis_point(system, m))
        # padded with zeros so that the product keeps its full degree
        poly = list(_times(poly, itertools.chain(walk, [0] * (len(poly) - 1))))
    if len(poly) - 1 != system.n_positive_roots:
        raise ModelError(
            f"top degree {len(poly) - 1} != positive root count "
            f"{system.n_positive_roots} for {system.family}{system.rank}")
    return poly


def growth_coefficients(system, truncation, budget=DEFAULT_ELEMENT_BUDGET):
    """Sphere sizes a_0..a_K of the affine Cayley graph, by coset walks.

    W(t) = W_0(t) C(t): W_0 is the finite group, whose length polynomial
    comes from the coset walks of `_finite_series`, and C(t) counts the
    cosets w W_0 by the length of their minimal representative, walked from
    the special vertex e_0 over all d + 1 nodes and truncated at K (see the
    module docstring).  The budget counts group elements, the running sum
    of the a_k, not points walked: the affine walk stops at the first layer
    k >= 1 that takes it past `budget`, and a BudgetError is raised that
    names k - 1, the number of complete layers, and carries a_0..a_(k-1).
    """
    require_int(truncation, "truncation", lo=0)
    require_int(budget, "budget", lo=1)
    walk = _sphere_sizes(system.cartan_matrix, range(system.rank + 1),
                         _basis_point(system, 0))
    coeffs, total = [], 0
    # zip with a range, as islice takes no stop past sys.maxsize: the budget
    # stops a walk that long
    layers = (a for _, a in zip(range(truncation + 1), walk))
    for k, a in enumerate(_times(_finite_series(system), layers)):
        total += a
        if k and total > budget:
            raise BudgetError(
                f"enumeration budget {budget} exceeded after {k - 1} complete layers",
                partial_coefficients=coeffs, budget=budget)
        coeffs.append(a)
    return GrowthSeries(
        family=system.family, rank=system.rank, truncation=truncation,
        coefficients=tuple(coeffs), source="enumerated")


def growth_from_exponents(system, truncation):
    """Sphere sizes a_0..a_K from Bott's formula, expanded in integers.

    Over the exponents it is prod_i (1 - t^(m_i+1)) / ((1 - t)(1 - t^(m_i))).
    K is capped below MAX_LISTED_BITS, as the K + 1 coefficients take at
    least K + 1 bits.
    """
    require_int(truncation, "truncation", 0, MAX_LISTED_BITS - 1)
    coeffs = [1] + [0] * truncation
    for m in system.exponents:
        for k in range(truncation, m, -1):  # times 1 - t^(m+1)
            coeffs[k] -= coeffs[k - m - 1]
        for k in range(1, truncation + 1):  # over 1 - t
            coeffs[k] += coeffs[k - 1]
        for k in range(m, truncation + 1):  # over 1 - t^m
            coeffs[k] += coeffs[k - m]
    return GrowthSeries(
        family=system.family, rank=system.rank, truncation=truncation,
        coefficients=tuple(coeffs), source="closed-form")


def poincare_finite(family, rank):
    """Length generating polynomial of the finite group <s_1..s_d>.

    Returns the tuple of coefficients by degree, the product of the coset
    walks of `_finite_series`.  It takes no budget: E8 walks 356 points for
    its 696,729,600 elements.  This is the oracle for the exponents and the
    period closed form; no other function calls it.
    """
    return tuple(_finite_series(build_affine_system(family, rank)))


def exponents(family, rank):
    """Exponents m_1 <= ... <= m_d of the finite Weyl group, from root heights.

    The finite length polynomial is prod_i (1 + t + ... + t^{m_i}).
    """
    return list(build_affine_system(family, rank).exponents)


# ---------------------------------------------------------------------------
# the finite abelian group Omega of affine-diagram rotations

class OmegaElement(namedtuple("OmegaElement", "perm")):
    """A diagram automorphism, stored as a permutation of the nodes 0..d."""

    __slots__ = ()

    def __mul__(self, other):
        return OmegaElement(tuple(self.perm[p] for p in other.perm))


def _omega_generators(family, d):
    """Generators of Omega, as permutations of the nodes 0..d."""
    n = d + 1
    flip = tuple(d - i for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    if family == "A":
        return [tuple((i + 1) % n for i in range(n))]
    if family == "B":
        return [swap]
    if family == "C":
        return [flip]
    if family == "D":
        if d % 2 == 0:
            return [swap[:d - 1] + (d, d - 1), flip]  # kappa swaps both ends
        sigma = [d - i for i in range(n)]  # middle nodes flip
        sigma[0], sigma[d - 1], sigma[1], sigma[d] = d - 1, 1, d, 0
        return [tuple(sigma)]
    if family == "E" and d == 6:
        return [(1, 6, 3, 5, 4, 2, 0)]  # rotate the three arms around node 4
    if family == "E" and d == 7:
        return [(7, 6, 2, 5, 4, 3, 1, 0)]
    return []


def omega_group(family, rank):
    """The abelian group of affine-diagram rotations, as node permutations.

    Each generator is checked to be a permutation that preserves the Coxeter
    matrix, so every product of them preserves it too.  The group is their
    closure under composition, checked to be commutative.
    """
    system = build_affine_system(family, rank)
    m = system.coxeter_matrix
    n = rank + 1
    gens = [OmegaElement(p) for p in _omega_generators(family, rank)]
    for g in gens:
        p = g.perm
        if sorted(p) != list(range(n)):
            raise ModelError(f"Omega generator {p} is not a permutation")
        if any(m[p[i]][p[j]] != m[i][j] for i in range(n) for j in range(n)):
            raise ModelError(
                f"Omega generator {p} does not preserve the Coxeter matrix "
                f"of {family}{rank}")
    elements = [OmegaElement(tuple(range(n)))]
    seen = {elements[0].perm}
    for el in elements:  # the list grows while it is walked
        for g in gens:
            h = g * el
            if h.perm not in seen:
                seen.add(h.perm)
                elements.append(h)
    for a in elements:
        for b in elements:
            if (a * b).perm != (b * a).perm:
                raise ModelError(f"Omega of {family}{rank} is not abelian")
    return elements


def epsilon_of_omega(omega):
    """Sign character: the signature of the node permutation, (-1) to the
    number of its inversions (pairs of nodes it puts out of order), since
    each transposition of adjacent entries changes that number by one."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(omega.perm, 2))
