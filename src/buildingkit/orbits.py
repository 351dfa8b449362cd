"""Finite-field pair arithmetic and brute-force orbit closures on k_E minus k_F.

The pair is k_F = F_p[x]/(m_base) with q = p^n elements inside its quadratic
extension k_E = k_F[y]/(m_ext), so the extension has q^2 elements.  Base
elements are integers 0..q-1 encoding coefficient vectors in base p (a_0 is
the least significant digit); extension elements are integers u + q*v
encoding u + v*y, so the base field embeds as the integers below q.

Canonical choices are always the least option: moduli by lexicographic order
with the constant coefficient compared first, element picks and orbit
representatives by the integer encoding.

The orbit checks act on the q^2 - q labels x in k_E minus k_F.  The first
move family is x -> a^2 x + b with a, b in the base field, a nonzero.  The
second, available in odd characteristic only, is x -> 1/(a^2 x c + b) where
c is the inverse square of a fixed x_0 outside the base field with x_0^2
inside it; an inversion move is applied only where the denominator is
nonzero and the image stays outside the base field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ModelError

MAX_Q = 16


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return out


def _poly_rem(f, m, p):
    """Remainder of f modulo the monic polynomial m, over F_p."""
    f = list(f)
    dm = len(m) - 1
    while len(f) < dm:
        f.append(0)
    for i in range(len(f) - 1, dm - 1, -1):
        c = f[i]
        if c:
            f[i] = 0
            for j in range(dm):
                f[i - dm + j] = (f[i - dm + j] - c * m[j]) % p
    return tuple(f[:dm])


def _monic_polys(degree, p):
    """All monic degree-d polynomials, constant coefficient most significant."""
    for coeffs in itertools.product(range(p), repeat=degree):
        yield coeffs + (1,)


def _is_irreducible(m, p):
    degree = len(m) - 1
    if degree == 1:
        return True
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_rem(m, g, p)):
                return False
    return True


class FiniteFieldPair:
    """k_F of size q = p^n inside k_E of size q^2, with exact lookup tables."""

    def __init__(self, p, n):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if not 1 <= n <= 4:
            raise ValueError(f"n must be in 1..4, got {n}")
        q = p ** n
        if q > MAX_Q:
            raise ValueError(f"q = p^n must be <= {MAX_Q}, got {q}")
        self.p = p
        self.n = n
        self.q = q
        self.q_ext = q * q
        self.modulus_base = next(m for m in _monic_polys(n, p)
                                 if _is_irreducible(m, p))
        self._init_base_tables()
        self.modulus_ext = self._find_ext_modulus()
        self._init_ext_tables()
        self._check_frobenius()

    # -- base field -----------------------------------------------------------

    def _digits(self, e):
        return tuple((e // self.p ** i) % self.p for i in range(self.n))

    def _undigits(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def _init_base_tables(self):
        p, q, m = self.p, self.q, self.modulus_base
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for e1 in range(q):
            d1 = self._digits(e1)
            for e2 in range(q):
                d2 = self._digits(e2)
                add[e1][e2] = self._undigits(
                    tuple((a + b) % p for a, b in zip(d1, d2)))
                mul[e1][e2] = self._undigits(_poly_rem(_poly_mul(d1, d2, p), m, p))
        self._badd = add
        self._bmul = mul
        self._bneg = [add[e].index(0) for e in range(q)]
        self._binv = [None] + [mul[e].index(1) for e in range(1, q)]
        self._squares = {mul[e][e] for e in range(1, q)}

    def base_add(self, a, b):
        return self._badd[a][b]

    def base_mul(self, a, b):
        return self._bmul[a][b]

    def base_inv(self, a):
        if a == 0:
            raise ModelError("0 has no inverse in the base field")
        return self._binv[a]

    def is_square_base(self, a):
        """True when a is a nonzero square in the base field."""
        return a in self._squares

    def base_elements(self):
        return range(self.q)

    def base_units(self):
        return range(1, self.q)

    # -- quadratic extension ----------------------------------------------------

    def _find_ext_modulus(self):
        # y^2 + b*y + c irreducible over k_F iff it has no base-field root
        for c in range(self.q):
            for b in range(self.q):
                if all(self._badd[self._badd[self._bmul[t][t]][self._bmul[b][t]]][c]
                       for t in range(self.q)):
                    return (c, b, 1)
        raise ModelError("no irreducible quadratic over the base field")

    def _init_ext_tables(self):
        c, b, _ = self.modulus_ext
        self._ext_neg_c = self._bneg[c]
        self._ext_neg_b = self._bneg[b]
        inv = [None] * self.q_ext
        for z in range(1, self.q_ext):
            if inv[z] is None:
                w = next(w for w in range(1, self.q_ext) if self.mul(z, w) == 1)
                inv[z] = w
                inv[w] = z
        self._einv = inv

    def add(self, z1, z2):
        q = self.q
        return (self._badd[z1 % q][z2 % q]
                + q * self._badd[z1 // q][z2 // q])

    def neg(self, z):
        q = self.q
        return self._bneg[z % q] + q * self._bneg[z // q]

    def sub(self, z1, z2):
        return self.add(z1, self.neg(z2))

    def mul(self, z1, z2):
        # y^2 reduces to -b*y - c
        q = self.q
        u1, v1 = z1 % q, z1 // q
        u2, v2 = z2 % q, z2 // q
        bm, ba = self._bmul, self._badd
        vv = bm[v1][v2]
        u = ba[bm[u1][u2]][bm[vv][self._ext_neg_c]]
        v = ba[ba[bm[u1][v2]][bm[u2][v1]]][bm[vv][self._ext_neg_b]]
        return u + q * v

    def inv(self, z):
        if z == 0:
            raise ModelError("0 has no inverse in the extension field")
        return self._einv[z]

    def power(self, z, k):
        out = 1
        base = z
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def in_base(self, z):
        return z < self.q

    def frobenius(self, z):
        return self.power(z, self.q)

    def nonbase_elements(self):
        return range(self.q, self.q_ext)

    def _check_frobenius(self):
        # the base field must be exactly the fixed points of z -> z^q
        for z in range(self.q_ext):
            if (self.frobenius(z) == z) != self.in_base(z):
                raise ModelError(
                    f"Frobenius fixed points differ from the base field at {z}")

    def poly_str(self, coeffs, var):
        terms = []
        for i in range(len(coeffs) - 1, -1, -1):
            a = coeffs[i]
            if not a:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                head = "" if a == 1 else f"{a}*"
                terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
        return " + ".join(terms) if terms else "0"

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "q_ext": self.q_ext,
            "modulus_base": list(self.modulus_base),
            "modulus_ext": list(self.modulus_ext),
        }


def build_fields(p, n):
    """Deterministic field pair for q = p^n; exact tables, q capped at 16."""
    return FiniteFieldPair(p, n)


# ---------------------------------------------------------------------------
# orbit closures

@dataclass(frozen=True)
class OrbitReport:
    q: int
    moves: str
    orbit_count: int
    orbit_sizes: tuple
    representatives: tuple

    def __post_init__(self):
        if sum(self.orbit_sizes) != self.q * self.q - self.q:
            raise ModelError("orbit sizes do not add up to q^2 - q")
        if not len(self.orbit_sizes) == self.orbit_count == len(self.representatives):
            raise ModelError("orbit count, sizes and representatives disagree")

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "q": self.q,
            "moves": self.moves,
            "orbit_count": self.orbit_count,
            "orbit_sizes": list(self.orbit_sizes),
            "representatives": list(self.representatives),
        }


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def groups(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return sorted(out.values(), key=min)


def _closure_partition(fields, include_inversion_c=None):
    """Orbit partition of k_E minus k_F under the move families.

    Every move is applied to its whole domain; each application is checked
    to land outside the base field, and each move is checked to be injective
    on its domain.
    """
    domain = list(fields.nonbase_elements())
    domain_set = set(domain)
    uf = _UnionFind(domain)
    for a in fields.base_units():
        a2 = fields.base_mul(a, a)
        for b in fields.base_elements():
            seen = set()
            for z in domain:
                w = fields.add(fields.mul(a2, z), b)
                if w not in domain_set:
                    raise ModelError("affine move left the complement")
                seen.add(w)
                uf.union(z, w)
            if len(seen) != len(domain):
                raise ModelError("affine move not injective")
    if include_inversion_c is not None:
        c = include_inversion_c
        for a in fields.base_units():
            a2c = fields.base_mul(fields.base_mul(a, a), c)
            for b in fields.base_elements():
                images = {}
                for z in domain:
                    den = fields.add(fields.mul(a2c, z), b)
                    if den == 0:
                        continue
                    w = fields.inv(den)
                    if w not in domain_set:
                        continue
                    images[z] = w
                if len(set(images.values())) != len(images):
                    raise ModelError("inversion move not injective on its domain")
                for z, w in images.items():
                    uf.union(z, w)
    return uf.groups()


def _report_from_groups(fields, groups, moves):
    sizes = tuple(sorted(len(g) for g in groups))
    reps = tuple(min(g) for g in groups)
    return OrbitReport(q=fields.q, moves=moves, orbit_count=len(groups),
                       orbit_sizes=sizes, representatives=reps)


def affine_square_orbits(fields):
    """Orbits of x -> a^2 x + b on the complement of the base field."""
    groups = _closure_partition(fields)
    return _report_from_groups(fields, groups, "affine-square")


def square_root_candidates(fields):
    """Elements outside the base field whose square lies inside it, ascending."""
    return [z for z in fields.nonbase_elements()
            if fields.in_base(fields.mul(z, z))]


def canonical_inversion_data(fields):
    """The least valid x_0 and the constant c = x_0^(-2) for inversion moves.

    In odd characteristic a valid x_0 always exists and 1/c = x_0^2 is
    automatically a nonsquare of the base field; failure of either fact
    signals broken field arithmetic, not bad input.
    """
    if fields.p == 2:
        raise ValueError("inversion data needs odd characteristic")
    candidates = square_root_candidates(fields)
    if not candidates:
        raise ModelError("no x_0 with x_0^2 in the base field; arithmetic bug")
    x0 = candidates[0]
    inv_c = fields.mul(x0, x0)
    if inv_c == 0 or fields.is_square_base(inv_c):
        raise ModelError("x_0^2 must be a nonsquare of the base field")
    return x0, fields.base_inv(inv_c)


def inversion_closure_orbits(fields):
    """Orbits once the inversion moves are adjoined; odd characteristic only.

    In characteristic 2 the affine moves already act transitively and the
    affine report is returned unchanged.  The closure is re-run with every
    valid x_0 and the partitions are checked to be identical, so the canonical
    choice is demonstrably immaterial.
    """
    if fields.p == 2:
        return affine_square_orbits(fields)
    x0, c = canonical_inversion_data(fields)
    groups = _closure_partition(fields, include_inversion_c=c)
    reference = {frozenset(g) for g in groups}
    for alt in square_root_candidates(fields):
        alt_c = fields.base_inv(fields.mul(alt, alt))
        alt_groups = _closure_partition(fields, include_inversion_c=alt_c)
        if {frozenset(g) for g in alt_groups} != reference:
            raise ModelError(f"orbit partition depends on the choice x_0={alt}")
    return _report_from_groups(fields, groups, "affine-square + inversion")


# ---------------------------------------------------------------------------
# the two supporting exhaustive checks

@dataclass(frozen=True)
class FractionIdentityReport:
    q: int
    x0: int
    c: int
    n_checked: int
    n_skipped: int
    holds: bool

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "q": self.q,
            "x0": self.x0,
            "c": self.c,
            "n_checked": self.n_checked,
            "n_skipped": self.n_skipped,
            "holds": self.holds,
        }


def verify_fraction_identity(fields, samples=None):
    """Exhaustive check of the inversion rewriting, for both roots of 1/c.

    For every x with x^2 = 1/c and every a nonzero, b in the base field,
    verifies exactly that

        1/(a^2 x c + b) = (a^2 x c - b)/(a^4 c - b^2)
                        = (x - b/(a^2 c))/(a^2 - b^2/(a^2 c))

    skipping pairs where any denominator vanishes.  `samples` optionally
    caps the number of checked pairs; default is all of them.
    """
    if fields.p == 2:
        raise ValueError("identity check needs odd characteristic")
    x0, c = canonical_inversion_data(fields)
    checked = 0
    skipped = 0
    holds = True
    for x in (x0, fields.neg(x0)):
        if fields.mul(x, x) != fields.base_inv(c):
            raise ModelError("x_0^2 is not 1/c")
        for a in fields.base_units():
            a2 = fields.base_mul(a, a)
            a2c = fields.base_mul(a2, c)
            inv_a2c = fields.base_inv(a2c)
            for b in fields.base_elements():
                den1 = fields.add(fields.mul(a2c, x), b)
                den2 = fields.sub(fields.base_mul(fields.base_mul(a2, a2), c),
                                  fields.base_mul(b, b))
                den3 = fields.sub(a2, fields.base_mul(fields.base_mul(b, b),
                                                      inv_a2c))
                if den1 == 0 or den2 == 0 or den3 == 0:
                    skipped += 1
                    continue
                lhs = fields.inv(den1)
                mid = fields.mul(fields.sub(fields.mul(a2c, x), b),
                                 fields.inv(den2))
                rhs = fields.mul(fields.sub(x, fields.base_mul(b, inv_a2c)),
                                 fields.inv(den3))
                if not lhs == mid == rhs:
                    holds = False
                checked += 1
                if samples is not None and checked >= samples:
                    return FractionIdentityReport(fields.q, x0, c,
                                                  checked, skipped, holds)
    return FractionIdentityReport(fields.q, x0, c, checked, skipped, holds)


def exists_nonsquare_value(fields, c):
    """First (a, b) with a^2 - b^2/(a^2 c) a nonzero nonsquare of the base field.

    Searched in ascending (a, b) order over a nonzero, b arbitrary.  The value
    must exist whenever 1/c is a nonsquare; exhausting the search without a
    witness is reported as a hard model error.
    """
    if fields.p == 2:
        raise ValueError("nonsquare search needs odd characteristic")
    if c == 0 or fields.is_square_base(fields.base_inv(c)):
        raise ModelError("c must be nonzero with 1/c a nonsquare of the base field")
    for a in fields.base_units():
        a2 = fields.base_mul(a, a)
        inv_a2c = fields.base_inv(fields.base_mul(a2, c))
        for b in fields.base_elements():
            val = fields.sub(a2, fields.base_mul(fields.base_mul(b, b),
                                                 inv_a2c))
            if val != 0 and not fields.is_square_base(val):
                return a, b
    raise ModelError(
        f"no (a, b) with a^2 - b^2/(a^2 c) a nonsquare exists for q={fields.q}")
