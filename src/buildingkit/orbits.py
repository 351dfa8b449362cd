"""Finite-field pair arithmetic and orbit closures on k_E minus k_F.

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
inside it.  On the complement a^2 x c + b never lies in the base field, so
every move permutes it, and the orbits are those of the group generated by
x -> g^2 x, x -> x + p^i (i < n) and x -> 1/(c x), where g = G^(q+1), the
norm of the least generator G of k_E^*, generates the units of k_F; they
are computed from these generators in one traversal.

Both fields multiply by index (Zech-log) arithmetic on exp and log tables
of one generator (G; the least primitive element of k_F), and the orbit
generators are permutation lists: x -> g^2 x shifts log x, x -> x + p^i adds
a base-add column per y-block, and x -> 1/(c x) negates log c + log x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ModelError
from .period import _MR_LIMIT, _is_prime

MAX_Q = 16


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


def _exp_log(candidates, times, order, group):
    """The least candidate g of order `order` under times(g): z -> z g, with
    exp[k] = g^k for k < 2 order and log its inverse on the units."""
    for g in candidates:
        step, exp, z = times(g), [1], g
        while z != 1 and len(exp) < order:
            exp.append(z)
            z = step(z)
        if z == 1 and len(exp) == order:
            log = [None] * (order + 1)
            for k, z in enumerate(exp):
                log[z] = k
            return g, exp + exp, log
    raise ModelError(f"no element of order {order} in {group}")


class FiniteFieldPair:
    """k_F of size q = p^n inside k_E of size q^2, with exact lookup tables."""

    def __init__(self, p, n):
        if p >= _MR_LIMIT:
            raise ValueError(
                f"p must be a prime below {_MR_LIMIT}, the limit of the "
                f"deterministic primality test, got {p}")
        # the Miller-Rabin test needs p >= 2
        if p < 2 or not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if isinstance(n, bool) or not 1 <= n <= 4:
            raise ValueError(f"n must be in 1..4, got {n}")
        q = p ** n
        if q > MAX_Q:
            raise ValueError(f"q = p^n must be <= {MAX_Q}, got {q}")
        self.p = p
        self.n = n
        self.q = q
        self.q_ext = q * q
        self.modulus_base = next((m for m in _monic_polys(n, p)
                                  if _is_irreducible(m, p)), None)
        if self.modulus_base is None:
            raise ModelError(f"no irreducible polynomial of degree {n} over F_{p}")
        self._init_base_tables()
        self.modulus_ext = self._find_ext_modulus()
        self._init_ext_tables()
        self._check_frobenius()

    # -- base field -----------------------------------------------------------

    def _digits(self, e):
        return tuple((e // self.p ** i) % self.p for i in range(self.n))

    def _undigits(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def _base_add_table(self):
        """add[e][x] = e + x in the base field, digit by digit mod p."""
        p, q = self.p, self.q
        # row e is row e - t plus t, for t the largest p^i <= e: one digit, mod p
        add = [list(range(q))]
        for e in range(1, q):
            top = p ** max(i for i in range(self.n) if p ** i <= e)
            add.append([x - (p - 1) * top if x // top % p == p - 1 else x + top
                        for x in add[e - top]])
        return add

    def _init_base_tables(self):
        p, q, m = self.p, self.q, self.modulus_base
        add = self._badd = self._base_add_table()
        try:
            self._bneg = [add[e].index(0) for e in range(q)]
        except ValueError:
            e = next(e for e in range(q) if 0 not in add[e])
            raise ModelError(f"{e} has no negative in the addition table "
                             f"of F_{q}") from None

        def times(g):
            dg = self._digits(g)
            return lambda e: self._undigits(
                _poly_rem(_poly_mul(self._digits(e), dg, p), m, p))
        _, self._bexp, self._blog = _exp_log(range(1, q), times, q - 1,
                                             "the units of the base field")
        self._squares = {self.base_mul(e, e) for e in range(1, q)}

    def base_mul(self, a, b):
        if a and b:
            return self._bexp[self._blog[a] + self._blog[b]]
        return 0

    def base_inv(self, a):
        if a == 0:
            raise ModelError("0 has no inverse in the base field")
        return self._bexp[self.q - 1 - self._blog[a]]

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
                if all(self._badd[self._badd[self.base_mul(t, t)][self.base_mul(b, t)]][c]
                       for t in range(self.q)):
                    return (c, b, 1)
        raise ModelError("no irreducible quadratic over the base field")

    def _init_ext_tables(self):
        c, b, _ = self.modulus_ext
        self._ext_neg_c = self._bneg[c]
        self._ext_neg_b = self._bneg[b]
        # no element of the base field generates k_E^*
        self._ext_generator, self._exp, self._log = _exp_log(
            range(self.q, self.q_ext), self._times, self.q_ext - 1,
            "the units of the extension field")

    def _times(self, g):
        """z -> z g, k_F-linear: u + v y goes to u g + v (y g), y^2 = -b y - c."""
        q, bm, ba = self.q, self.base_mul, self._badd
        gu, gv = g % q, g // q
        yu, yv = bm(gv, self._ext_neg_c), ba[gu][bm(gv, self._ext_neg_b)]
        u_g, u_yg, v_g, v_yg = ([bm(t, k) for t in range(q)] for k in (gu, yu, gv, yv))
        return lambda z: ba[u_g[z % q]][u_yg[z // q]] + q * ba[v_g[z % q]][v_yg[z // q]]

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
        if z1 and z2:
            return self._exp[self._log[z1] + self._log[z2]]
        return 0

    def inv(self, z):
        if z == 0:
            raise ModelError("0 has no inverse in the extension field")
        return self._exp[self.q_ext - 1 - self._log[z]]

    def power(self, z, k):
        if z:
            return self._exp[self._log[z] * k % (self.q_ext - 1)]
        return 0 if k else 1

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


def _orbits(fields, moves):
    """Orbits of the group the moves generate on k_E minus k_F, least-first.

    A move lists the images of q, q + 1, ..., and each must permute the
    complement: distinct images, none in the base field.  A permutation of
    a finite set has an inverse among its powers, so growing each orbit
    forward from its least unseen element reaches the whole group orbit.
    """
    q, domain = fields.q, fields.nonbase_elements()
    for move in moves:
        if len(move) != len(domain) or set(move) != set(domain):
            raise ModelError("a generating move does not permute k_E minus k_F")
    seen = bytearray(fields.q_ext)
    groups = []
    for start in domain:
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for z in orbit:
            for move in moves:
                w = move[z - q]
                if not seen[w]:
                    seen[w] = 1
                    orbit.append(w)
        groups.append(orbit)
    return groups


def _affine_moves(fields):
    """Generators of the moves x -> a^2 x + b: x -> g^2 x and x -> x + p^i.

    g = G^(q+1) is the norm of the generator G of k_E^*, of order
    (q^2 - 1)/(q + 1) = q - 1, so it generates the unit group of the base
    field and g^2 its squares; x -> g^2 x adds 2(q + 1) to log x.  The p^i
    for i < n encode the F_p-basis x^i of the base field, and adding one
    moves u in x = u + q*v along the base-add column of p^i.
    """
    q, exp, shift = fields.q, fields._exp, 2 * (fields.q + 1) % (fields.q_ext - 1)
    columns = [[row[fields.p ** i] for row in fields._badd] for i in range(fields.n)]
    return [[exp[k + shift] for k in fields._log[q:]]] + [
        [v + u for v in range(q, fields.q_ext, q) for u in column] for column in columns]


def _inversion_move(fields, c):
    """J_c: x -> 1/(c x), so log J_c(x) = -(log c + log x); 1/(a^2 c x + b)
    is J_c after x -> a^2 x + b/c."""
    exp, top = fields._exp, -fields._log[c] % (fields.q_ext - 1) + fields.q_ext - 1
    return [exp[top - k] for k in fields._log[fields.q:]]


def _report_from_groups(fields, groups, moves):
    sizes = tuple(sorted(len(g) for g in groups))
    reps = tuple(g[0] for g in groups)
    return OrbitReport(q=fields.q, moves=moves, orbit_count=len(groups),
                       orbit_sizes=sizes, representatives=reps)


def affine_square_orbits(fields):
    """Orbits of x -> a^2 x + b on the complement of the base field."""
    groups = _orbits(fields, _affine_moves(fields))
    return _report_from_groups(fields, groups, "affine-square")


def square_root_candidates(fields):
    """Elements outside the base field whose square lies inside it, ascending:
    k_F^* is log z = 0 mod q + 1, so for odd q these have log z = (q + 1)/2."""
    step = fields.q + 1
    return [] if fields.p == 2 else sorted(fields._exp[step // 2:fields.q_ext - 1:step])


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
    affine report is returned unchanged.  The closure is re-run once for
    every other constant c, at the least x_0 giving it (x_0 and -x_0 give
    the same c), and the partitions are checked to be identical, so the
    canonical choice is demonstrably immaterial.
    """
    if fields.p == 2:
        return affine_square_orbits(fields)
    _, c = canonical_inversion_data(fields)
    affine = _affine_moves(fields)
    groups = _orbits(fields, affine + [_inversion_move(fields, c)])
    reference = {frozenset(g) for g in groups}
    tried = {c}
    for alt in square_root_candidates(fields):
        alt_c = fields.base_inv(fields.mul(alt, alt))
        if alt_c in tried:
            continue
        tried.add(alt_c)
        alt_groups = _orbits(fields, affine + [_inversion_move(fields, alt_c)])
        if {frozenset(g) for g in alt_groups} != reference:
            raise ModelError(f"orbit partition depends on the choice x_0={alt}")
    return _report_from_groups(fields, groups, "affine-square + inversion")


def transitivity_holds(fields, affine, closure):
    """The orbit claim for the affine and the inversion-closure reports.

    In characteristic 2 the affine moves are transitive.  In odd
    characteristic they leave two orbits of size (q^2 - q)/2 each, and the
    inversion moves merge them into one.
    """
    if fields.p == 2:
        return affine.orbit_count == 1
    half = (fields.q * fields.q - fields.q) // 2
    return (affine.orbit_count == 2 and affine.orbit_sizes == (half, half)
            and closure.orbit_count == 1)


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


def verify_fraction_identity(fields):
    """Exhaustive check of the inversion rewriting, for both roots of 1/c.

    For every x with x^2 = 1/c and every a nonzero, b in the base field,
    verifies exactly that

        1/(a^2 x c + b) = (a^2 x c - b)/(a^4 c - b^2)
                        = (x - b/(a^2 c))/(a^2 - b^2/(a^2 c))

    skipping pairs where any denominator vanishes.
    """
    if fields.p == 2:
        raise ValueError("identity check needs odd characteristic")
    x0, c = canonical_inversion_data(fields)
    q, add, neg = fields.q, fields._badd, fields._bneg
    checked = 0
    skipped = 0
    holds = True
    for x in (x0, fields.neg(x0)):
        if fields.mul(x, x) != fields.base_inv(c):
            raise ModelError("x_0^2 is not 1/c")
        x_v, x_u = divmod(x, q)
        for a in fields.base_units():
            a2 = fields.base_mul(a, a)
            a2c = fields.base_mul(a2, c)
            inv_a2c = fields.base_inv(a2c)
            a4c = fields.base_mul(fields.base_mul(a2, a2), c)
            # adding a base element to u + q*v moves u along a row of add
            s_v, s_u = divmod(fields.mul(a2c, x), q)
            for b in fields.base_elements():
                b2 = fields.base_mul(b, b)
                den1 = add[s_u][b] + q * s_v
                den2 = add[a4c][neg[b2]]
                den3 = add[a2][neg[fields.base_mul(b2, inv_a2c)]]
                if den1 == 0 or den2 == 0 or den3 == 0:
                    skipped += 1
                    continue
                lhs = fields.inv(den1)
                mid = fields.mul(add[s_u][neg[b]] + q * s_v, fields.inv(den2))
                rhs = fields.mul(add[x_u][neg[fields.base_mul(b, inv_a2c)]] + q * x_v,
                                 fields.inv(den3))
                if not lhs == mid == rhs:
                    holds = False
                checked += 1
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
