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
move family is x -> a^2 x + b with a, b in the base field, a nonzero; its
orbits are the square classes of v in x = u + q*v, read off `is_square_base`.
The second, available in odd characteristic only, is x -> 1/(a^2 x c + b)
where c is the inverse square of a fixed x_0 outside the base field with
x_0^2 inside it; it is x -> 1/(c x) after an affine move, so its closure
merges the two classes once 1/(c x) is seen to cross between them, as the
norm proves it must for every c (see `inversion_closure_orbits`).

k_F is its addition and multiplication tables, with the negatives and
inverses read off their rows, and k_E is the pairs (u, v) over k_F,
multiplied with y^2 = -b y - c for m_ext = y^2 + b y + c.
"""

import itertools
from collections import namedtuple

from .errors import ModelError, is_prime, require_int

MAX_Q = 256


def _poly_rem(f, m, p):
    """Remainder of f modulo the monic polynomial m, over F_p, as deg m
    digits; f has at least that many."""
    f = list(f)
    dm = len(m) - 1
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
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_rem(m, g, p)):
                return False
    return True


class FiniteFieldPair:
    """k_F of size q = p^n inside k_E of size q^2, on k_F's lookup tables."""

    def __init__(self, p, n):
        """Refuse (ValueError) a p outside 2..MAX_Q or composite, an n outside
        1..8 and a q = p^n over MAX_Q; p's range comes first, so Miller-Rabin
        is deterministic there (p < _MR_LIMIT) and p^n stays small."""
        if not is_prime(require_int(p, "p", 2, MAX_Q)):
            raise ValueError(f"p must be prime, got {p}")
        q = p ** require_int(n, "n", 1, 8)
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
        add, mul = self._badd, self._bmul = self._base_tables()
        self._bneg = self._solve(add, 0, "negative in the addition")
        self._binv = [None] + self._solve(mul, 1, "inverse in the multiplication")
        self._squares = {mul[e][e] for e in range(1, q)}
        c, b, _ = self.modulus_ext = self._find_ext_modulus()
        self._times_c, self._times_neg_b, self._times_neg_c = (
            mul[e] for e in (c, self._bneg[b], self._bneg[c]))
        self._check_frobenius()

    # -- base field -----------------------------------------------------------

    def _digits(self, e):
        return tuple((e // self.p ** i) % self.p for i in range(self.n))

    def _undigits(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def _base_tables(self):
        """add[e][x] = e + x and mul[e][x] = e x in the base field.

        Both are additive in e: row e is row e - t plus row t, for t = p^i
        the top digit place of e.  Adding t steps digit i, mod p.  Row t of
        mul multiplies by x^i, so it is row p^(i-1) times x: a digit shift
        reduced mod m_base, taken once per element.
        """
        p, q, m = self.p, self.q, self.modulus_base
        # tops[e] is the top place of e: p^i (p - 1) numbers have top place p^i
        tops = [0] + [p ** i for i in range(self.n) for _ in range(p ** i * (p - 1))]
        add = [list(range(q))]
        for e in range(1, q):
            t = tops[e]
            add.append([x - (p - 1) * t if x // t % p == p - 1 else x + t
                        for x in add[e - t]])
        times_x = [self._undigits(_poly_rem((0,) + self._digits(e), m, p))
                   for e in range(q)]
        mul = [[0] * q, list(range(q))]
        for e in range(2, q):
            t = tops[e]
            if e == t:
                mul.append([times_x[y] for y in mul[t // p]])
            else:
                mul.append([add[y][z] for y, z in zip(mul[e - t], mul[t])])
        return add, mul

    def _solve(self, table, unit, what):
        """For each row e from `unit` on, the x with table[e][x] = unit: the
        negatives (unit 0) or the inverses (unit 1, so 0 has none).  A row
        without it, from a broken table or modulus, stops the build."""
        try:
            return [row.index(unit) for row in table[unit:]]
        except ValueError:
            e = next(e for e in range(unit, self.q) if unit not in table[e])
            raise ModelError(f"{e} has no {what} table of F_{self.q}") from None

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
        add, mul = self._badd, self._bmul
        for c in range(self.q):
            for b in range(self.q):
                if all(add[add[mul[t][t]][mul[b][t]]][c] for t in range(self.q)):
                    return (c, b, 1)
        raise ModelError("no irreducible quadratic over the base field")

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
        """(u1 + v1 y)(u2 + v2 y) with y^2 = -b y - c, on k_F's tables."""
        q, add, mul = self.q, self._badd, self._bmul
        u1, v1, u2, v2 = z1 % q, z1 // q, z2 % q, z2 // q
        vv = mul[v1][v2]
        return (add[mul[u1][u2]][self._times_neg_c[vv]]
                + q * add[add[mul[u1][v2]][mul[v1][u2]]][self._times_neg_b[vv]])

    def inv(self, z):
        """The conjugate (u - b v) - v y over the norm u (u - b v) + c v^2."""
        if z == 0:
            raise ModelError("0 has no inverse in the extension field")
        q, add, mul = self.q, self._badd, self._bmul
        u, v = z % q, z // q
        w = add[u][self._times_neg_b[v]]  # u - b v
        over_norm = mul[self.base_inv(add[mul[u][w]][self._times_c[mul[v][v]]])]
        return over_norm[w] + q * self._bneg[over_norm[v]]

    def nonbase_elements(self):
        return range(self.q, self.q_ext)

    def _check_frobenius(self):
        """y^q must be the other root -b - y of m_ext = y^2 + b y + c.

        That holds exactly when m_ext has no root in k_F.  With none, k_E is
        a field and z -> z^q a field map fixing k_F, whose fixed points, the
        roots of z^q - z, are the q elements of k_F; so it sends the root y,
        outside k_F, to a root other than y.  Two roots r != s make
        k_F[y]/(m_ext) the ring k_F x k_F with y = (r, s), where z^q = z, so
        y^q = y, not -b - y = (s, r).  A double root r makes y = r + e with
        e^2 = 0, so y^q = r^q + q r^(q-1) e = r, not -b - y = r - e.
        """
        power, z, k = 1, self.q, self.q
        while k:  # square-and-multiply
            if k & 1:
                power = self.mul(power, z)
            z, k = self.mul(z, z), k >> 1
        conjugate = self.neg(self.q + self.modulus_ext[1])
        if power != conjugate:
            raise ModelError(f"Frobenius sends y to {power}, not to its "
                             f"conjugate -b - y = {conjugate}")


def build_fields(p, n):
    """Deterministic field pair for q = p^n, for every q up to MAX_Q = 256."""
    return FiniteFieldPair(p, n)


# ---------------------------------------------------------------------------
# orbit closures

class OrbitReport(namedtuple("OrbitReport",
                             "q moves orbit_count orbit_sizes representatives")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if sum(self.orbit_sizes) != self.q * self.q - self.q:
            raise ModelError("orbit sizes do not add up to q^2 - q")
        if not len(self.orbit_sizes) == self.orbit_count == len(self.representatives):
            raise ModelError("orbit count, sizes and representatives disagree")
        return self


def _square_classes(fields):
    """k_E minus k_F split by whether v in x = u + q*v is a square of k_F.

    These are the orbits of x -> a^2 x + b: the move sends (u, v) to
    (a^2 u + b, a^2 v), so it keeps v's square class, and a^2 = v'/v with
    b = u' - a^2 u reaches any (u', v') of that class.  Each class is listed
    in increasing order, the squares' (holding q) first; in characteristic 2
    every unit is a square and there is one class.
    """
    classes = ([], [])
    for x in fields.nonbase_elements():
        classes[not fields.is_square_base(x // fields.q)].append(x)
    return [c for c in classes if c]


def _report_from_groups(fields, groups, moves):
    sizes = tuple(sorted(len(g) for g in groups))
    reps = tuple(g[0] for g in groups)
    return OrbitReport(q=fields.q, moves=moves, orbit_count=len(groups),
                       orbit_sizes=sizes, representatives=reps)


def affine_square_orbits(fields):
    """Orbits of x -> a^2 x + b on the complement of the base field."""
    return _report_from_groups(fields, _square_classes(fields), "affine-square")


def canonical_inversion_data(fields):
    """The least valid x_0 and the constant c = x_0^(-2) for inversion moves.

    x = u + v y has x^2 = u^2 - c' v^2 + v (2u - b) y for m_ext =
    y^2 + b y + c', so x outside k_F (v nonzero) has x^2 in k_F exactly when
    2u = b.  In odd characteristic the least such x is x_0 = q + b/2, at
    v = 1.  x_0^2 is a unit, and a nonsquare of the base field, since
    s^2 = x_0^2 for an s in k_F would put x_0 = +-s in k_F; so an x_0^2 that
    is a square, or outside k_F, signals broken field arithmetic, not bad
    input.
    """
    if fields.p == 2:
        raise ValueError("inversion data needs odd characteristic")
    q = fields.q
    x0 = q + fields.base_mul(fields.modulus_ext[1], fields.base_inv(2))
    inv_c = fields.mul(x0, x0)
    if inv_c >= q or fields.is_square_base(inv_c):
        raise ModelError("x_0^2 must be a nonsquare of the base field")
    return x0, fields.base_inv(inv_c)


def inversion_closure_orbits(fields):
    """Orbits once the inversion moves are adjoined; odd characteristic only.

    1/(a^2 x c + b) is J_c: x -> 1/(c x) after x -> a^2 x + b/c, so the
    orbits are the square classes joined wherever J_c crosses between them.
    J_c(u + v y) = x^q/(c N(x)), with N(x) = x^(q+1) the norm, has
    y-coordinate -v/(c N(x)).  N maps k_E^* onto k_F^* with fibres of q + 1
    and k_F^* onto its squares 2 to 1, so outside k_F it still takes every
    value, and for every nonzero c some x crosses: one orbit is left, and
    the canonical c stands for all.  The crossing is still computed, so
    arithmetic that keeps each class leaves two orbits, which
    `orbit_claim` refuses.
    """
    _, c = canonical_inversion_data(fields)
    domain, q = fields.nonbase_elements(), fields.q
    images = [fields.inv(fields.mul(c, x)) for x in domain]
    if sorted(images) != list(domain):
        raise ModelError("a generating move does not permute k_E minus k_F")
    groups = _square_classes(fields)
    if any(fields.is_square_base(x // q) != fields.is_square_base(w // q)
           for x, w in zip(domain, images)):
        groups = [list(domain)]
    return _report_from_groups(fields, groups, "affine-square + inversion")


# ---------------------------------------------------------------------------
# the two supporting exhaustive checks, and the orbit claim

class FractionIdentityReport(namedtuple("FractionIdentityReport",
                                        "q x0 c n_checked n_skipped holds")):
    __slots__ = ()


def verify_fraction_identity(fields):
    """Exhaustive check of the inversion rewriting, for both roots of 1/c.

    For every x with x^2 = 1/c and every a nonzero, b in the base field,
    verifies exactly that

        1/(a^2 x c + b) = (a^2 x c - b)/(a^4 c - b^2)
                        = (x - b/(a^2 c))/(a^2 - b^2/(a^2 c))

    by taking the inverse on the left once and multiplying it by each
    base-field denominator on the right, which with nonzero denominators is
    the same identity.  None vanishes, so `n_skipped` is 0: with c a
    nonsquare, a^4 c - b^2 is nonzero, the third denominator is it over
    a^2 c, and the first, a^2 x c + b, lies outside k_F.  A vanishing one
    means broken arithmetic and fails the check (exit 1), never skips a
    pair: `inv` refuses a zero first denominator, and a zero base-field one
    turns its side to 0 against a numerator that is nonzero unless x lies
    in k_F, where the first vanishes at b = -a^2 x c.
    """
    x0, c = canonical_inversion_data(fields)
    q, add, neg, mul = fields.q, fields._badd, fields._bneg, fields._bmul
    checked = 0
    holds = True
    for x in (x0, fields.neg(x0)):
        if fields.mul(x, x) != fields.base_inv(c):
            raise ModelError("x_0^2 is not 1/c")
        x_v, x_u = divmod(x, q)
        for a in fields.base_units():
            a2 = mul[a][a]
            a2c = mul[a2][c]
            over_a2c = mul[fields.base_inv(a2c)]
            a4c = mul[a2][a2c]
            # adding a base element to u + q*v moves u along a row of add
            s_v, s_u = divmod(fields.mul(a2c, x), q)
            for b in fields.base_elements():
                b2 = mul[b][b]
                w_v, w_u = divmod(fields.inv(add[s_u][b] + q * s_v), q)
                mid = add[a4c][neg[b2]]
                rhs = add[a2][neg[over_a2c[b2]]]
                if not (mul[w_u][mid] == add[s_u][neg[b]] and mul[w_v][mid] == s_v
                        and mul[w_u][rhs] == add[x_u][neg[over_a2c[b]]]
                        and mul[w_v][rhs] == x_v):
                    holds = False
                checked += 1
    return FractionIdentityReport(fields.q, x0, c, checked, 0, holds)


def exists_nonsquare_value(fields, c):
    """First (a, b) with a^2 - b^2/(a^2 c) a nonzero nonsquare of the base field.

    Searched in ascending (a, b) order over a nonzero, b arbitrary.  The value
    must exist whenever 1/c is a nonsquare, so a c outside 0..q - 1, 0 or
    with 1/c a square is bad input (ValueError), while exhausting the search
    without a witness is reported as a hard model error.
    """
    if fields.p == 2:
        raise ValueError("nonsquare search needs odd characteristic")
    if require_int(c, "c", 0, fields.q - 1) == 0 or fields.is_square_base(fields.base_inv(c)):
        raise ValueError("c must be nonzero with 1/c a nonsquare of the base field")
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


class OrbitClaim(namedtuple("OrbitClaim",
                            "fields affine closure identity witness transitive")):
    """The orbit claim on one field pair.  In characteristic 2 the affine
    moves must be transitive, `closure` is `affine`, and `identity` and
    `witness` are None.  In odd characteristic they must leave two orbits of
    size (q^2 - q)/2, which the inversion moves merge."""

    __slots__ = ()

    @property
    def ok(self):
        """The verdict: transitive, and the identity holds where checked."""
        return self.transitive and (self.identity is None or self.identity.holds)


def orbit_claim(fields):
    """The OrbitClaim of a field pair, in either characteristic."""
    affine = affine_square_orbits(fields)
    if fields.p == 2:
        return OrbitClaim(fields, affine, affine, None, None, affine.orbit_count == 1)
    closure = inversion_closure_orbits(fields)
    identity = verify_fraction_identity(fields)
    # a report has as many sizes as orbits, so two halves are two orbits
    half = (fields.q_ext - fields.q) // 2
    return OrbitClaim(fields, affine, closure, identity,
                      exists_nonsquare_value(fields, identity.c),
                      affine.orbit_sizes == (half, half) and closure.orbit_count == 1)
