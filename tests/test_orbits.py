"""Field-pair tables and the orbit closures on the complement of the base field."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildingkit import orbits, period
from buildingkit.errors import ModelError

CHAR2 = [(2, 1), (2, 2), (2, 3), (2, 4)]
ODD = [(3, 1), (5, 1), (7, 1), (3, 2)]
# every field pair that MAX_Q = 16 admits
ALL_FIELDS = CHAR2 + ODD + [(11, 1), (13, 1)]

# canonical moduli, coefficient tuples with the constant term first
FROZEN_MODULI = {
    2: ((0, 1), (1, 1, 1)),
    3: ((0, 1), (1, 0, 1)),
    4: ((1, 1, 1), (1, 2, 1)),
    5: ((0, 1), (1, 1, 1)),
    7: ((0, 1), (1, 0, 1)),
    8: ((1, 0, 1, 1), (1, 1, 1)),
    9: ((1, 0, 1), (1, 4, 1)),
    16: ((1, 0, 0, 1, 1), (1, 3, 1)),
}

# least x_0 outside the base field with x_0^2 inside, and c = x_0^(-2)
FROZEN_INVERSION = {3: (3, 2), 5: (8, 2), 7: (7, 6), 9: (17, 7)}

FROZEN_WITNESS = {3: (1, 1), 5: (1, 1), 7: (1, 2), 9: (1, 1)}


@pytest.mark.parametrize("p,n", CHAR2 + ODD)
def test_frozen_moduli(p, n):
    f = orbits.build_fields(p, n)
    base, ext = FROZEN_MODULI[f.q]
    assert f.modulus_base == base
    assert f.modulus_ext == ext
    # independent irreducibility check: no root in the base field
    c, b, one = ext
    assert one == 1
    for t in f.base_elements():
        assert f.add(f.add(f.base_mul(t, t), f.base_mul(b, t)), c) != 0


def test_field_arithmetic_axioms_spot():
    f = orbits.build_fields(3, 2)
    els = range(f.q_ext)
    for z in els:
        assert f.add(z, 0) == z and f.mul(z, 1) == z
        assert f.add(z, f.neg(z)) == 0
        if z:
            assert f.mul(z, f.inv(z)) == 1
    # commutativity and distributivity on a sample
    for z1 in (5, 17, 80):
        for z2 in (3, 44, 61):
            assert f.mul(z1, z2) == f.mul(z2, z1)
            assert f.mul(z1, f.add(z2, 1)) == f.add(f.mul(z1, z2), z1)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_inverse_table_equals_the_linear_search(p, n):
    f = orbits.build_fields(p, n)
    units = range(1, f.q_ext)
    assert [f.inv(z) for z in units] == [
        next(w for w in units if f.mul(z, w) == 1) for z in units]


def test_frobenius_fixes_exactly_the_base_field():
    f = orbits.build_fields(2, 2)
    fixed = [z for z in range(f.q_ext) if f.frobenius(z) == z]
    assert fixed == list(f.base_elements())
    for z in range(f.q_ext):
        assert f.frobenius(f.frobenius(z)) == z  # z^(q^2) = z


@pytest.mark.parametrize("p,n", CHAR2 + ODD)
def test_square_counts(p, n):
    f = orbits.build_fields(p, n)
    n_squares = sum(1 for a in f.base_elements() if f.is_square_base(a))
    assert n_squares == (f.q - 1 if p == 2 else (f.q - 1) // 2)
    assert not f.is_square_base(0)


@pytest.mark.parametrize("p,n", CHAR2)
def test_char2_affine_transitive(p, n):
    f = orbits.build_fields(p, n)
    report = orbits.affine_square_orbits(f)
    assert report.orbit_count == 1
    assert report.orbit_sizes == (f.q * f.q - f.q,)
    assert report.representatives == (f.q,)
    # adjoining inversions is a no-op in characteristic 2
    assert orbits.inversion_closure_orbits(f) == report


def _closure_oracle(f, moves):
    """Independent union-free closure: grow each orbit by BFS over the moves."""
    remaining = set(f.nonbase_elements())
    groups = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            z = frontier.pop()
            for w in moves(z):
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        assert orbit <= remaining
        remaining -= orbit
        groups.append(orbit)
    return groups


def _affine_images(f):
    """All (q - 1) q moves x -> a^2 x + b."""
    def images(z):
        for a in f.base_units():
            a2 = f.base_mul(a, a)
            for b in f.base_elements():
                yield f.add(f.mul(a2, z), b)
    return images


def _inversion_images(f, c):
    """All moves x -> 1/(a^2 c x + b), where defined and outside k_F."""
    def images(z):
        for a in f.base_units():
            a2c = f.base_mul(f.base_mul(a, a), c)
            for b in f.base_elements():
                den = f.add(f.mul(a2c, z), b)
                if den != 0:
                    w = f.inv(den)
                    if not f.in_base(w):
                        yield w
    return images


def _all_images(f, c):
    affine, inversion = _affine_images(f), _inversion_images(f, c)
    return lambda z: [*affine(z), *inversion(z)]


@pytest.mark.parametrize("p,n", ODD)
def test_odd_affine_orbits_are_squareness_classes(p, n):
    f = orbits.build_fields(p, n)
    report = orbits.affine_square_orbits(f)
    half = (f.q * f.q - f.q) // 2
    assert report.orbit_count == 2
    assert report.orbit_sizes == (half, half)

    groups = _closure_oracle(f, _affine_images(f))
    # the move multiplies the y-coordinate by a square, so each orbit is one
    # squareness class of v in z = u + q*v
    expected = [{z for z in f.nonbase_elements() if f.is_square_base(z // f.q)},
                {z for z in f.nonbase_elements() if not f.is_square_base(z // f.q)}]
    assert sorted(map(frozenset, groups)) == sorted(map(frozenset, expected))
    assert report.representatives == tuple(sorted(min(g) for g in groups))


@pytest.mark.parametrize("p,n", ODD)
def test_inversion_merges_to_one_orbit(p, n):
    f = orbits.build_fields(p, n)
    x0, c = orbits.canonical_inversion_data(f)
    assert (x0, c) == FROZEN_INVERSION[f.q]
    assert f.mul(x0, x0) == f.base_inv(c)
    assert not f.is_square_base(f.base_inv(c))

    report = orbits.inversion_closure_orbits(f)
    assert report.orbit_count == 1
    assert report.orbit_sizes == (f.q * f.q - f.q,)
    assert report.representatives == (f.q,)
    assert report.moves == "affine-square + inversion"

    assert len(_closure_oracle(f, _all_images(f, c))) == 1


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_square_root_candidates_equal_the_brute_force_listing(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    assert orbits.square_root_candidates(f) == [
        z for z in f.nonbase_elements() if f.in_base(product(z, z))]


def test_square_root_candidates_listing():
    f = orbits.build_fields(3, 1)
    assert orbits.square_root_candidates(f) == [3, 6]
    f = orbits.build_fields(3, 2)
    cands = orbits.square_root_candidates(f)
    assert len(cands) == f.q - 1  # one pair +-x0 per nonsquare of the base
    assert all(f.in_base(f.mul(z, z)) for z in cands)
    assert cands == sorted(cands)


@pytest.mark.parametrize("p,n", ODD)
def test_fraction_identity_exhaustive(p, n):
    f = orbits.build_fields(p, n)
    report = orbits.verify_fraction_identity(f)
    assert report.holds
    assert report.n_checked == 2 * f.q * (f.q - 1)
    assert report.n_skipped == 0
    assert (report.x0, report.c) == FROZEN_INVERSION[f.q]


@pytest.mark.parametrize("p,n", ODD)
def test_nonsquare_witness(p, n):
    f = orbits.build_fields(p, n)
    _, c = orbits.canonical_inversion_data(f)
    a, b = orbits.exists_nonsquare_value(f, c)
    assert (a, b) == FROZEN_WITNESS[f.q]
    val = f.sub(f.base_mul(a, a),
                f.base_mul(f.base_mul(b, b),
                           f.base_inv(f.base_mul(f.base_mul(a, a), c))))
    assert val != 0 and not f.is_square_base(val)


def test_char2_rejects_inversion_helpers():
    f = orbits.build_fields(2, 2)
    with pytest.raises(ValueError):
        orbits.canonical_inversion_data(f)
    with pytest.raises(ValueError):
        orbits.verify_fraction_identity(f)
    with pytest.raises(ValueError):
        orbits.exists_nonsquare_value(f, 1)


def test_build_fields_rejects_bad_parameters():
    with pytest.raises(ValueError):
        orbits.build_fields(4, 1)  # not prime
    with pytest.raises(ValueError):
        orbits.build_fields(3, 3)  # q = 27 > 16
    with pytest.raises(ValueError):
        orbits.build_fields(2, 5)
    with pytest.raises(ValueError):
        orbits.build_fields(2, 0)
    for p in (1, 0, -7, 18, 2**61 - 3):
        with pytest.raises(ValueError, match="p must be prime"):
            orbits.build_fields(p, 1)
    # a large prime is certified at once and refused by the size cap
    with pytest.raises(ValueError, match="q = p\\^n must be <= 16"):
        orbits.build_fields(2**61 - 1, 1)
    # past the deterministic primality test, p is refused before any test
    with pytest.raises(ValueError, match="p must be a prime below 3317"):
        orbits.build_fields(period._MR_LIMIT, 1)


def test_bool_degree_is_refused():
    # True == 1, so an unchecked bool would build F_3 with "n": true
    with pytest.raises(ValueError, match="n must be in 1..4, got True"):
        orbits.build_fields(3, True)
    with pytest.raises(ValueError, match="n must be in 1..4, got False"):
        orbits.build_fields(3, False)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_norm_of_the_extension_generator_generates_the_base_units(p, n):
    f = _fields(p, n)
    g = f.power(f._ext_generator, f.q + 1)
    assert {f.power(g, k) for k in range(f.q - 1)} == set(f.base_units())


def test_orbit_report_consistency_guard():
    with pytest.raises(ModelError):
        orbits.OrbitReport(q=2, moves="affine-square", orbit_count=1,
                           orbit_sizes=(3,), representatives=(2,))


def test_poly_str_rendering():
    f = orbits.build_fields(2, 2)
    assert f.poly_str(f.modulus_ext, "y") == "y^2 + 2*y + 1"
    assert f.poly_str((0, 1), "x") == "x"
    assert f.poly_str((0,), "x") == "0"


def test_field_json_dict():
    f = orbits.build_fields(2, 1)
    assert f.to_json_dict() == {
        "schema_version": 1, "p": 2, "n": 1, "q": 2, "q_ext": 4,
        "modulus_base": [0, 1], "modulus_ext": [1, 1, 1],
    }


def test_orbit_report_json_dict():
    f = orbits.build_fields(3, 1)
    data = orbits.affine_square_orbits(f).to_json_dict()
    assert data == {
        "schema_version": 1, "q": 3, "moves": "affine-square",
        "orbit_count": 2, "orbit_sizes": [3, 3], "representatives": [3, 6],
    }


# -- the generator traversal against brute force, on every admitted field ------

@functools.cache
def _fields(p, n):
    return orbits.build_fields(p, n)


def _summary(groups):
    groups = sorted(groups, key=min)
    return (len(groups), tuple(sorted(map(len, groups))),
            tuple(min(g) for g in groups), {frozenset(g) for g in groups})


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_generator_orbits_equal_the_brute_force_closure(p, n):
    f = _fields(p, n)
    affine = _summary(_closure_oracle(f, _affine_images(f)))
    report = orbits.affine_square_orbits(f)
    assert (report.orbit_count, report.orbit_sizes, report.representatives) \
        == affine[:3]
    assert _summary(orbits._orbits(f, orbits._affine_moves(f))) == affine

    full = orbits.inversion_closure_orbits(f)
    if p == 2:
        assert full == report
        return
    _, c = orbits.canonical_inversion_data(f)
    closure = _summary(_closure_oracle(f, _all_images(f, c)))
    assert (full.orbit_count, full.orbit_sizes, full.representatives) \
        == closure[:3]
    generators = orbits._affine_moves(f) + [orbits._inversion_move(f, c)]
    assert _summary(orbits._orbits(f, generators)) == closure


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_every_move_permutes_the_complement(p, n):
    f = _fields(p, n)
    domain = set(f.nonbase_elements())
    cs = set()
    if p != 2:
        cs = {f.base_inv(f.mul(x, x)) for x in orbits.square_root_candidates(f)}
        assert len(cs) == (f.q - 1) // 2  # one c per nonsquare 1/c
    for a in f.base_units():
        a2 = f.base_mul(a, a)
        for b in f.base_elements():
            assert {f.add(f.mul(a2, z), b) for z in domain} == domain
            for c in cs:
                # the denominator never vanishes on the complement
                a2c = f.base_mul(a2, c)
                assert {f.inv(f.add(f.mul(a2c, z), b)) for z in domain} == domain


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (5, 1)])
def test_a_generator_that_does_not_permute_is_refused(p, n, monkeypatch):
    f = _fields(p, n)
    domain = f.nonbase_elements()
    affine = orbits._affine_moves
    for bad in ([z % f.q for z in domain],  # lands in the base field
                [f.q] * len(domain)):       # not injective
        monkeypatch.setattr(orbits, "_affine_moves",
                            lambda fields, bad=bad: affine(fields) + [bad])
        with pytest.raises(ModelError, match="does not permute"):
            orbits.affine_square_orbits(f)
        with pytest.raises(ModelError, match="does not permute"):
            orbits.inversion_closure_orbits(f)
    monkeypatch.setattr(orbits, "_affine_moves", affine)
    if p != 2:
        # squaring sends x_0 into the base field
        monkeypatch.setattr(orbits, "_inversion_move",
                            lambda fields, c: [fields.mul(z, z) for z in domain])
        with pytest.raises(ModelError, match="does not permute"):
            orbits.inversion_closure_orbits(f)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_orbit_work_stays_polynomial_in_q(p, n, monkeypatch):
    # brute force over all (q - 1) q moves of a family makes about q^4
    # calls, and q^5 once it is rerun for each x_0
    f = _fields(p, n)
    calls = []
    mul = orbits.FiniteFieldPair.mul
    monkeypatch.setattr(orbits.FiniteFieldPair, "mul",
                        lambda self, z1, z2: calls.append(1) or mul(self, z1, z2))
    orbits.affine_square_orbits(f)
    assert len(calls) <= 4 * f.q ** 2
    calls.clear()
    orbits.inversion_closure_orbits(f)
    assert len(calls) <= 8 * f.q ** 3


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_field_build_makes_linearly_many_polynomial_products(p, n, monkeypatch):
    # one product per step of the walks to the least primitive element of
    # k_F, where a table of every pair makes q^2
    calls = []
    poly_mul = orbits._poly_mul
    monkeypatch.setattr(orbits, "_poly_mul",
                        lambda f, g, p: calls.append(1) or poly_mul(f, g, p))
    f = orbits.build_fields(p, n)
    assert len(calls) <= 2 * f.q


_element = st.integers(min_value=0, max_value=255)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_FIELDS), _element, _element, _element)
def test_field_axioms_hold_on_every_admitted_field(pn, x, y, w):
    f = _fields(*pn)
    x, y, w = x % f.q_ext, y % f.q_ext, w % f.q_ext
    assert f.add(x, y) == f.add(y, x) and f.mul(x, y) == f.mul(y, x)
    assert f.add(f.add(x, y), w) == f.add(x, f.add(y, w))
    assert f.mul(f.mul(x, y), w) == f.mul(x, f.mul(y, w))
    assert f.mul(x, f.add(y, w)) == f.add(f.mul(x, y), f.mul(x, w))
    assert f.add(x, 0) == x and f.mul(x, 1) == x and f.mul(x, 0) == 0
    assert f.add(x, f.neg(x)) == 0 and f.sub(f.add(x, y), y) == x
    if x:
        assert f.mul(x, f.inv(x)) == 1
    # the base field is a subfield and the Frobenius is a field map fixing it
    a, b = x % f.q, y % f.q
    assert f.add(a, b) == f._undigits(
        [(s + t) % f.p for s, t in zip(f._digits(a), f._digits(b))]) < f.q
    assert f.mul(a, b) == f.base_mul(a, b) < f.q
    assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))
    assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))
    assert f.frobenius(a) == a


ALL_ODD = ODD + [(11, 1), (13, 1)]


def _inversion_constant(f, x0):
    return f.base_inv(f.mul(x0, x0))


@pytest.mark.parametrize("p,n", ALL_ODD)
def test_closure_is_rerun_once_per_distinct_c(p, n, monkeypatch):
    # x_0 and -x_0 give the same c, so the q - 1 choices of x_0 give
    # (q - 1)/2 constants, the canonical one among them
    f = _fields(p, n)
    calls = []
    grow = orbits._orbits
    monkeypatch.setattr(orbits, "_orbits",
                        lambda fields, moves: calls.append(1) or grow(fields, moves))
    orbits.inversion_closure_orbits(f)
    assert len(calls) == (f.q - 1) // 2


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_a_partition_that_depends_on_x0_is_a_model_error(p, n, monkeypatch):
    f = _fields(p, n)
    _, c = orbits.canonical_inversion_data(f)
    first_other = min(x for x in orbits.square_root_candidates(f)
                      if _inversion_constant(f, x) != c)
    move = orbits._inversion_move
    # the identity permutes the complement but merges nothing
    monkeypatch.setattr(orbits, "_inversion_move",
                        lambda fields, k: move(fields, k) if k == c
                        else list(fields.nonbase_elements()))
    with pytest.raises(ModelError,
                       match=f"depends on the choice x_0={first_other}$"):
        orbits.inversion_closure_orbits(f)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_transitivity_verdict(p, n):
    f = _fields(p, n)
    affine = orbits.affine_square_orbits(f)
    closure = orbits.inversion_closure_orbits(f)
    assert orbits.transitivity_holds(f, affine, closure)
    if p == 2:
        split = orbits.OrbitReport(q=f.q, moves="split", orbit_count=2,
                                   orbit_sizes=(1, f.q * f.q - f.q - 1),
                                   representatives=(f.q, f.q + 1))
        assert not orbits.transitivity_holds(f, split, split)
    else:
        # the affine orbits alone are not merged
        assert not orbits.transitivity_holds(f, affine, affine)
        assert not orbits.transitivity_holds(f, closure, closure)


# -- the table arithmetic the exp/log tables replaced, as their oracle ---------

@functools.cache
def _reference(p, n):
    """k_F's add and mul tables from one polynomial product per pair, and the
    product of k_E on them with y^2 reduced to -b*y - c."""
    f = _fields(p, n)
    q, m = f.q, f.modulus_base
    digits = [f._digits(e) for e in range(q)]
    add = [[f._undigits([(s + t) % p for s, t in zip(d1, d2)]) for d2 in digits]
           for d1 in digits]
    mul = [[f._undigits(orbits._poly_rem(orbits._poly_mul(d1, d2, p), m, p))
            for d2 in digits] for d1 in digits]
    neg = [row.index(0) for row in add]
    c, b, _ = f.modulus_ext

    def product(z1, z2):
        u1, v1 = z1 % q, z1 // q
        u2, v2 = z2 % q, z2 // q
        vv = mul[v1][v2]
        u = add[mul[u1][u2]][mul[vv][neg[c]]]
        v = add[add[mul[u1][v2]][mul[u2][v1]]][mul[vv][neg[b]]]
        return u + q * v
    return add, mul, product


def _reference_power(product, z, k):
    """z^k by square-and-multiply."""
    out = 1
    while k:
        if k & 1:
            out = product(out, z)
        z = product(z, z)
        k >>= 1
    return out


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_base_field_equals_the_polynomial_tables(p, n):
    f = _fields(p, n)
    add, mul, _ = _reference(p, n)
    base = f.base_elements()
    assert f._badd == add
    assert [[f.base_mul(a, b) for b in base] for a in base] == mul
    assert [f.base_inv(a) for a in f.base_units()] == [
        mul[a].index(1) for a in f.base_units()]
    assert [a for a in base if f.is_square_base(a)] == sorted(
        {mul[a][a] for a in f.base_units()})


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_products_equal_the_table_product(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    els = range(f.q_ext)
    assert all(f.mul(z1, z2) == product(z1, z2) for z1 in els for z2 in els)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_powers_equal_square_and_multiply(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    els = range(f.q_ext)
    assert all(f.power(z, k) == _reference_power(product, z, k)
               for z in els for k in els)
    assert [f.frobenius(z) for z in els] == [
        _reference_power(product, z, f.q) for z in els]


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_exp_and_log_are_inverse_bijections(p, n):
    f = _fields(p, n)
    for exp, log, size in ((f._bexp, f._blog, f.q), (f._exp, f._log, f.q_ext)):
        units, order = range(1, size), size - 1
        assert exp == exp[:order] * 2 and len(log) == size and log[0] is None
        assert sorted(exp[:order]) == list(units)
        assert [log[exp[k]] for k in range(order)] == list(range(order))
        assert [exp[log[z]] for z in units] == list(units)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_generators_are_the_least_of_full_order(p, n):
    f = _fields(p, n)
    _, mul, product = _reference(p, n)

    def order(z, times):
        w, k = z, 1
        while w != 1:
            w, k = times(w, z), k + 1
        return k
    assert f._bexp[1] == min(a for a in f.base_units()
                             if order(a, lambda s, t: mul[s][t]) == f.q - 1)
    assert f._exp[1] == f._ext_generator == min(
        z for z in range(1, f.q_ext) if order(z, product) == f.q_ext - 1)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_move_lists_are_the_generating_maps(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    domain = f.nonbase_elements()
    g2 = _reference_power(product, f._ext_generator, 2 * (f.q + 1))
    assert orbits._affine_moves(f) == [[product(g2, z) for z in domain]] + [
        [f.add(z, f.p ** i) for z in domain] for i in range(f.n)]
    for x in orbits.square_root_candidates(f):
        c = f.base_inv(product(x, x))
        assert orbits._inversion_move(f, c) == [f.inv(product(c, z)) for z in domain]
