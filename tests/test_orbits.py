"""Field-pair tables and the orbit closures on the complement of the base field."""

import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buildingkit import cli, errors, orbits
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


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_frobenius_check_refuses_exactly_the_quadratics_with_a_root(p, n, monkeypatch):
    # y^q = -b - y holds exactly when y^2 + b y + c has no root in k_F, found
    # here by trying every t
    add, mul, _ = _reference(p, n)
    q = p ** n
    for c, b in itertools.product(range(q), repeat=2):
        has_root = any(add[add[mul[t][t]][mul[b][t]]][c] == 0 for t in range(q))
        monkeypatch.setattr(orbits.FiniteFieldPair, "_find_ext_modulus",
                            lambda self: (c, b, 1))
        try:
            orbits.build_fields(p, n)
            message = None
        except ModelError as exc:
            message = str(exc)
        assert (message is not None) == has_root, (c, b)
        assert message is None or message.startswith("Frobenius sends y to ")


def test_frobenius_fixes_exactly_the_base_field():
    f = orbits.build_fields(2, 2)
    product = _reference(2, 2)[2]

    def frobenius(z):
        return _reference_power(product, z, f.q)
    fixed = [z for z in range(f.q_ext) if frobenius(z) == z]
    assert fixed == list(f.base_elements())
    for z in range(f.q_ext):
        assert frobenius(frobenius(z)) == z  # z^(q^2) = z


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
                    if w >= f.q:
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


def _square_root_candidates(f):
    """x outside k_F with x^2 in k_F, ascending, by the reference product."""
    product = _reference(f.p, f.n)[2]
    return [z for z in f.nonbase_elements() if product(z, z) < f.q]


def _inversion_constants(f):
    """The distinct c = x^(-2) over the square-root candidates x."""
    product = _reference(f.p, f.n)[2]
    return sorted({f.base_inv(product(x, x)) for x in _square_root_candidates(f)})


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_square_root_candidates_equal_the_brute_force_listing(p, n):
    # the slice of k_E's exp table at the logs (q + 1)/2 mod q + 1; in
    # characteristic 2 squaring is a bijection of k_E mapping k_F onto
    # itself, so no candidate exists
    f = _fields(p, n)
    cands = _square_root_candidates(f)
    if p == 2:
        assert cands == []
        return
    step = f.q + 1
    assert cands == sorted(_ext_tables(p, n)[1][step // 2:f.q_ext - 1:step])
    # the least is q + b/2, at v = 1
    half_b = f.base_mul(f.modulus_ext[1], f.base_inv(2))
    assert orbits.canonical_inversion_data(f)[0] == cands[0] == f.q + half_b


def test_x0_is_the_first_square_root_candidate_the_scan_finds():
    # the oracle scans k_E minus k_F for the first x with x^2 in k_F, one
    # product per step; the closed form q + b/2 must find it on every odd
    # field pair that MAX_Q admits
    pairs = [(p, n) for p in range(3, orbits.MAX_Q + 1) if errors.is_prime(p)
             for n in range(1, 9) if p**n <= orbits.MAX_Q]
    assert len(pairs) == 62
    for p, n in pairs:
        f = orbits.build_fields(p, n)
        scan = next(x for x in f.nonbase_elements() if f.mul(x, x) < f.q)
        assert orbits.canonical_inversion_data(f)[0] == scan, (p, n)


def test_no_square_root_candidate_is_a_model_error(monkeypatch):
    # arithmetic whose squares all lie outside k_F has no x_0, and the closed
    # form q + b/2 gives one whose square lies outside k_F
    f = _fields(3, 1)
    monkeypatch.setattr(orbits.FiniteFieldPair, "mul", lambda self, z1, z2: self.q)
    with pytest.raises(ModelError, match="^x_0\\^2 must be a nonsquare of the base field$"):
        orbits.canonical_inversion_data(f)


def test_square_root_candidates_listing():
    f = orbits.build_fields(3, 1)
    assert _square_root_candidates(f) == [3, 6]
    f = orbits.build_fields(3, 2)
    cands = _square_root_candidates(f)
    assert len(cands) == f.q - 1  # one pair +-x0 per nonsquare of the base
    assert orbits.canonical_inversion_data(f)[0] == min(cands)


@pytest.mark.parametrize("p,n", ODD)
def test_fraction_identity_exhaustive(p, n):
    f = orbits.build_fields(p, n)
    report = orbits.verify_fraction_identity(f)
    assert report.holds
    assert report.n_checked == 2 * f.q * (f.q - 1)
    assert report.n_skipped == 0
    assert (report.x0, report.c) == FROZEN_INVERSION[f.q]


def test_fraction_identity_fails_on_a_wrong_inverse(monkeypatch):
    # the check reaches every nonbase element through inv; one wrong
    # inverse, of y itself, breaks the identity at some pair, and every
    # pair is still checked
    f = orbits.build_fields(7, 1)
    inv = f.inv
    monkeypatch.setattr(f, "inv", lambda z: f.add(inv(z), 1) if z == f.q else inv(z))
    report = orbits.verify_fraction_identity(f)
    assert report.holds is False
    assert report.n_checked == 2 * f.q * (f.q - 1)


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
    # characteristic 2 has no x_0 outside k_F with x_0^2 inside it
    for f in (_fields(*pn) for pn in CHAR2):
        for call, args, message in (
                (orbits.canonical_inversion_data, (f,),
                 "inversion data needs odd characteristic"),
                (orbits.inversion_closure_orbits, (f,),
                 "inversion data needs odd characteristic"),
                (orbits.verify_fraction_identity, (f,),
                 "inversion data needs odd characteristic"),
                (orbits.exists_nonsquare_value, (f, 1),
                 "nonsquare search needs odd characteristic")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(*args)


def test_build_fields_rejects_bad_parameters():
    for p in (4, 18, 256):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            orbits.build_fields(p, 1)
    for p, n in ((3, 6), (17, 2)):  # q = 729 and 289 > 256
        with pytest.raises(ValueError, match=f"^q = p\\^n must be <= 256, got {p ** n}$"):
            orbits.build_fields(p, n)
    for n in (0, 9):
        with pytest.raises(ValueError, match=f"^n must be in 1..8, got {n}$"):
            orbits.build_fields(2, n)
    # p's range is checked first, so a large prime, or one past the
    # deterministic primality test, is refused before any test
    for p in (1, 0, -7, 257, 2**61 - 3, 2**61 - 1, errors._MR_LIMIT):
        with pytest.raises(ValueError, match=f"^p must be in 2..256, got {p}$"):
            orbits.build_fields(p, 1)


def test_bool_degree_is_refused():
    # True == 1, so an unchecked bool would build F_3 with "n": true
    with pytest.raises(ValueError, match="n must be an integer, got True"):
        orbits.build_fields(3, True)
    with pytest.raises(ValueError, match="n must be an integer, got False"):
        orbits.build_fields(3, False)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_norm_of_the_extension_generator_generates_the_base_units(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    g = _reference_power(product, _ext_tables(p, n)[0], f.q + 1)
    assert {_reference_power(product, g, k)
            for k in range(f.q - 1)} == set(f.base_units())


def test_orbit_report_consistency_guard():
    with pytest.raises(ModelError):
        orbits.OrbitReport(q=2, moves="affine-square", orbit_count=1,
                           orbit_sizes=(3,), representatives=(2,))


def test_poly_str_rendering():
    f = orbits.build_fields(2, 2)
    assert cli.poly_str(f.modulus_ext, "y") == "y^2 + 2*y + 1"
    assert cli.poly_str((0, 1), "x") == "x"
    assert cli.poly_str((0,), "x") == "0"


def orbit_json(capsys, p):
    """The document that `orbit --p <p> --format json` prints."""
    assert cli.main(["orbit", "--p", str(p), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_field_json_dict(capsys):
    assert orbit_json(capsys, 2)["fields"] == {
        "schema_version": 1, "p": 2, "n": 1, "q": 2, "q_ext": 4,
        "modulus_base": [0, 1], "modulus_ext": [1, 1, 1],
    }


def test_orbit_report_json_dict(capsys):
    data = orbit_json(capsys, 3)["affine"]
    assert data == {
        "schema_version": 1, "q": 3, "moves": "affine-square",
        "orbit_count": 2, "orbit_sizes": [3, 3], "representatives": [3, 6],
    }


# -- the square classes and the inversion crossing against brute force ---------

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
    classes = orbits._square_classes(f)
    assert _summary(classes) == affine
    # each class ascending, the one holding q first
    assert classes == sorted(map(sorted, classes)) and classes[0][0] == f.q
    if p == 2:  # the affine moves alone are transitive there
        return

    full = orbits.inversion_closure_orbits(f)
    _, c = orbits.canonical_inversion_data(f)
    closure = _summary(_closure_oracle(f, _all_images(f, c)))
    assert (full.orbit_count, full.orbit_sizes, full.representatives,
            {frozenset(f.nonbase_elements())}) == closure


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_every_move_permutes_the_complement(p, n):
    f = _fields(p, n)
    domain = set(f.nonbase_elements())
    cs = set()
    if p != 2:
        cs = _inversion_constants(f)
        assert len(cs) == (f.q - 1) // 2  # one c per nonsquare 1/c
    for a in f.base_units():
        a2 = f.base_mul(a, a)
        for b in f.base_elements():
            assert {f.add(f.mul(a2, z), b) for z in domain} == domain
            for c in cs:
                # the denominator never vanishes on the complement
                a2c = f.base_mul(a2, c)
                assert {f.inv(f.add(f.mul(a2c, z), b)) for z in domain} == domain


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1)])
def test_a_generator_that_does_not_permute_is_refused(p, n, monkeypatch):
    f = _fields(p, n)
    mul = orbits.FiniteFieldPair.mul
    for name, bad in (
            ("inv", lambda self, z: z % self.q),  # lands in the base field
            ("inv", lambda self, z: self.q),      # not injective
            # c x squared: x_0 lands in the base field
            ("mul", lambda self, z1, z2: mul(self, z2, z2))):
        with monkeypatch.context() as m:
            m.setattr(orbits.FiniteFieldPair, name, bad)
            with pytest.raises(ModelError, match="^a generating move does not "
                                                 "permute k_E minus k_F$"):
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
    if p != 2:
        calls.clear()
        orbits.inversion_closure_orbits(f)
        assert len(calls) <= 8 * f.q ** 3


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_field_build_makes_linearly_many_polynomial_products(p, n, monkeypatch):
    # the only products are by x: row p^i of mul is row p^(i-1) times x, a
    # digit shift reduced mod m_base once per element, and every other row a
    # sum of rows; a table of every pair's product would reduce q^2 products
    # of 2n - 1 digits
    f = _fields(p, n)
    reduced = []
    rem = orbits._poly_rem
    monkeypatch.setattr(orbits, "_poly_rem",
                        lambda g, m, p: reduced.append(g) or rem(g, m, p))
    assert f._base_tables() == (f._badd, f._bmul)
    assert len(reduced) == f.q
    assert all(len(g) == n + 1 and g[0] == 0 for g in reduced)


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
    product = _reference(*pn)[2]

    def frobenius(z):
        return _reference_power(product, z, f.q)
    assert frobenius(f.add(x, y)) == f.add(frobenius(x), frobenius(y))
    assert frobenius(f.mul(x, y)) == f.mul(frobenius(x), frobenius(y))
    assert frobenius(a) == a


ALL_ODD = ODD + [(11, 1), (13, 1)]


@pytest.mark.parametrize("p,n", ALL_ODD)
def test_every_c_gives_the_canonical_partition(p, n, monkeypatch):
    # the oracle for the single closure: the brute-force closure at each
    # distinct c, which the report computed at that c also equals
    f = _fields(p, n)
    closure = orbits.inversion_closure_orbits(f)
    _, c0 = orbits.canonical_inversion_data(f)
    cs = _inversion_constants(f)
    assert c0 in cs and len(cs) == (f.q - 1) // 2
    for c in cs:
        assert _summary(_closure_oracle(f, _all_images(f, c))) == (
            closure.orbit_count, closure.orbit_sizes, closure.representatives,
            {frozenset(f.nonbase_elements())})
        monkeypatch.setattr(orbits, "canonical_inversion_data",
                            lambda fields, c=c: (None, c))
        assert orbits.inversion_closure_orbits(f) == closure


@pytest.mark.parametrize("p,n", ALL_ODD)
def test_the_norm_proves_the_inversion_crossing(p, n):
    # the proof in `inversion_closure_orbits`: J_c(u + v y) has y-coordinate
    # -v/(c N(x)) for N(x) = x^(q+1), N takes every unit of k_F outside k_F,
    # so every nonzero c sends some x into the other square class
    f = _fields(p, n)
    product = _reference(p, n)[2]
    norms = {x: _reference_power(product, x, f.q + 1) for x in f.nonbase_elements()}
    assert set(norms.values()) == set(f.base_units())
    for c in f.base_units():
        crossed = False
        for x, norm in norms.items():
            v, w = x // f.q, f.inv(f.mul(c, x)) // f.q
            assert w == f.base_mul(f.neg(v), f.base_inv(f.base_mul(c, norm)))
            crossed |= f.is_square_base(v) != f.is_square_base(w)
        assert crossed


@pytest.mark.parametrize("p,n", ALL_ODD)
def test_closure_runs_once(p, n, monkeypatch):
    # one pass: J_c is taken once for each x, at the canonical c only, and
    # the square classes are read once
    f = _fields(p, n)
    _, c = orbits.canonical_inversion_data(f)
    inverted, split = [], []
    inv, classes = orbits.FiniteFieldPair.inv, orbits._square_classes
    monkeypatch.setattr(orbits.FiniteFieldPair, "inv",
                        lambda self, z: inverted.append(z) or inv(self, z))
    monkeypatch.setattr(orbits, "_square_classes",
                        lambda fields: split.append(1) or classes(fields))
    orbits.inversion_closure_orbits(f)
    assert sorted(inverted) == sorted(f.mul(c, x) for x in f.nonbase_elements())
    assert len(split) == 1


@pytest.mark.parametrize("p,n", ALL_ODD)
def test_ratios_of_inversion_constants_are_squares(p, n):
    # the admissible c differ by squares s of k_F, and J_c'(x) = J_c(s x)
    f = _fields(p, n)
    mul = _reference(p, n)[1]
    squares = {mul[t][t] for t in f.base_units()}
    cs = _inversion_constants(f)
    for c, c2 in itertools.product(cs, repeat=2):
        s = f.base_mul(c2, f.base_inv(c))
        assert s in squares
        assert all(f.inv(f.mul(c2, z)) == f.inv(f.mul(c, f.mul(s, z)))
                   for z in f.nonbase_elements())


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_transitivity_verdict(p, n, monkeypatch):
    f = _fields(p, n)
    claim = orbits.orbit_claim(f)
    assert claim.transitive and claim.ok
    if p == 2:
        # characteristic 2 has no inversion moves: the closure is the affine report
        assert claim.closure is claim.affine
        assert claim.identity is None and claim.witness is None
    else:
        assert claim.identity == orbits.verify_fraction_identity(f)
        assert claim.witness == orbits.exists_nonsquare_value(f, claim.identity.c)
    split = orbits.OrbitReport(q=f.q, moves="split", orbit_count=2,
                               orbit_sizes=(1, f.q * f.q - f.q - 1),
                               representatives=(f.q, f.q + 1))
    # refused: an affine split in characteristic 2; an unmerged closure, and
    # affine orbits that are not two halves, in odd characteristic
    refused = ([("affine_square_orbits", split)] if p == 2 else
               [("inversion_closure_orbits", claim.affine),
                ("affine_square_orbits", split),
                ("affine_square_orbits", claim.closure)])
    for name, report in refused:
        with monkeypatch.context() as m:
            m.setattr(orbits, name, lambda fields: report)
            wrong = orbits.orbit_claim(f)
        assert not wrong.transitive and not wrong.ok, name
        # the identity and the witness are the claim's own all the same
        assert wrong[3:5] == claim[3:5]


# -- the table arithmetic and k_E's exp/log tables, as the oracle -------------

def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return out


@functools.cache
def _reference(p, n):
    """k_F's add and mul tables from one polynomial product per pair, and the
    product of k_E on them with y^2 reduced to -b*y - c."""
    f = _fields(p, n)
    q, m = f.q, f.modulus_base
    digits = [f._digits(e) for e in range(q)]
    add = [[f._undigits([(s + t) % p for s, t in zip(d1, d2)]) for d2 in digits]
           for d1 in digits]
    mul = [[f._undigits(orbits._poly_rem(_poly_mul(d1, d2, p), m, p))
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


@functools.cache
def _ext_tables(p, n):
    """k_E's exp and log tables from the reference product: the least z of
    order q^2 - 1 (none lies in k_F), exp[k] = z^k for k < 2(q^2 - 1) and
    log its inverse on the units."""
    f, product, order = _fields(p, n), _reference(p, n)[2], p ** (2 * n) - 1
    for g in f.nonbase_elements():
        exp, z = [1], g
        while z != 1 and len(exp) < order:
            exp.append(z)
            z = product(z, g)
        if z == 1 and len(exp) == order:
            log = [None] * (order + 1)
            for k, z in enumerate(exp):
                log[z] = k
            return g, exp + exp, log


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_exp_and_log_are_inverse_bijections(p, n):
    # k_E's units are cyclic under the pair product: one unit of order
    # q^2 - 1 lists them all
    f = _fields(p, n)
    _, exp, log = _ext_tables(p, n)
    units, order = range(1, f.q_ext), f.q_ext - 1
    assert log[0] is None
    assert exp == exp[:order] * 2 and len(log) == f.q_ext
    assert sorted(exp[:order]) == list(units)
    assert [log[exp[k]] for k in range(order)] == list(range(order))
    assert [exp[log[z]] for z in units] == list(units)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_generators_are_the_least_of_full_order(p, n):
    f = _fields(p, n)
    product = _reference(p, n)[2]
    g, exp, _ = _ext_tables(p, n)

    def order(z):
        w, k = z, 1
        while w != 1:
            w, k = product(w, z), k + 1
        return k
    assert exp[1] == g == min(z for z in range(1, f.q_ext) if order(z) == f.q_ext - 1)


# -- the fields past the old cap of 16, against polynomial arithmetic ----------

# every field pair with 16 < q <= 256, which MAX_Q = 256 admits
BIG_FIELDS = [(p, n) for n in range(1, 9) for p in range(2, 257)
              if errors.is_prime(p) and 16 < p ** n <= 256]


def _poly_product(f, a, b):
    """a b in k_F by one polynomial product, with no table."""
    p = f.p
    return f._undigits(orbits._poly_rem(
        _poly_mul(f._digits(a), f._digits(b), p), f.modulus_base, p))


def _digit_sum(f, a, b, sign=1):
    return f._undigits([(s + sign * t) % f.p for s, t in zip(f._digits(a), f._digits(b))])


def _pair_product(f, z1, z2):
    """(u1 + v1 y)(u2 + v2 y) with y^2 = -b y - c, by polynomial products."""
    q, (c, b, _) = f.q, f.modulus_ext
    (v1, u1), (v2, u2) = divmod(z1, q), divmod(z2, q)
    vv = _poly_product(f, v1, v2)
    u = _digit_sum(f, _poly_product(f, u1, u2), _poly_product(f, c, vv), -1)
    v = _digit_sum(f, _digit_sum(f, _poly_product(f, u1, v2), _poly_product(f, u2, v1)),
                   _poly_product(f, b, vv), -1)
    return u + q * v


def test_the_big_fields_are_every_prime_power_past_sixteen():
    assert len(BIG_FIELDS) == 60
    assert {p ** n for p, n in BIG_FIELDS} >= {17, 25, 27, 32, 243, 251, 256}


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(BIG_FIELDS))
@example((3, 5))
@example((251, 1))
@example((2, 8))
def test_orbit_answers_past_sixteen_are_the_proved_ones(pn):
    f = _fields(*pn)
    q, half = f.q, (f.q * f.q - f.q) // 2
    squares = {_poly_product(f, t, t) for t in f.base_units()}
    affine = orbits.affine_square_orbits(f)
    if f.p == 2:
        assert squares == set(f.base_units())
        assert (affine.orbit_sizes, affine.representatives) == ((2 * half,), (q,))
        return
    least_nonsquare = min(set(f.base_units()) - squares)
    assert (affine.orbit_sizes, affine.representatives) == (
        (half, half), (q, q * least_nonsquare))
    closure = orbits.inversion_closure_orbits(f)
    assert (closure.orbit_sizes, closure.representatives) == ((2 * half,), (q,))
    identity = orbits.verify_fraction_identity(f)
    assert identity.holds and identity.n_skipped == 0
    assert identity.n_checked == 2 * q * (q - 1)
    a, b = orbits.exists_nonsquare_value(f, identity.c)
    a2c = _poly_product(f, _poly_product(f, a, a), identity.c)
    inv_a2c = next(t for t in f.base_units() if _poly_product(f, a2c, t) == 1)
    value = _digit_sum(f, _poly_product(f, a, a),
                       _poly_product(f, _poly_product(f, b, b), inv_a2c), -1)
    assert value != 0 and value not in squares


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BIG_FIELDS), st.integers(min_value=0), st.integers(min_value=0),
       st.integers(min_value=0))
def test_field_axioms_hold_past_sixteen(pn, x, y, w):
    f = _fields(*pn)
    x, y, w = x % f.q_ext, y % f.q_ext, w % f.q_ext
    assert f.mul(x, y) == _pair_product(f, x, y) == f.mul(y, x)
    assert f.add(x, y) == f.add(y, x)
    assert f.add(f.add(x, y), w) == f.add(x, f.add(y, w))
    assert f.mul(f.mul(x, y), w) == f.mul(x, f.mul(y, w))
    assert f.mul(x, f.add(y, w)) == f.add(f.mul(x, y), f.mul(x, w))
    assert f.add(x, 0) == x and f.mul(x, 1) == x and f.mul(x, 0) == 0
    assert f.add(x, f.neg(x)) == 0 and f.sub(f.add(x, y), y) == x
    if x:
        assert f.mul(x, f.inv(x)) == 1
    a, b = x % f.q, y % f.q
    assert f.add(a, b) == _digit_sum(f, a, b) < f.q
    assert f.base_mul(a, b) == _poly_product(f, a, b)


# -- the canonical choices of every admitted field, pinned ----------------------

# every field pair that MAX_Q = 256 admits, 2 <= q <= 256
EVERY_FIELD = [(p, n) for p in range(2, orbits.MAX_Q + 1) if errors.is_prime(p)
               for n in range(1, 9) if p ** n <= orbits.MAX_Q]

# sha256 of repr((modulus_base, modulus_ext, x_0, c, affine representatives,
# nonsquare witness)), with None for the three odd-characteristic choices at
# p = 2.  A rebuilt k_F must make the same least choices on every field, not
# only on the q <= 16 that the refs pin
CANONICAL_CHOICES_SHA256 = {
    (2, 1): "4fe0d2e6f1a54324a8c5ceef8c48a2179898e20069ea88df0d8aba3731488cdd",
    (2, 2): "4211070d8970758041acc9f806da43563e73d5b8b5676501d1bd40dce083c750",
    (2, 3): "2a2ceb1567b7754b7fd6230ada9b528cf392a4a21a666ac511a9545dee9adde9",
    (2, 4): "058fcf648030f07879d8d09b0af8804cd800cbcef40979f11f30d932182d1c43",
    (2, 5): "8f1f8cd0512ddb27822fe448af218db3253cb08a388959ccc4ac74cc8725aacd",
    (2, 6): "4b1494753fd2d7c6fc768ac98bcf2c0ff8b186142223643ee21cec3e28889cca",
    (2, 7): "a938339be6f5ff04940e3236701cd8523893bdc52b22b014160a0dce6ca8dfbc",
    (2, 8): "162bad54af09f87902da9e3e54e699817ee82389a173c7196a2f81726516122e",
    (3, 1): "7bd47eed8d3f1cbee0aad02d4affb9b0b2c48f17c4345e9005f38f687aea688f",
    (3, 2): "d587d23f17f9fe6d14466f05e5a3e461474b8c21ecb0e77c19d465e220c05da2",
    (3, 3): "e9ae006770b0f8d56f330415510d1ba28c4850b9931559f1ec074ed4e5601166",
    (3, 4): "02e2d25ae5e78c2146762bcc101023d309c4b34005f9d22f6516b86b5afe145f",
    (3, 5): "d5193bd879315745a747be5cabbf25d10d477864b5a26873a1b14748f4450a42",
    (5, 1): "5ef2706dc0514f0f9925263c1329fabfdfd4e10a67bf5f7107027a3d1a7692ec",
    (5, 2): "97e7522c7441ba22179e3dd95eb2df953a2a2d0ff8aa31c6b3136076b6ba53d7",
    (5, 3): "ebf68a0acb5b196d49a3ac302d1f9884ee1bb2242b4bc67578fc7ed04674a5cb",
    (7, 1): "e556de18ac71330025ab02fc25e6cf1af528fd601cae8cf350629f7793c48550",
    (7, 2): "a912ba2935cbbb2e59b5be7770c00387b0bfd08ba92c6f7d91b7eeb8be113afc",
    (11, 1): "00845355771a49d37b17a841f44af6b42ced90d1d7f08c2b89b3b414acd6afd0",
    (11, 2): "df01d4fa38f61fceb127beb5787b85f6a8ada82062a1b2d0f9580a8d3c7775a4",
    (13, 1): "e6469e9bfaa3918a68937a8f976d31ed80cfaabcc77d4d92b472ff63149bbf6f",
    (13, 2): "9e200f2f576871d994e32645d3431ad728c58ed0c28c44a3e783197a2626f99d",
    (17, 1): "6bfd4706ddc345609280e610150682b3bc350bd1705d05cdd86d881d1fadff00",
    (19, 1): "b6a3624a0dbcb6e223170f9baf926f81191506da47b2ae786f3eeabf7e0cc2a0",
    (23, 1): "6d427661dcd2e3c7169ce714359e08d44c202f29d580f7cf054b5f6ad3c8253d",
    (29, 1): "7321140386ed3a89a8c630b4697995947aaa19aecdc63566db90fe0dd46efa70",
    (31, 1): "cedf51c91735ff9c9448a97a9e061bc8efb04a49f0be43850f33852550ed70ca",
    (37, 1): "16eaa355f944651d6c0ce7b64d767fb212185977b8b418d6304d48996eae7424",
    (41, 1): "1c03c6eb8e99a50668a5e28e26219091e82f018cd9d49997612d8416d00b3512",
    (43, 1): "5093f645ac0a939b02844b8b954328c0bb5b16234af04cf7fe131480d27a6752",
    (47, 1): "47742eec508744b3c5f87bb63016fd5e3836dd781441428165c2bc8dec547365",
    (53, 1): "82b6003c37f1ee0d3ec968c80852207cbf4bd9439cc05f2be82c9d6bf845ef72",
    (59, 1): "c38f2838f0009a22d188085a236a4cbf51b16ca0fa4901166c6c8a41f350fd7e",
    (61, 1): "931ed1518a0f3a515e12d20a9a9755ccbc59663e26d8866cda63764260b230d8",
    (67, 1): "84680ef0fac1c20dcccae598101b37eee25986473d92de284074678a6c8d532c",
    (71, 1): "8cbd1589fdc794c243997d047a93a06ebe6d26c6381a07c5cea1861a44ad6bf0",
    (73, 1): "b6575f909b86be7418adf15d4e2bc3bc23cb150f7b2c758358c0a911a08e80ea",
    (79, 1): "f85ea45d34e72f82ed1130828e0a1ecdbd9a8b2415631e7278610948d1bff310",
    (83, 1): "313854676b549f1cb7f67d9c1beb0792227d2dbe618933504a9344e9a27968fd",
    (89, 1): "661e3f5f6c0a987d31e0bd49f24226639f3066fc8456c6fe4997286b53116790",
    (97, 1): "b85e2724c8aea0db9f856c49e77549c53bbf7e60479273697a8f4967f232ca95",
    (101, 1): "4b948c957129a5665799217d18eeb7c88d3972e428a4e02a6192d4d791e2706e",
    (103, 1): "3ed3f6825e15268c5d1e16d0d0258eb4904ba2f7f15d9819aa8aec928dd92368",
    (107, 1): "3d84e76e12e3ebd8091452d3c8dcb83f4e9f411d01881694c30dd6cf073e0fb6",
    (109, 1): "3cbe1095ca95d2ad10e92fd287bdac5eb04f7d5a0771dea0e12759f56cdc69f8",
    (113, 1): "f4c079e2f1c9fcf1a78b90cee56d48b93b76adab1e82cbf9f39b3a500d2eb318",
    (127, 1): "ecc5924aaa463142828f8c69b36e68d6b821d6d6bf545074123f963b663da29e",
    (131, 1): "3f948766aff5c0bf74cb4136b85f2355a7b155c30c966c68a093bf1a7b1a9362",
    (137, 1): "3eb22feb5c0861db2ef637d9e191b68e3f593df1486977330c234916c55e9e6a",
    (139, 1): "25486606d4f95cbc974cb5a463cbd7f4ec4f2392be6cf244183df434907124bd",
    (149, 1): "001762bce9912036218c1019ab04fd5ad6ad1f4331b57c9917e61983306a4da6",
    (151, 1): "9f62f79e3d7f906271f37085e7d3a8f892e13511bf1adc810c4f1094f10891f2",
    (157, 1): "efbc73e5a3d5352debea80a54d1294b349503c59140046184aeddadbc1a37a91",
    (163, 1): "8b464fcbd89ccd2b7cc2ab0b11f6136516c5e07dbfa2895175cca3bea98babf8",
    (167, 1): "0ad545bcb6b7e41873c3ba6ea65a25494c305a520b55b84b696112d57cd3f093",
    (173, 1): "137a1d36d2da9e8682edca37cdb60c5c095156d0c3c8f0d42bdc1d4218babb2f",
    (179, 1): "8cf7534dd9034f5e080f2e9a8fe976968b13234f0be62c969b2c5dc1e3003ff6",
    (181, 1): "8843e48af21b5095bf6f013840b83cfdef0af8a75bd2d2ea3b80efbdfb24e455",
    (191, 1): "6cb3a58d4828d76d65638a4b8e6ec012cf97f22224a40fce4235620cdc81b666",
    (193, 1): "6735e841a6c2d39b23b83ae837454aa2770005a956c725fcc88ae734e5fbea75",
    (197, 1): "6852aeda660d4bd05264df10bedd2e35b6ff0821506e2743f3a152c11e7f3d36",
    (199, 1): "0c4fe8977b28c07574b344710b595c1de4a1516b85078500b1b1584cdd5ca558",
    (211, 1): "b01bcc330786dec1e08f703bcea69443b2d684bfd61d0b05c3ce72f9102ac081",
    (223, 1): "454cab957a64217a6c70bff0bb6fe376866ab5e5d16397dfd8910cb6cf706bbc",
    (227, 1): "852a3ea85d497ed9f1f38813aca2f9fa5e2398453a75438a95fd43126854edf3",
    (229, 1): "df182778871919426c0484bedb0fe154654caf8578e50d21b1fcc8c5bdf34a1f",
    (233, 1): "28b49320b61477812e33c18b7c7b92c54407fbfb014cca6d406f8fc56c1a2872",
    (239, 1): "4e420815435f27b97bc3fbcf482dd3d7eaf3a0d082a7fffa74889fe7a7d341d9",
    (241, 1): "1321aaf49a4515dc309c0afd51d3e3a727bee586c7c2175a43d29e5924130a9f",
    (251, 1): "341179239a6edbde195f4ab0101452df59b849fc4808cdba5d9d3282e3d956b2",
}


def _canonical_choices(f):
    x0 = c = witness = None
    if f.p != 2:
        x0, c = orbits.canonical_inversion_data(f)
        witness = orbits.exists_nonsquare_value(f, c)
    return (f.modulus_base, f.modulus_ext, x0, c,
            orbits.affine_square_orbits(f).representatives, witness)


def test_canonical_choices_of_every_field_are_pinned():
    assert len(EVERY_FIELD) == len(CANONICAL_CHOICES_SHA256) == 70
    for p, n in EVERY_FIELD:
        choices = _canonical_choices(orbits.build_fields(p, n))
        digest = hashlib.sha256(repr(choices).encode()).hexdigest()
        assert digest == CANONICAL_CHOICES_SHA256[(p, n)], (p, n)
