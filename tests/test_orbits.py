"""Field-pair tables and the orbit closures on the complement of the base field."""

import functools
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
                 "inversion closure needs odd characteristic"),
                (orbits.verify_fraction_identity, (f,),
                 "identity check needs odd characteristic"),
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
    f = _fields(p, n)
    # k_F's exp ends in zeros that its log of 0 lands every product with 0 in
    order = f.q - 1
    assert f._bexp[2 * order:] == [0] * (2 * order + 1) and f._blog[0] == 2 * order
    _, ext_exp, ext_log = _ext_tables(p, n)
    assert ext_log[0] is None
    for exp, log, size in ((f._bexp[:2 * order], f._blog, f.q),
                           (ext_exp, ext_log, f.q_ext)):
        units, order = range(1, size), size - 1
        assert exp == exp[:order] * 2 and len(log) == size
        assert sorted(exp[:order]) == list(units)
        assert [log[exp[k]] for k in range(order)] == list(range(order))
        assert [exp[log[z]] for z in units] == list(units)


@pytest.mark.parametrize("p,n", ALL_FIELDS)
def test_generators_are_the_least_of_full_order(p, n):
    f = _fields(p, n)
    _, mul, product = _reference(p, n)
    g, ext_exp, _ = _ext_tables(p, n)

    def order(z, times):
        w, k = z, 1
        while w != 1:
            w, k = times(w, z), k + 1
        return k
    assert f._bexp[1] == min(a for a in f.base_units()
                             if order(a, lambda s, t: mul[s][t]) == f.q - 1)
    assert ext_exp[1] == g == min(
        z for z in range(1, f.q_ext) if order(z, product) == f.q_ext - 1)


# -- the fields past the old cap of 16, against polynomial arithmetic ----------

# every field pair with 16 < q <= 256, which MAX_Q = 256 admits
BIG_FIELDS = [(p, n) for n in range(1, 9) for p in range(2, 257)
              if errors.is_prime(p) and 16 < p ** n <= 256]


def _poly_product(f, a, b):
    """a b in k_F by one polynomial product, with no table."""
    p = f.p
    return f._undigits(orbits._poly_rem(
        orbits._poly_mul(f._digits(a), f._digits(b), p), f.modulus_base, p))


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
