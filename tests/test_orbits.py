"""Field-pair tables and the orbit closures on the complement of the base field."""

import pytest

from buildingkit import orbits
from buildingkit.errors import ModelError

CHAR2 = [(2, 1), (2, 2), (2, 3), (2, 4)]
ODD = [(3, 1), (5, 1), (7, 1), (3, 2)]

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
        assert f.base_add(f.base_add(f.base_mul(t, t), f.base_mul(b, t)), c) != 0


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


@pytest.mark.parametrize("p,n", ODD)
def test_odd_affine_orbits_are_squareness_classes(p, n):
    f = orbits.build_fields(p, n)
    report = orbits.affine_square_orbits(f)
    half = (f.q * f.q - f.q) // 2
    assert report.orbit_count == 2
    assert report.orbit_sizes == (half, half)

    def affine_images(z):
        for a in f.base_units():
            a2 = f.base_mul(a, a)
            for b in f.base_elements():
                yield f.add(f.mul(a2, z), b)

    groups = _closure_oracle(f, affine_images)
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

    def all_images(z):
        for a in f.base_units():
            a2 = f.base_mul(a, a)
            a2c = f.base_mul(a2, c)
            for b in f.base_elements():
                yield f.add(f.mul(a2, z), b)
                den = f.add(f.mul(a2c, z), b)
                if den != 0:
                    w = f.inv(den)
                    if not f.in_base(w):
                        yield w

    assert len(_closure_oracle(f, all_images)) == 1


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


def test_fraction_identity_sampling_cap():
    f = orbits.build_fields(3, 1)
    report = orbits.verify_fraction_identity(f, samples=5)
    assert report.n_checked == 5
    assert report.holds


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
