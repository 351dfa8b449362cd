"""The table-free orbit certificate against `orbit_claim` at every odd prime q."""

from buildingkit import errors, orbits
from orbit_certificate import certificate, crosses, is_nonsquare

ODD_PRIMES = [q for q in range(3, orbits.MAX_Q + 1) if errors.is_prime(q)]


def test_the_certificate_is_the_orbit_claim_at_every_odd_prime():
    assert len(ODD_PRIMES) == 53
    for q in ODD_PRIMES:
        cert, f = certificate(q), orbits.build_fields(q, 1)
        claim = orbits.orbit_claim(f)
        assert claim.ok, q
        assert [is_nonsquare(a, q) for a in f.base_units()] == [
            not f.is_square_base(a) for a in f.base_units()], q
        assert (cert.modulus_ext, cert.x0, cert.c, cert.representatives,
                cert.witness) == (f.modulus_ext, claim.identity.x0, claim.identity.c,
                                  claim.affine.representatives, claim.witness), q
        # J_c on the row v = 1, whose points lie in the class of the squares
        row = [f.is_square_base(f.inv(f.mul(cert.c, q + u)) // q) for u in range(q)]
        assert [crosses(q, cert.modulus_ext, cert.c, u) for u in range(q)] == [
            not square for square in row], q
        assert cert.crossing == q + row.index(False), q
