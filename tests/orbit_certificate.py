"""The orbit claim at an odd prime q, certified with no tables.

At a prime q, k_F is the integers mod q and k_E is k_F[y]/(y^2 + b y + c')
for the least (c', b), constant first, whose discriminant b^2 - 4c' is a
nonsquare.  Each part of `orbits.orbit_claim` has a short proof that needs a
few field operations and one small search, with the square classes read off
Euler's criterion:

- the affine orbits are the square classes of v in x = u + v y, represented
  by q (v = 1) and q v_ns, for v_ns the least nonsquare;
- x_0 = q + b/2 has x_0^2 = b^2/4 - c' in k_F, and c = 1/x_0^2;
- J_c(u + y) = 1/(c (u + y)) has y-coordinate -1/(c N) for the norm
  N = u^2 - b u + c', so the first u where that is a nonsquare gives an x
  that J_c sends into the other class;
- check 10's witness is the first (a, b) with a^2 - b^2/(a^2 c) a nonzero
  nonsquare.

Each search stops at its first hit, which comes early (at q = 2^61 - 1 the
crossing is u = 4 and the witness (1, 4)), so the certificate answers at any
odd prime; the tests compare it with `orbit_claim` at the primes `orbit`
admits.
"""

from collections import namedtuple

Certificate = namedtuple("Certificate",
                         "q modulus_ext x0 c representatives crossing witness")


def is_nonsquare(a, q):
    """Euler's criterion: a^((q - 1)/2) is -1 exactly at the nonsquares mod q."""
    return pow(a, (q - 1) // 2, q) == q - 1


def crosses(q, modulus_ext, c, u):
    """Whether J_c sends u + y, in the class of the squares, to a nonsquare
    y-coordinate -1/(c N); it has the class of -c N, N = u^2 - b u + c'."""
    c_ext, b, _ = modulus_ext
    return is_nonsquare(-c * (u * u - b * u + c_ext) % q, q)


def certificate(q):
    """The Certificate of the field pair at an odd prime q."""
    # c' = 0 gives y (y + b), never irreducible
    c_ext, b = next((c, b) for c in range(1, q) for b in range(q)
                    if is_nonsquare((b * b - 4 * c) % q, q))
    half_b = b * (q + 1) // 2 % q
    c = pow((half_b * half_b - c_ext) % q, -1, q)
    v_ns = next(v for v in range(2, q) if is_nonsquare(v, q))
    u = next(u for u in range(q) if crosses(q, (c_ext, b, 1), c, u))
    witness = next((a, s) for a in range(1, q) for s in range(q)
                   if is_nonsquare((a * a - s * s * pow(a * a * c, -1, q)) % q, q))
    return Certificate(q, (c_ext, b, 1), q + half_b, c, (q, q * v_ns), q + u, witness)
