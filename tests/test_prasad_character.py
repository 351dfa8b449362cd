"""The sign of each Omega element against Prasad's character.

For an unramified quadratic extension, Prasad's character of G(F) is
trivial on G(O_F) and takes the value (-1)^<2rho, lambda_w> on the
representative of w in Omega, where lambda_w is the minuscule coweight of
the special node w(0) (Iwahori-Matsumoto, 1965; Bourbaki, Lie, ch. VI
2.3).  Its pairing with 2rho is the coefficient of alpha_w(0) in the sum of
the positive roots.  So `epsilon_of_omega`, the signature of the node
permutation, is that character exactly when it is (-1) to that
coefficient, taken as +1 when w fixes the affine node.
"""

import pytest

from buildingkit import coxeter
from coxeter_oracle import ALL_TYPES


def two_rho_and_theta(family, rank):
    """2 rho and the highest root theta, as coefficient vectors indexed by
    the nodes 0..d, read off the package's positive roots; entry 0 is 0."""
    roots = coxeter._positive_roots(coxeter._dynkin(family, rank)[0])
    theta = max(roots, key=sum)
    return (0, *map(sum, zip(*roots))), (0, *theta)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_the_sign_of_each_omega_element_is_prasads_character(family, rank):
    two_rho, _ = two_rho_and_theta(family, rank)
    for omega in coxeter.omega_group(family, rank):
        assert coxeter.epsilon_of_omega(omega) == (-1) ** two_rho[omega.perm[0]]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_omega_is_in_bijection_with_the_special_nodes(family, rank):
    # w -> w(0) is one to one onto node 0 and the nodes where the highest
    # root's coefficient is 1, the nodes of the minuscule coweights
    _, theta = two_rho_and_theta(family, rank)
    special = [0] + [i for i in range(1, rank + 1) if theta[i] == 1]
    images = [omega.perm[0] for omega in coxeter.omega_group(family, rank)]
    assert sorted(images) == special


def test_the_character_is_checked_on_every_element():
    # 35 types and 116 elements; some of them take the sign -1, from A3's
    # 4-cycle ((2 rho)_1 = 3) to E7's flip ((2 rho)_7 = 27)
    groups = [coxeter.omega_group(*key) for key in ALL_TYPES]
    assert (len(groups), sum(map(len, groups))) == (35, 116)
    assert two_rho_and_theta("A", 3)[0][1] == 3
    assert two_rho_and_theta("E", 7)[0][7] == 27
    signs = {key: [coxeter.epsilon_of_omega(omega) for omega in group]
             for key, group in zip(ALL_TYPES, groups)}
    assert -1 in signs[("A", 3)] and -1 in signs[("E", 7)]
    assert set(signs[("E", 6)]) == {1}
    # in D_n the two elements that move 0 to a spin node are -1 exactly
    # when n(n - 1)/2 is odd: D6 and D7 of the supported ranks
    for n in range(4, 10):
        spin = [coxeter.epsilon_of_omega(omega)
                for omega in coxeter.omega_group("D", n)
                if omega.perm[0] in (n - 1, n)]
        assert spin == [-1 if n in (6, 7) else 1] * 2
