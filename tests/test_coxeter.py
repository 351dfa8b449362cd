"""Affine system construction, growth enumeration, finite-part data, Omega."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildingkit import cache, coxeter, period
from buildingkit.coxeter import (FAMILIES, INFINITE_ORDER, MAX_RANK,
                                 build_affine_system, epsilon_of_omega,
                                 exponents, growth_coefficients,
                                 growth_from_exponents, omega_group,
                                 poincare_finite)
from buildingkit.errors import BudgetError, InvalidTypeError, ModelError
from buildingkit.suite import OMEGA_GRID
from coxeter_oracle import ALL_TYPES, certified_generators, comarks

# classical data, frozen independently of the implementation; the
# classical families of rank 6..9 follow the tables' closed forms
# (Humphreys, Reflection Groups and Coxeter Groups, 3.7 and 3.18)
N_POSITIVE_ROOTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 5): 15,
    ("B", 3): 9, ("B", 4): 16, ("B", 5): 25,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
    **{("A", n): n * (n + 1) // 2 for n in range(6, 10)},
    **{(f, n): n * n for f in "BC" for n in range(6, 10)},
    **{("D", n): n * (n - 1) for n in range(6, 10)},
}

CLASSICAL_EXPONENTS = {
    ("A", 1): (1,), ("A", 2): (1, 2), ("A", 3): (1, 2, 3),
    ("A", 4): (1, 2, 3, 4), ("A", 5): (1, 2, 3, 4, 5),
    ("B", 3): (1, 3, 5), ("B", 4): (1, 3, 5, 7), ("B", 5): (1, 3, 5, 7, 9),
    ("C", 2): (1, 3), ("C", 3): (1, 3, 5), ("C", 4): (1, 3, 5, 7),
    ("C", 5): (1, 3, 5, 7, 9),
    ("D", 4): (1, 3, 3, 5), ("D", 5): (1, 3, 4, 5, 7),
    ("E", 6): (1, 4, 5, 7, 8, 11), ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11), ("G", 2): (1, 5),
    **{("A", n): tuple(range(1, n + 1)) for n in range(6, 10)},
    **{(f, n): tuple(range(1, 2 * n, 2)) for f in "BC" for n in range(6, 10)},
    **{("D", n): tuple(sorted((*range(1, 2 * n - 2, 2), n - 1)))
       for n in range(6, 10)},
}

# the coset walks reach every finite group, with no budget: E8 (696,729,600
# elements) walks 356 points
ENUMERABLE = sorted(ALL_TYPES)
assert ENUMERABLE == sorted(CLASSICAL_EXPONENTS)

# sphere sizes through K = 12, frozen from two independent oracles that agree:
# expansion of the classical finite length polynomial times the geometric
# factors of the exponents, and direct word-product enumeration at small k
GROWTH_K12 = {
    ("A", 1): (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    ("A", 2): (1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36),
    ("A", 3): (1, 4, 10, 20, 34, 52, 74, 100, 130, 164, 202, 244, 290),
    ("C", 2): (1, 3, 5, 8, 11, 13, 16, 19, 21, 24, 27, 29, 32),
    ("G", 2): (1, 3, 5, 7, 9, 12, 15, 17, 19, 21, 24, 27, 29),
}

# comarks (coroot coefficients of the highest coroot) from Kac's tables, and
# the dual Coxeter number h^vee = 1 + sum of comarks
KAC_COMARKS = {
    ("E", 6): (1, 2, 2, 3, 2, 1), ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2), ("F", 4): (2, 3, 2, 1), ("G", 2): (1, 2),
    **{("B", n): (1,) + (2,) * (n - 2) + (1,) for n in range(3, 10)},
    **{("C", n): (1,) * n for n in range(2, 10)},
}
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
                "C": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                "E": {6: 12, 7: 18, 8: 30}.get, "F": lambda n: 9,
                "G": lambda n: 4}

OMEGA_ORDERS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5,
    ("B", 3): 2, ("C", 2): 2, ("C", 3): 2,
    ("D", 4): 4, ("D", 5): 4,
    ("E", 6): 3, ("E", 7): 2, ("E", 8): 1,
    ("F", 4): 1, ("G", 2): 1,
}


@pytest.mark.parametrize("family,rank", sorted(N_POSITIVE_ROOTS))
def test_construction_and_root_counts(family, rank):
    # test_generators_certify_the_coxeter_matrix checks the pair orders
    system = build_affine_system(family, rank)
    assert system.n_positive_roots == N_POSITIVE_ROOTS[(family, rank)]
    m = system.coxeter_matrix
    assert len(m) == rank + 1
    for i in range(rank + 1):
        assert m[i][i] == 1
        for j in range(rank + 1):
            assert m[i][j] == m[j][i]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_generators_certify_the_coxeter_matrix(family, rank):
    # each generator is an involution and each pair product has the order
    # of the Coxeter matrix, or certified_generators raises ModelError
    assert len(certified_generators(family, rank)) == rank + 1


def test_certified_types_are_every_accepted_type():
    accepted = []
    for family in FAMILIES:
        for rank in range(1, MAX_RANK + 2):
            try:
                coxeter._check_type(family, rank)
            except InvalidTypeError:
                continue
            accepted.append((family, rank))
    assert sorted(ALL_TYPES) == accepted


@pytest.mark.parametrize("key", sorted(KAC_COMARKS))
def test_comarks_match_kac_tables(key):
    assert comarks(*key) == KAC_COMARKS[key]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_dual_coxeter_number(family, rank):
    assert 1 + sum(comarks(family, rank)) == DUAL_COXETER[family](rank)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_affine_cartan_matrix_annihilates_the_comarks(family, rank):
    # the canonical central element sum_j comark_j alpha_j^vee pairs to zero
    # with every simple root, alpha_0 included; the walk moves by these columns
    system = build_affine_system(family, rank)
    a = system.cartan_matrix
    central = (1,) + comarks(family, rank)
    assert [sum(x * c for x, c in zip(row, central)) for row in a] == [0] * (rank + 1)
    assert all(a[i][i] == 2 for i in range(rank + 1))


def test_affine_node_tells_b_from_c():
    # the affine node of B3~ hangs off node 2; that of C3~ meets node 1 with
    # order 4, so transposing the long/short convention would swap these rows
    assert build_affine_system("B", 3).coxeter_matrix[0] == (1, 2, 3, 2)
    assert build_affine_system("C", 3).coxeter_matrix[0] == (1, 4, 2, 2)


def test_rank1_matrix_is_infinite_dihedral():
    system = build_affine_system("A", 1)
    assert INFINITE_ORDER == 0
    assert system.coxeter_matrix == ((1, INFINITE_ORDER), (INFINITE_ORDER, 1))


def test_rank2_triangle_groups():
    # affine C2 is the (4,4,2) triangle group, affine G2 the (6,3,2) one
    assert build_affine_system("C", 2).coxeter_matrix == (
        (1, 4, 2), (4, 1, 4), (2, 4, 1))
    assert build_affine_system("G", 2).coxeter_matrix == (
        (1, 2, 3), (2, 1, 6), (3, 6, 1))


def _word_oracle(family, rank, max_len):
    """Layer sizes by raw word products: length of w = first product reaching it."""
    generators = certified_generators(family, rank)
    table = {generators[0] * generators[0]: 0}  # the identity map
    frontier = set(table)
    for length in range(1, max_len + 1):
        new = set()
        for w in frontier:
            for g in generators:
                x = w * g
                if x not in table:
                    table[x] = length
                    new.add(x)
        frontier = new
    counts = [0] * (max_len + 1)
    for v in table.values():
        counts[v] += 1
    return tuple(counts)


# every type of rank <= 4, at a depth the matrix products reach in well
# under a second in all
WORD_ORACLE_CASES = [("A", 1, 6), ("A", 2, 6), ("A", 3, 5), ("C", 2, 5), ("G", 2, 5)]
WORD_ORACLE_CASES += [(f, r, 5) for f, r in ALL_TYPES
                      if r <= 4 and (f, r) not in {c[:2] for c in WORD_ORACLE_CASES}]


@pytest.mark.parametrize("family,rank,max_len", WORD_ORACLE_CASES)
def test_growth_matches_word_oracle(family, rank, max_len):
    system = build_affine_system(family, rank)
    series = growth_coefficients(system, max_len)
    assert series.coefficients == _word_oracle(family, rank, max_len)


def element_walk(cartan, nodes, max_length, budget, overflow):
    """Layer sizes of the walk from y = (1, ..., 1), one point per element.

    The walk that `growth` and `poincare_finite` made before they walked
    cosets, with its budget rule: past `budget` elements it raises
    BudgetError with `overflow` formatted with the number of complete
    layers, carrying their sizes.  It stops after the first empty layer.
    """
    moves = [(i, [(j, row[i]) for j, row in enumerate(cartan) if j != i and row[i]])
             for i in nodes]
    layer = [(1,) * len(cartan)]
    coeffs = [1]
    while layer and len(coeffs) <= max_length:
        nxt = set()
        room = budget - sum(coeffs)
        for y in layer:
            for i, column in moves:
                if y[i] > 0:
                    z = list(y)
                    z[i] = -y[i]
                    for j, a_ji in column:
                        z[j] -= y[i] * a_ji
                    nxt.add(tuple(z))
            if len(nxt) > room:
                raise BudgetError(overflow.format(len(coeffs) - 1),
                                  partial_coefficients=coeffs, budget=budget)
        coeffs.append(len(nxt))
        layer = nxt
    return coeffs


def outcome(compute):
    """The series `compute()` returns, or the content of its BudgetError."""
    try:
        return tuple(compute())
    except BudgetError as exc:
        return str(exc), exc.budget, exc.partial_coefficients


def budgets(sums):
    """Element budgets from 1 to 5,000, and the running sums s of the series
    (and s - 1) in that range, where `>` and `>=` would part."""
    edges = [s + o for s in sums for o in (-1, 0) if 1 <= s + o <= 5000]
    return st.one_of(st.integers(1, 5000), st.sampled_from(edges))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(ALL_TYPES), truncation=st.integers(0, 30), data=st.data())
def test_growth_budget_matches_the_element_walk(key, truncation, data):
    # the old walk stops within its budget, so it stays cheap at any K
    system = build_affine_system(*key)
    sums = itertools.accumulate(growth_from_exponents(system, truncation).coefficients)
    # a budget below 1 breaks the integer rule (tests/test_int_arguments.py)
    budget = data.draw(budgets(sums))
    overflow = f"enumeration budget {budget} exceeded after {{}} complete layers"
    expected = outcome(lambda: element_walk(
        system.cartan_matrix, range(key[1] + 1), truncation, budget, overflow))
    got = outcome(lambda: growth_coefficients(system, truncation, budget).coefficients)
    assert got == expected


@functools.cache
def _free_orbit(key, truncation):
    """a_0..a_K by the walk from (1, ..., 1): one point per group element."""
    start = (1,) * (key[1] + 1)
    walk = coxeter._sphere_sizes(build_affine_system(*key).cartan_matrix,
                                 range(key[1] + 1), start)
    return tuple(itertools.islice(walk, truncation + 1))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(ALL_TYPES), data=st.data())
def test_growth_is_the_free_orbit_walk(key, data):
    reach = 12 if key[1] <= 5 else 4
    truncation = data.draw(st.integers(0, reach))
    series = growth_coefficients(build_affine_system(*key), truncation)
    assert series.coefficients == _free_orbit(key, reach)[:truncation + 1]


@pytest.mark.parametrize("family,rank,truncation", [
    ("E", 6, 60), ("E", 7, 60), ("E", 8, 60),
    ("A", 9, 30), ("B", 9, 30), ("C", 9, 30), ("D", 9, 30)])
def test_coset_walks_reach_the_closed_form_far_out(family, rank, truncation):
    # E8 at K = 60 counts about 1.6e10 elements from 3,382 affine points
    system = build_affine_system(family, rank)
    series = growth_coefficients(system, truncation, budget=10**15)
    assert series.coefficients == growth_from_exponents(system, truncation).coefficients


def test_e8_growth_stops_at_the_budget_whatever_k():
    # layer 18 takes the running sum past the default budget; a walk that
    # went on to K would not end
    system = build_affine_system("E", 8)
    for truncation in (18, 20, 10**6):
        with pytest.raises(BudgetError) as exc:
            growth_coefficients(system, truncation)
        assert str(exc.value) == ("enumeration budget 2000000 exceeded after "
                                  "17 complete layers")
        assert exc.value.partial_coefficients == (
            growth_from_exponents(system, 17).coefficients)


@pytest.mark.parametrize("truncation", [2**63 - 1, 2**64, 10**20])
def test_growth_past_an_index_sized_truncation_stops_at_the_budget(truncation):
    # islice took no stop past sys.maxsize and raised its own ValueError;
    # the walk now goes on until the element budget stops it
    for walk in (lambda: growth_coefficients(build_affine_system("A", 2), truncation),
                 lambda: cache.cached_growth("A", 2, truncation)):
        with pytest.raises(BudgetError, match="^enumeration budget 2000000 "
                           "exceeded after 1154 complete layers$"):
            walk()


@pytest.mark.parametrize("truncation", [10**6, 2**63 - 1, 10**20])
def test_closed_form_growth_is_capped_before_any_allocation(truncation):
    # K + 1 coefficients take at least K + 1 bits, past the listing cap;
    # [0] * K raised MemoryError at 2^63 - 1 and OverflowError at 10^20
    with pytest.raises(ValueError, match=f"^truncation must be in 0..999999, "
                                         f"got {truncation}$"):
        growth_from_exponents(build_affine_system("A", 2), truncation)


@pytest.mark.parametrize("key", sorted(GROWTH_K12))
def test_growth_frozen_vectors(key):
    series = growth_coefficients(build_affine_system(*key), 12)
    assert series.coefficients == GROWTH_K12[key]
    assert series.source == "enumerated"
    assert series.coefficients[0] == 1
    assert series.coefficients[1] == key[1] + 1


def test_growth_budget_error_carries_complete_layers():
    system = build_affine_system("A", 2)
    with pytest.raises(BudgetError) as exc:
        growth_coefficients(system, 12, budget=50)
    err = exc.value
    assert err.budget == 50
    prefix = tuple(err.partial_coefficients)
    assert 0 < len(prefix) < 13
    assert prefix == GROWTH_K12[("A", 2)][:len(prefix)]


def test_growth_zero_truncation():
    series = growth_coefficients(build_affine_system("G", 2), 0)
    assert series.coefficients == (1,)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_closed_form_growth_matches_enumeration(family, rank):
    system = build_affine_system(family, rank)
    K = 4 if rank >= 6 else 6
    series = growth_from_exponents(system, K)
    assert series.coefficients == growth_coefficients(system, K).coefficients
    assert (series.family, series.rank, series.truncation) == (family, rank, K)
    assert series.source == "closed-form"


@functools.cache
def _enumerated_k20(key):
    return growth_coefficients(build_affine_system(*key), 20).coefficients


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from([key for key in ALL_TYPES if key[1] <= 5]),
       truncation=st.integers(0, 20))
def test_closed_form_growth_is_the_enumerated_prefix(key, truncation):
    series = growth_from_exponents(build_affine_system(*key), truncation)
    assert series.coefficients == _enumerated_k20(key)[:truncation + 1]


def test_closed_form_growth_rejects_negative_truncation():
    with pytest.raises(ValueError, match="truncation must be in 0..999999, got -1"):
        growth_from_exponents(build_affine_system("A", 2), -1)
    with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
        growth_coefficients(build_affine_system("A", 2), -1)
    assert growth_from_exponents(build_affine_system("G", 2), 0).coefficients == (1,)


def test_bool_truncation_is_refused_by_the_coset_walks():
    # True == 1, so an unchecked bool would count a_0, a_1 with "K": true
    for truncation in (True, False):
        message = f"truncation must be an integer, got {truncation}"
        with pytest.raises(ValueError, match=message):
            growth_coefficients(build_affine_system("A", 2), truncation)
        with pytest.raises(ValueError, match=message):
            cache.cached_growth("A", 2, truncation)


def test_bool_truncation_is_refused_by_the_closed_form():
    # True == 1, so an unchecked bool would sum the period's first two terms
    for truncation in (True, False):
        message = f"truncation must be an integer, got {truncation}"
        with pytest.raises(ValueError, match=message):
            growth_from_exponents(build_affine_system("A", 2), truncation)
        with pytest.raises(ValueError, match=message):
            period.evaluate_period("A", 1, 3, truncation=truncation)


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_EXPONENTS))
def test_exponents_frozen(family, rank):
    assert tuple(exponents(family, rank)) == CLASSICAL_EXPONENTS[(family, rank)]


def geometric_blocks(exps):
    """Coefficients of prod_i (1 + t + ... + t^{m_i})."""
    poly = [1]
    for m in exps:
        out = [0] * (len(poly) + m)
        for i, a in enumerate(poly):
            for j in range(m + 1):
                out[i + j] += a
        poly = out
    return poly


@pytest.mark.parametrize("family,rank", ENUMERABLE)
def test_poincare_is_product_of_geometric_blocks(family, rank):
    # the enumerated polynomial must equal prod_i (1 + t + ... + t^{m_i}),
    # so the exponents of E7 and E8 are checked against their Cartan matrix
    poly = poincare_finite(family, rank)
    assert list(poly) == geometric_blocks(CLASSICAL_EXPONENTS[(family, rank)])
    # and so do the exponents read off the root heights
    assert list(poly) == geometric_blocks(exponents(family, rank))
    assert len(poly) - 1 == N_POSITIVE_ROOTS[(family, rank)]
    order = 1
    for m in CLASSICAL_EXPONENTS[(family, rank)]:
        order *= m + 1
    assert sum(poly) == order


@pytest.mark.parametrize("key", sorted(OMEGA_ORDERS))
def test_omega_orders_and_homomorphism(key):
    omega = omega_group(*key)
    assert len(omega) == OMEGA_ORDERS[key]
    identity = tuple(range(key[1] + 1))
    assert identity in {el.perm for el in omega}
    for a in omega:
        for b in omega:
            assert (epsilon_of_omega(a * b)
                    == epsilon_of_omega(a) * epsilon_of_omega(b))
    ident = next(el for el in omega if el.perm == identity)
    assert epsilon_of_omega(ident) == 1


# sha256 of repr([(family, rank, sorted perms of Omega)]) over ALL_TYPES,
# frozen from the hand-listed tables that the generators replaced
OMEGA_SHA256 = "4e91cded2df35de7dc4c443cf50d3b6d26aa3cfe5c880ab0ca90f19f3b21a7b8"


def test_omega_sets_are_frozen():
    groups = [(f, r, sorted(el.perm for el in omega_group(f, r)))
              for f, r in ALL_TYPES]
    assert hashlib.sha256(repr(groups).encode()).hexdigest() == OMEGA_SHA256


def test_omega_generators_are_checked(monkeypatch):
    monkeypatch.setattr(coxeter, "_omega_generators", lambda f, d: [(0, 0, 2)])
    with pytest.raises(ModelError, match="not a permutation"):
        omega_group("A", 2)
    # the 0-1 swap of A3's square diagram breaks the edge 1-2
    monkeypatch.setattr(coxeter, "_omega_generators", lambda f, d: [(1, 0, 2, 3)])
    with pytest.raises(ModelError, match="does not preserve the Coxeter matrix"):
        omega_group("A", 3)
    # the square's rotation and a reflection generate its dihedral group
    monkeypatch.setattr(coxeter, "_omega_generators",
                        lambda f, d: [(1, 2, 3, 0), (0, 3, 2, 1)])
    with pytest.raises(ModelError, match="^Omega of A3 is not abelian$"):
        omega_group("A", 3)


def cycle_sign(perm):
    """The signature of a permutation by its cycles: each cycle of even
    length flips it."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_inversion_parity_is_the_cycle_sign():
    for n in range(1, 9):
        for perm in itertools.permutations(range(n)):
            assert epsilon_of_omega(coxeter.OmegaElement(perm)) == cycle_sign(perm)
    for f, r in OMEGA_GRID:
        for el in omega_group(f, r):
            assert epsilon_of_omega(el) == cycle_sign(el.perm)


def test_omega_frozen_signs():
    a1 = omega_group("A", 1)
    swap = next(el for el in a1 if el.perm == (1, 0))
    assert epsilon_of_omega(swap) == -1
    # rank-3 rotation is a 4-cycle, hence odd
    a3 = omega_group("A", 3)
    assert -1 in {epsilon_of_omega(el) for el in a3}
    # the full flip of the C2 line (0 2) and the B3 swap (0 1) are transpositions
    c2 = omega_group("C", 2)
    assert {epsilon_of_omega(el) for el in c2} == {1, -1}
    b3 = omega_group("B", 3)
    assert {epsilon_of_omega(el) for el in b3} == {1, -1}
    # E7 flip factors into three transpositions
    e7 = omega_group("E", 7)
    assert {epsilon_of_omega(el) for el in e7} == {1, -1}
    for key in (("E", 8), ("F", 4), ("G", 2)):
        assert {epsilon_of_omega(el) for el in omega_group(*key)} == {1}


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 2), ("C", 1), ("D", 3), ("E", 5), ("E", 9),
    ("F", 3), ("G", 3), ("A", 10), ("B", 50),
])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(InvalidTypeError):
        build_affine_system(family, rank)


def test_invalid_family_and_rank_kind():
    with pytest.raises(InvalidTypeError):
        build_affine_system("H", 2)
    with pytest.raises(ValueError, match="^rank must be an integer, got '2'$"):
        build_affine_system("A", "2")


def test_bool_rank_is_refused_and_leaves_the_cache_clean():
    # True == 1 and both hash alike, so a cache asked before the check
    # would serve the system of one rank for the other
    coxeter._build_affine_system.cache_clear()
    for rank in (True, False):
        with pytest.raises(ValueError, match=f"^rank must be an integer, got {rank}$"):
            build_affine_system("A", rank)
    assert type(build_affine_system("A", 1).rank) is int
    with pytest.raises(ValueError, match="^rank must be an integer, got True$"):
        build_affine_system("A", True)


def test_b2_hint_names_family_c():
    with pytest.raises(InvalidTypeError, match="family C"):
        build_affine_system("B", 2)


def test_system_json_dict():
    # 0 encodes the infinite order of s0 s1 in A1
    system = build_affine_system("A", 1)
    assert (system.family, system.rank) == ("A", 1)
    assert system.coxeter_matrix == ((1, 0), (0, 1))
