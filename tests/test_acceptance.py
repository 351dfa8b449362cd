"""Acceptance checks: one test and one printed pass/fail line per criterion.

Grids, depths, seeds, and wall-clock limits are fixed here; every value is
computed exactly and compared exactly, with the wall-clock limits the only
environment-dependent part.
"""

import time
from fractions import Fraction

import pytest

from buildingkit import coxeter, orbits, period, tree
from buildingkit.suite import (GRID_QF, GRID_TYPES, OMEGA_GRID, ORBIT_CHAR2,
                               ORBIT_ODD, RANK1_QF)
import period_oracle


def report(num, claim, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {claim}")
    assert ok, f"criterion {num} failed: {claim}"


@pytest.fixture(scope="module")
def grid_data():
    start = time.perf_counter()
    series = {(f, r): coxeter.growth_coefficients(
        coxeter.build_affine_system(f, r), 12) for f, r in GRID_TYPES}
    periods = {(f, r, q): period.evaluate_period(f, r, q, truncation=12)
               for f, r in GRID_TYPES for q in GRID_QF}
    elapsed = time.perf_counter() - start
    return series, periods, elapsed


@pytest.fixture(scope="module")
def deep_trees():
    return {q: tree.build_tree_pair(q, 6) for q in (2, 3)}


@pytest.fixture(scope="module")
def small_trees():
    return {q: tree.build_tree_pair(q, 4 if q <= 3 else 3) for q in GRID_QF}


def test_criterion_1_rank1_closed_form():
    start = time.perf_counter()
    ok = all(period.period_closed_form("A", 1, q) == Fraction(q - 1, q + 1)
             for q in RANK1_QF)
    elapsed = time.perf_counter() - start
    report(1, f"rank-1 closed form equals (q_F-1)/(q_F+1) for q_F in "
              f"{RANK1_QF} ({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_series_tail_agreement(grid_data):
    series, periods, elapsed = grid_data
    ok = True
    for (f, r, q), res in periods.items():
        diff = abs(res.closed_form - res.partial_sums[-1])
        ok = ok and diff <= res.tail
        # the sums come from the exponents; the enumerated series agrees
        ok = (ok and list(res.partial_sums) == period.period_series(series[(f, r)], q)
              and res.tail == period.tail_bound(series[(f, r)], q))
    report(2, f"K=12 partial sums match closed forms within the exact tail "
              f"bound on {len(periods)} type/q_F combinations "
              f"({elapsed:.2f}s < 60s)", ok and elapsed < 60.0)


def test_criterion_3_exact_bounds(grid_data):
    _, periods, _ = grid_data
    ok = True
    applicable = 0
    for (f, r, q), res in periods.items():
        rep = period.check_theorem_bounds(res)
        ok = ok and rep.applicable == (q > r) and rep.holds
        if rep.applicable:
            applicable += 1
            ok = ok and 1 > res.closed_form > rep.lower == 1 - Fraction(r + 1, q)
    report(3, f"1 > value > 1 - (d+1)/q_F holds exactly on all {applicable} "
              f"grid combinations with q_F > d", ok)


def test_criterion_4_counting_bound_and_census(grid_data, deep_trees):
    series, _, _ = grid_data
    ok = True
    for f, r in GRID_TYPES:
        rows = period_oracle.counting_bound(coxeter.growth_coefficients(
            coxeter.build_affine_system(f, r), 8).coefficients, r)
        ok = ok and all(a_k <= bound for _, a_k, bound in rows)
        if (f, r) == ("A", 1):
            ok = ok and all(a_k == bound for _, a_k, bound in rows)
    census_trees = dict(deep_trees)
    census_trees[4] = tree.build_tree_pair(4, 3)
    census_trees[5] = tree.build_tree_pair(5, 3)
    for q, t in census_trees.items():
        want = [1] + [2 * q**k for k in range(1, t.depth + 1)]
        ok = ok and list(tree.check_tree_invariants(t).marked_census) == want
    report(4, "sphere sizes obey a_k <= (d+1) d^(k-1) for k <= 8 with "
              "rank-1 equality, and marked tree spheres have size 2 q_F^k", ok)


def test_criterion_5_iwahori_harmonicity(deep_trees):
    ok = True
    for q, t in deep_trees.items():
        f = tree.iwahori_cocycle(t)
        rep = tree.verify_harmonic(t, f)
        ok = (ok and t.depth == 6 and rep.violations == 0
              and tree.decay_check(t, f) == 1)
    report(5, "the alternating geometric cocycle has zero harmonicity "
              "violations and decay constant exactly 1 at depth 6 for "
              "q_F in (2, 3)", ok)


def test_criterion_6_invariant_solver():
    start = time.perf_counter()
    ok = True
    for q in GRID_QF:
        t = tree.build_tree_pair(q, 4 if q <= 3 else 3)
        sol = tree.invariant_solver(t)
        q_E = q * q
        expected = [Fraction(1), Fraction(-(q + 1), q_E - q)]
        while len(expected) < len(sol.profile):
            expected.append(expected[-1] / -q_E)
        ok = ok and sol.dimension == 1 and list(sol.profile) == expected
        value, delta = sol.profile[0], 0
        while (value := tree.reconstruct_layer(t, delta, value)) is not None:
            delta += 1
            ok = ok and value == sol.profile[delta]
        ok = ok and delta == t.depth
    elapsed = time.perf_counter() - start
    report(6, f"the invariant space is one-dimensional for q_F in {GRID_QF} "
              f"with the forced profile, rebuilt layer by layer "
              f"({elapsed:.2f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_7_orbit_structure():
    start = time.perf_counter()
    ok = True
    for p, n in ORBIT_CHAR2:
        fields = orbits.build_fields(p, n)
        rep = orbits.affine_square_orbits(fields)
        ok = ok and rep.orbit_count == 1
    for p, n in ORBIT_ODD:
        fields = orbits.build_fields(p, n)
        q = fields.q
        aff = orbits.affine_square_orbits(fields)
        full = orbits.inversion_closure_orbits(fields)
        ok = (ok and aff.orbit_count == 2
              and aff.orbit_sizes == ((q * q - q) // 2, (q * q - q) // 2)
              and full.orbit_count == 1)
        identity = orbits.verify_fraction_identity(fields)
        ok = (ok and identity.holds and identity.n_skipped == 0
              and identity.n_checked == 2 * q * (q - 1))
        _, c = orbits.canonical_inversion_data(fields)
        a, b = orbits.exists_nonsquare_value(fields, c)
        ok = ok and a in fields.base_units()
    elapsed = time.perf_counter() - start
    report(7, f"affine-square orbits: single orbit in characteristic 2, two "
              f"half orbits merged by inversions in odd characteristic, with "
              f"the rewriting identity exhaustive ({elapsed:.2f}s < 5s)",
           ok and elapsed < 5.0)


def test_criterion_8_sign_homomorphism(small_trees):
    # the sampled automorphism pairs on these trees, seeded 1729 + q_F, are
    # suite check 12, which test_refs[suite] replays with its "ok" pinned
    ok = True
    for f, r in OMEGA_GRID:
        omega = coxeter.omega_group(f, r)
        eps = coxeter.epsilon_of_omega
        ok = ok and all(eps(a * b) == eps(a) * eps(b)
                        for a in omega for b in omega)
    for t in small_trees.values():
        ok = ok and tree.epsilon_tree(tree.endpoint_swap(t)) == -1
    report(8, f"the label sign is multiplicative on every special "
              f"automorphism group in {len(OMEGA_GRID)} types, and the "
              f"endpoint swap has sign -1 on every small tree", ok)
