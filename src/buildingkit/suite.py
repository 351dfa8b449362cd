"""Consolidated verification suite.

Runs every headline check of the toolkit over fixed grids and returns one
report with a pass/fail status per named check.  Output is deterministic for
a fixed seed: no timings, no environment data, stable ordering; two runs with
the same arguments serialize to identical bytes.
"""

import random
from collections import namedtuple
from fractions import Fraction

from . import coxeter, errors, orbits, period, tree

GRID_TYPES = (("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2))
GRID_QF = (2, 3, 4, 5)
RANK1_QF = (2, 3, 4, 5, 7, 8, 9)
OMEGA_GRID = (("A", 1), ("A", 2), ("A", 4), ("B", 3), ("C", 2), ("C", 3),
              ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4),
              ("G", 2))
ORBIT_CHAR2 = ((2, 1), (2, 2), (2, 3), (2, 4))
ORBIT_ODD = ((3, 1), (5, 1), (7, 1), (3, 2))

SUITE_TRUNCATION = 12
COUNTING_K = 8
SAMPLED_PAIRS = 50
DEFAULT_SEED = 1729


class CheckResult(namedtuple("CheckResult", "name claim status witness")):
    """One named check: its claim, its status, "pass" or "fail", and its
    witness rows."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "seed depth checks")):
    __slots__ = ()

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)


def _check(name, claim, rows):
    """A named check that passes when every witness row is ok."""
    status = "pass" if all(row["ok"] for row in rows) else "fail"
    return CheckResult(name=name, claim=claim, status=status, witness=rows)


def _sampled_pair_is_multiplicative(t, rng):
    """Whether the label sign of g h is the product of the signs of g and h,
    for the next two automorphisms that `rng` draws on `t`; the pair lives
    only in this frame, so it is freed before the next one is drawn."""
    g = tree.random_automorphism(t, rng)
    h = tree.random_automorphism(t, rng)
    return (tree.epsilon_tree(tree.compose(g, h))
            == tree.epsilon_tree(g) * tree.epsilon_tree(h))


def run_suite(seed=DEFAULT_SEED, depth=6):
    """Run all named checks; returns a SuiteReport (never raises on failure).

    `depth` controls the deep trees for q_F in {2, 3} and must be at least 6
    so the harmonicity check covers the advertised range.
    """
    errors.require_int(depth, "suite depth", lo=6)
    errors.require_int(seed, "suite seed")
    checks = []

    # shared artifacts
    periods = {(f, r, q): period.evaluate_period(f, r, q,
                                                 truncation=SUITE_TRUNCATION)
               for f, r in GRID_TYPES for q in GRID_QF}
    # by q: the orbit claim of each field pair, and those with inversion moves
    claims = {c.fields.q: c for c in (orbits.orbit_claim(orbits.build_fields(*pn))
                                      for pn in ORBIT_CHAR2 + ORBIT_ODD)}
    inverted = [c for c in claims.values() if c.identity is not None]
    small_trees = {q: tree.build_tree_pair(q, 4 if q <= 3 else 3)
                   for q in GRID_QF}
    deep_trees = {q: tree.build_tree_pair(q, depth) for q in (2, 3)}

    # 1. rank-1 closed form
    rows = []
    for q in RANK1_QF:
        value = period.period_closed_form("A", 1, q)
        expected = Fraction(q - 1, q + 1)
        rows.append({"q_F": q, "value": value, "ok": value == expected})
    checks.append(_check(
        "rank1-closed-form",
        "in rank 1 the alternating period series sums to (q_F-1)/(q_F+1) exactly", rows))

    # 2. partial sums vs closed form within the tail estimate
    rows = []
    for f, r in GRID_TYPES:
        for q in GRID_QF:
            res = periods[(f, r, q)]
            diff = abs(res.closed_form - res.partial_sums[-1])
            rows.append({"type": f"{f}{r}", "q_F": q,
                         "difference": diff, "tail_bound": res.tail,
                         "ok": diff <= res.tail})
    checks.append(_check(
        "series-tail-agreement",
        "truncated sums at K=12 match the closed form within the exact geometric tail bound", rows))

    # 3. exact bounds on the value when q_F exceeds the rank
    rows = []
    for f, r in GRID_TYPES:
        for q in GRID_QF:
            res = periods[(f, r, q)]
            rep = period.check_theorem_bounds(res)
            rows.append({"type": f"{f}{r}", "q_F": q,
                         "applicable": rep.applicable, "ok": rep.holds,
                         "value": res.closed_form, "lower": rep.lower})
    checks.append(_check(
        "period-bounds",
        "1 > value > 1 - (d+1)/q_F holds exactly whenever q_F > d", rows))

    # 4. counting bound on sphere sizes: the slacks (d+1) d^(k-1) - a_k for
    # 1 <= k <= COUNTING_K are >= 0, and all 0 in rank 1
    rows = []
    for f, r in GRID_TYPES:
        a = coxeter.growth_from_exponents(coxeter.build_affine_system(f, r),
                                          COUNTING_K).coefficients
        slacks = [(r + 1) * r ** (k - 1) - a[k] for k in range(1, COUNTING_K + 1)]
        entry = {"type": f"{f}{r}", "ok": min(slacks) >= 0, "min_slack": min(slacks)}
        if (f, r) == ("A", 1):
            entry["equality"] = not any(slacks)
            entry["ok"] = entry["ok"] and entry["equality"]
        rows.append(entry)
    checks.append(_check(
        "counting-bound",
        "sphere sizes satisfy a_k <= (d+1) d^(k-1) for k <= 8, with equality in rank 1", rows))

    # 5. tree census and structural audit; the marked edges of level k are
    # a_k q_F^k, a_k the affine A1 sphere sizes (1, 2, 2, ...)
    a = coxeter.growth_from_exponents(coxeter.build_affine_system("A", 1),
                                      depth).coefficients
    rows = []
    for q, t in sorted({**small_trees, **deep_trees}.items()):
        audit = tree.check_tree_invariants(t)
        census_ok = audit.marked_census == tuple(
            a[k] * q**k for k in range(t.depth + 1))
        rows.append({"q_F": q, "depth": t.depth, "census_ok": census_ok,
                     "audit_ok": audit.ok,
                     "ok": census_ok and audit.ok})
    checks.append(_check(
        "tree-census",
        "marked and ambient edge spheres have sizes 2 q_F^k and 2 q_E^k, and all structural invariants hold", rows))

    # 6. harmonicity and decay of the alternating geometric cocycle
    rows = []
    for q in (2, 3):
        t = deep_trees[q]
        f = tree.iwahori_cocycle(t)
        rep = tree.verify_harmonic(t, f)
        decay = tree.decay_check(t, f)
        rows.append({"q_F": q, "depth": t.depth,
                     "violations": rep.violations,
                     "interior_checked": rep.interior_checked, "decay": decay,
                     "ok": rep.ok and decay == 1})
    checks.append(_check(
        "iwahori-harmonicity",
        "the alternating geometric cocycle is harmonic at every interior vertex with decay constant exactly 1", rows))

    # 7. one-dimensional invariant space with the profile the field pair forces:
    # c_1 = -|P^1(k_F)| / |merged orbit| = -(q + 1)/(q_E - q), c_{d+1} = -c_d/|k_E|
    rows = []
    for q in GRID_QF:
        t = small_trees[q]
        sol = tree.invariant_solver(t)
        expected = [Fraction(1), Fraction(-(q + 1), claims[q].closure.orbit_sizes[0])]
        while len(expected) < len(sol.profile):
            expected.append(expected[-1] / -claims[q].fields.q_ext)
        profile_ok = list(sol.profile) == expected
        # each step starts from the value the step before returned, and
        # the steps end at the rim
        value, delta, recon_ok = sol.profile[0], 0, True
        while (value := tree.reconstruct_layer(t, delta, value)) is not None:
            delta += 1
            recon_ok = recon_ok and value == sol.profile[delta]
        recon_ok = recon_ok and delta == t.depth
        rows.append({"q_F": q, "dimension": sol.dimension,
                     "profile": sol.profile,
                     "profile_ok": profile_ok, "reconstruction_ok": recon_ok,
                     "ok": sol.dimension == 1 and profile_ok and recon_ok})
    checks.append(_check(
        "invariant-multiplicity-one",
        "distance-class harmonic cocycles form a one-dimensional space with c_1 = -(q_F+1)/(q_E-q_F) and c_{d+1} = -c_d/q_E, reproduced layer by layer", rows))

    # 8. orbit transitivity in both characteristics
    rows = []
    for claim in claims.values():
        row = {"q": claim.fields.q, "characteristic": claim.fields.p,
               "affine_orbits": claim.affine.orbit_count,
               "sizes": list(claim.affine.orbit_sizes), "ok": claim.transitive}
        if claim.identity is not None:
            row["closure_orbits"] = claim.closure.orbit_count
        rows.append(row)
    checks.append(_check(
        "orbit-transitivity",
        "affine-square moves are transitive in characteristic 2; odd characteristic gives two half-size orbits merged by the inversion moves", rows))

    # 9. inversion rewriting identity, exhaustively
    rows = [{"q": c.identity.q, "checked": c.identity.n_checked,
             "skipped": c.identity.n_skipped, "ok": c.identity.holds}
            for c in inverted]
    checks.append(_check(
        "fraction-identity",
        "1/(a^2 x c + b) rewrites to (a^2 x c - b)/(a^4 c - b^2) for every coefficient pair", rows))

    # 10. nonsquare witness value exists, at the c check 9 derived
    rows = [{"q": c.fields.q, "a": c.witness[0], "b": c.witness[1], "ok": True}
            for c in inverted]
    checks.append(_check(
        "nonsquare-witness",
        "some a, b make a^2 - b^2/(a^2 c) a nonzero nonsquare of the base field", rows))

    # 11. sign character multiplicative on the special diagram automorphisms
    rows = []
    for f, r in OMEGA_GRID:
        omega = coxeter.omega_group(f, r)
        ok = all(coxeter.epsilon_of_omega(a * b)
                 == coxeter.epsilon_of_omega(a) * coxeter.epsilon_of_omega(b)
                 for a in omega for b in omega)
        rows.append({"type": f"{f}{r}", "order": len(omega),
                     "signs": sorted({coxeter.epsilon_of_omega(a)
                                      for a in omega}),
                     "ok": ok})
    checks.append(_check(
        "omega-sign-homomorphism",
        "the label sign is multiplicative on the whole special automorphism group of each type", rows))

    # 12. sign character on sampled tree automorphisms
    # the endpoint swap is the tree's image of A1's nontrivial Omega element
    swap_sign = coxeter.epsilon_of_omega(coxeter.omega_group("A", 1)[1])
    rows = []
    for q in GRID_QF:
        t = small_trees[q]
        rng = random.Random(seed + q)
        ok = tree.epsilon_tree(tree.endpoint_swap(t)) == swap_sign
        for _ in range(SAMPLED_PAIRS):
            ok = _sampled_pair_is_multiplicative(t, rng) and ok
        rows.append({"q_F": q, "pairs": SAMPLED_PAIRS, "ok": ok})
    checks.append(_check(
        "tree-sign-homomorphism",
        "the label sign is multiplicative on sampled tree automorphisms and the root-edge endpoint swap has sign -1", rows))

    return SuiteReport(seed=seed, depth=depth, checks=tuple(checks))
