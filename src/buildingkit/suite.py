"""Consolidated verification suite.

Runs every headline check of the toolkit over fixed grids and returns one
report with a pass/fail status per named check.  Output is deterministic for
a fixed seed: no timings, no environment data, stable ordering; two runs with
the same arguments serialize to identical bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import coxeter, orbits, period, tree
from .period import _rat

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    status: str  # pass | fail
    witness: object

    def to_json_dict(self):
        return {"name": self.name, "claim": self.claim,
                "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    depth: int
    checks: tuple

    @property
    def passed(self):
        return all(c.status == "pass" for c in self.checks)

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "seed": self.seed,
            "depth": self.depth,
            "all_pass": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def text_lines(self):
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.status == 'pass' else 'FAIL'}] "
                         f"{c.name}: {c.claim}")
        verdict = "all checks passed" if self.passed else "SOME CHECKS FAILED"
        lines.append(f"suite: {verdict} ({len(self.checks)} checks)")
        return lines


def _check(name, claim, rows):
    """A named check that passes when every witness row is ok."""
    status = "pass" if all(row["ok"] for row in rows) else "fail"
    return CheckResult(name=name, claim=claim, status=status, witness=rows)


def run_suite(seed=DEFAULT_SEED, depth=6):
    """Run all named checks; returns a SuiteReport (never raises on failure).

    `depth` controls the deep trees for q_F in {2, 3} and must be at least 6
    so the harmonicity check covers the advertised range.
    """
    if depth < 6:
        raise ValueError(f"suite depth must be >= 6, got {depth}")
    if isinstance(seed, bool):
        raise ValueError(f"suite seed must be an integer, got {seed}")
    checks = []

    # shared artifacts
    periods = {(f, r, q): period.evaluate_period(f, r, q,
                                                 truncation=SUITE_TRUNCATION)
               for f, r in GRID_TYPES for q in GRID_QF}
    field_pairs = {pn: orbits.build_fields(*pn)
                   for pn in ORBIT_CHAR2 + ORBIT_ODD}
    small_trees = {q: tree.build_tree_pair(q, 4 if q <= 3 else 3)
                   for q in GRID_QF}

    # 1. rank-1 closed form
    rows = []
    for q in RANK1_QF:
        value = period.period_closed_form("A", 1, q)
        expected = Fraction(q - 1, q + 1)
        rows.append({"q_F": q, "value": _rat(value), "ok": value == expected})
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
                         "difference": _rat(diff), "tail_bound": _rat(res.tail),
                         "ok": diff <= res.tail})
    checks.append(_check(
        "series-tail-agreement",
        "truncated sums at K=12 match the closed form within the exact geometric tail bound", rows))

    # 3. exact bounds on the value when q_F exceeds the rank
    rows = []
    for f, r in GRID_TYPES:
        for q in GRID_QF:
            rep = period.check_theorem_bounds(periods[(f, r, q)])
            rows.append({"type": f"{f}{r}", "q_F": q,
                         "applicable": rep.applicable, "ok": rep.holds,
                         "value": _rat(rep.value),
                         "lower": _rat(rep.lower) if rep.applicable else None})
    checks.append(_check(
        "period-bounds",
        "1 > value > 1 - (d+1)/q_F holds exactly whenever q_F > d", rows))

    # 4. counting bound on sphere sizes, equality in rank 1
    rows = []
    for f, r in GRID_TYPES:
        bound_rows = period.check_counting_bound(coxeter.growth_from_exponents(
            coxeter.build_affine_system(f, r), COUNTING_K), r)
        ok = all(row.ok for row in bound_rows)
        entry = {"type": f"{f}{r}", "ok": ok,
                 "min_slack": min(row.slack for row in bound_rows)}
        if (f, r) == ("A", 1):
            entry["equality"] = all(row.slack == 0 for row in bound_rows)
            entry["ok"] = ok and entry["equality"]
        rows.append(entry)
    checks.append(_check(
        "counting-bound",
        "sphere sizes satisfy a_k <= (d+1) d^(k-1) for k <= 8, with equality in rank 1", rows))

    # 5. tree census and structural audit; the deep trees live through
    # checks 5 and 6 only, so check 12's sampler reuses their memory; the
    # ambient census, an id range of 2 q_E^k per level, is not compared
    deep_trees = {q: tree.build_tree_pair(q, depth) for q in (2, 3)}
    rows = []
    for q, t in sorted({**small_trees, **deep_trees}.items()):
        audit = tree.check_tree_invariants(t)
        census_ok = (audit.marked_census
                     == (1, *(2 * q**k for k in range(1, t.depth + 1))))
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
                     "violations": len(rep.violations),
                     "interior_checked": rep.interior_checked,
                     "decay": _rat(decay),
                     "ok": rep.ok and decay == 1})
    checks.append(_check(
        "iwahori-harmonicity",
        "the alternating geometric cocycle is harmonic at every interior vertex with decay constant exactly 1", rows))
    del deep_trees, t  # t is still the q_F = 3 deep tree

    # 7. one-dimensional invariant space with the forced profile
    rows = []
    for q in GRID_QF:
        t = small_trees[q]
        sol = tree.invariant_solver(t)
        q_E = q * q
        expected = [Fraction(1), Fraction(-(q + 1), q_E - q)]
        while len(expected) < len(sol.profile):
            expected.append(expected[-1] / -q_E)
        profile_ok = list(sol.profile) == expected
        # each step starts from the value the step before returned
        value, delta, recon_ok = sol.profile[0], 0, True
        while layer := tree.reconstruct_layer(t, delta, value):
            delta += 1
            # alike panels share one value object, and list.count tries
            # identity first: each distinct value is compared once
            values = list(layer.values())
            value = values[0]
            recon_ok = (recon_ok and value == sol.profile[delta]
                        and values.count(value) == len(values))
        rows.append({"q_F": q, "dimension": sol.dimension,
                     "profile": [_rat(c) for c in sol.profile],
                     "profile_ok": profile_ok, "reconstruction_ok": recon_ok,
                     "ok": sol.dimension == 1 and profile_ok and recon_ok})
    checks.append(_check(
        "invariant-multiplicity-one",
        "distance-class harmonic cocycles form a one-dimensional space with c_1 = -(q_F+1)/(q_E-q_F) and c_{d+1} = -c_d/q_E, reproduced layer by layer", rows))

    # 8. orbit transitivity in both characteristics
    rows = []
    for fields in field_pairs.values():
        aff = orbits.affine_square_orbits(fields)
        full = aff if fields.p == 2 else orbits.inversion_closure_orbits(fields)
        row = {"q": fields.q, "characteristic": fields.p,
               "affine_orbits": aff.orbit_count,
               "sizes": list(aff.orbit_sizes)}
        if fields.p != 2:
            row["closure_orbits"] = full.orbit_count
        row["ok"] = orbits.transitivity_holds(fields, aff, full)
        rows.append(row)
    checks.append(_check(
        "orbit-transitivity",
        "affine-square moves are transitive in characteristic 2; odd characteristic gives two half-size orbits merged by the inversion moves", rows))

    # 9. inversion rewriting identity, exhaustively
    rows = []
    identities = {pn: orbits.verify_fraction_identity(field_pairs[pn])
                  for pn in ORBIT_ODD}
    for rep in identities.values():
        rows.append({"q": rep.q, "checked": rep.n_checked,
                     "skipped": rep.n_skipped, "ok": rep.holds})
    checks.append(_check(
        "fraction-identity",
        "1/(a^2 x c + b) rewrites to (a^2 x c - b)/(a^4 c - b^2) for every coefficient pair", rows))

    # 10. nonsquare witness value exists, at the c check 9 derived
    rows = []
    for pn, rep in identities.items():
        a, b = orbits.exists_nonsquare_value(field_pairs[pn], rep.c)
        rows.append({"q": rep.q, "a": a, "b": b, "ok": True})
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
    rows = []
    for q in GRID_QF:
        t = small_trees[q]
        rng = random.Random(seed + q)
        ok = tree.epsilon_tree(tree.endpoint_swap(t)) == -1
        for _ in range(SAMPLED_PAIRS):
            g = tree.random_automorphism(t, rng)
            h = tree.random_automorphism(t, rng)
            ok = ok and (tree.epsilon_tree(tree.compose(g, h))
                         == tree.epsilon_tree(g) * tree.epsilon_tree(h))
        rows.append({"q_F": q, "pairs": SAMPLED_PAIRS, "ok": ok})
    checks.append(_check(
        "tree-sign-homomorphism",
        "the label sign is multiplicative on sampled tree automorphisms and the root-edge endpoint swap has sign -1", rows))

    return SuiteReport(seed=seed, depth=depth, checks=tuple(checks))
