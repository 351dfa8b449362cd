"""A ledger of the suite's twelve claims and the evidence behind each.

Each suite check states a fact in its claim string, and checks it on some
scope: a grid of types and q, a few fields or trees, or a random sample.
The ledger records, per check, the claim as the suite prints it, the suite
constants that make up its scope, the kind of evidence the check gathers
there, and the open gap between the claim and that evidence, with the
ROADMAP item that closes it.  The tests fail when a claim or a scope
changes and the ledger does not, and when a claim says more than its
evidence shows without naming the gap.

Evidence kinds: a proof, a certificate (a witness that settles the claim),
an exhaustive pass over the whole stated scope, a grid of sample points
for a claim that is wider than the grid, or a random sample.
"""

import re
from collections import namedtuple

from buildingkit import suite

Entry = namedtuple("Entry", "name claim scope evidence gap")

EVIDENCE = ("proof", "certificate", "exhaustive", "grid", "sample")

TYPES = (("A", 1), ("A", 2), ("A", 3), ("C", 2), ("G", 2))
QF = (2, 3, 4, 5)
ODD_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2))

LEDGER = (
    Entry("rank1-closed-form",
          "in rank 1 the alternating period series sums to (q_F-1)/(q_F+1) exactly",
          {"RANK1_QF": (2, 3, 4, 5, 7, 8, 9)}, "grid",
          "seven values of q for an identity in q; item 1"),
    Entry("series-tail-agreement",
          "truncated sums at K=12 match the closed form within the exact geometric "
          "tail bound",
          {"GRID_TYPES": TYPES, "GRID_QF": QF, "SUITE_TRUNCATION": 12}, "grid",
          "the bound is a ratio heuristic, below the true tail in 47 G2 cases, "
          "so \"exact\" is false; item 9"),
    Entry("period-bounds",
          "1 > value > 1 - (d+1)/q_F holds exactly whenever q_F > d",
          {"GRID_TYPES": TYPES, "GRID_QF": QF}, "grid",
          "five types by four q; false for products; items 1, 13 and 20"),
    Entry("counting-bound",
          "sphere sizes satisfy a_k <= (d+1) d^(k-1) for k <= 8, with equality in "
          "rank 1",
          {"GRID_TYPES": TYPES, "COUNTING_K": 8}, "grid",
          "the claim does not state its five types; items 1 and 13"),
    Entry("tree-census",
          "marked and ambient edge spheres have sizes 2 q_F^k and 2 q_E^k, and all "
          "structural invariants hold",
          {"GRID_QF": QF}, "exhaustive", None),
    Entry("iwahori-harmonicity",
          "the alternating geometric cocycle is harmonic at every interior vertex "
          "with decay constant exactly 1",
          {}, "exhaustive", "two trees, every level, where a proof exists; item 1"),
    Entry("invariant-multiplicity-one",
          "distance-class harmonic cocycles form a one-dimensional space with c_1 = "
          "-(q_F+1)/(q_E-q_F) and c_{d+1} = -c_d/q_E, reproduced layer by layer",
          {"GRID_QF": QF}, "grid",
          "four trees, and each delta-class is assumed one orbit; items 17 and 24"),
    Entry("orbit-transitivity",
          "affine-square moves are transitive in characteristic 2; odd "
          "characteristic gives two half-size orbits merged by the inversion moves",
          {"ORBIT_CHAR2": ((2, 1), (2, 2), (2, 3), (2, 4)), "ORBIT_ODD": ODD_FIELDS},
          "grid", "eight fields for a fact of every field; items 26 and 17"),
    Entry("fraction-identity",
          "1/(a^2 x c + b) rewrites to (a^2 x c - b)/(a^4 c - b^2) for every "
          "coefficient pair",
          {"ORBIT_ODD": ODD_FIELDS}, "exhaustive", None),
    Entry("nonsquare-witness",
          "some a, b make a^2 - b^2/(a^2 c) a nonzero nonsquare of the base field",
          {"ORBIT_ODD": ODD_FIELDS}, "certificate", None),
    Entry("omega-sign-homomorphism",
          "the label sign is multiplicative on the whole special automorphism group "
          "of each type",
          {"OMEGA_GRID": (("A", 1), ("A", 2), ("A", 4), ("B", 3), ("C", 2),
                          ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
                          ("E", 8), ("F", 4), ("G", 2))},
          "exhaustive",
          "multiplicative holds for the sign of any permutation; item 23"),
    Entry("tree-sign-homomorphism",
          "the label sign is multiplicative on sampled tree automorphisms and the "
          "root-edge endpoint swap has sign -1",
          {"GRID_QF": QF, "SAMPLED_PAIRS": 50}, "sample",
          "50 random pairs per tree, 99% of the suite's time; item 10"),
)

# words that claim more than a grid or a sample can show
STRONG_WORDS = re.compile(r"\b(exact|exactly|every|whenever|all)\b")


def test_the_ledger_names_the_suites_checks_and_claims(monkeypatch):
    monkeypatch.setattr(suite, "SAMPLED_PAIRS", 0)
    checks = suite.run_suite().checks
    assert [(c.name, c.claim) for c in checks] == [
        (entry.name, entry.claim) for entry in LEDGER]


def test_the_scopes_are_the_suites_constants():
    # every scope constant is the suite's, and every suite constant but the
    # default seed bounds some check's scope
    named = set()
    for entry in LEDGER:
        for name, value in entry.scope.items():
            assert getattr(suite, name) == value, (entry.name, name)
            named.add(name)
    constants = {name for name in vars(suite)
                 if name.isupper() and name != "DEFAULT_SEED"}
    assert named == constants


def test_a_strong_claim_rests_on_its_evidence_or_names_its_gap():
    # "exact", "every", "whenever" or "all" needs a proof, a certificate or
    # an exhaustive pass over the stated scope, or an open gap with the item
    # that closes it; a grid or a sample always names its gap
    for entry in LEDGER:
        assert entry.evidence in EVIDENCE, entry.name
        gap_named = entry.gap is not None and re.search(r"\bitems? \d+", entry.gap)
        if entry.evidence in ("grid", "sample"):
            assert gap_named, entry.name
        if STRONG_WORDS.search(entry.claim):
            assert entry.evidence in ("proof", "certificate", "exhaustive") \
                or gap_named, entry.name
