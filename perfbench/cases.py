"""Seeded case lists for the two workloads, and the known-answer checks.

A case is the argv of one `buildingkit` command.  Every list is drawn from a
finite universe of cases whose reference verdicts (exit code and stdout
sha256) are stored in refs.json, so every case any seed can draw is checked
against the output of the commit that defined the benchmark.

Each seed draws the same multiset of cost classes; it varies the order and
the parameters that do not change the amount of work (q_F of a period case,
the suite's sampling seed).  That keeps the work of a pass independent of the
seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("suite", "sweep")

QF = (2, 3, 4, 5, 7, 8, 9)
SUITE_SEEDS = tuple(range(1729, 1737))

# (types, K values, commands); E6-E8 are left out on purpose: E6 takes
# about 45 s per period case and E7/E8 exhaust the element budget.
PERIOD_STRATA = (
    ((("A", 1), ("A", 2), ("C", 2), ("G", 2)), tuple(range(8, 17)), ("growth", "period")),
    ((("A", 3), ("B", 3), ("C", 3)), (8, 10, 12, 14, 16), ("growth", "period")),
    ((("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)), (8, 10), ("growth", "period")),
    ((("A", 4), ("D", 4), ("F", 4)), (12,), ("period",)),
    ((("B", 5), ("D", 5)), (8,), ("period",)),
)

# Deepest tree per q_F: every allowed q_F, at most about 250k edges.
TREE_DEPTHS = {2: 8, 3: 5, 4: 4, 5: 3, 7: 3, 8: 2, 9: 2}
# Trees small enough to appear twice per pass, to give enough samples.
TREE_REPEAT_EDGES = 20_000

# (p, n, repeats per pass): every field the q <= 16 cap allows; the cheap
# fields are repeated more so the pass has enough samples.
ORBIT_FIELDS = ((2, 1, 24), (3, 1, 24), (2, 2, 24), (5, 1, 24), (7, 1, 24),
                (2, 3, 24), (3, 2, 12), (2, 4, 12), (11, 1, 8), (13, 1, 8))


def tree_edges(q_F, depth):
    q_E = q_F * q_F
    return 1 + 2 * sum(q_E ** k for k in range(1, depth + 1))


def _period_argv(family, rank, K, q_F):
    return ["period", "--family", family, "--rank", str(rank), "--K", str(K),
            "--qF", str(q_F), "--format", "json"]


def _growth_argv(family, rank, K):
    return ["growth", "--family", family, "--rank", str(rank), "--K", str(K),
            "--format", "json"]


def _tree_argv(command, q_F, depth):
    return [command, "--qF", str(q_F), "--depth", str(depth), "--format", "json"]


def _period_strata():
    for types, ks, commands in PERIOD_STRATA:
        for family, rank in types:
            for K in ks:
                for command in commands:
                    yield command, family, rank, K


def _tree_combos():
    for q_F, max_depth in TREE_DEPTHS.items():
        for depth in range(1, max_depth + 1):
            for command in ("tree-verify", "tree-period", "invariant"):
                if command == "invariant" and depth < 2:
                    continue
                if command == "tree-period" and q_F == 2 and depth < 4:
                    continue  # the rank-1 tail ratio is 1 there: exit 2
                yield command, q_F, depth


def universe():
    """Every argv any seed can draw, for building the reference table."""
    out = [["suite", "--format", "json", "--depth", "6", "--seed", str(s)]
           for s in SUITE_SEEDS]
    for command, family, rank, K in _period_strata():
        if command == "growth":
            out.append(_growth_argv(family, rank, K))
        else:
            out.extend(_period_argv(family, rank, K, q) for q in QF)
    out.extend(_tree_argv(*combo) for combo in _tree_combos())
    out.extend(["orbit", "--p", str(p), "--n", str(n), "--format", "json"]
               for p, n, _ in ORBIT_FIELDS)
    return out


def key(argv):
    return " ".join(argv)


def _period_cases(rng):
    cases = []
    for command, family, rank, K in _period_strata():
        if command == "growth":
            cases.append(_growth_argv(family, rank, K))
        else:
            cases.append(_period_argv(family, rank, K, rng.choice(QF)))
    return cases


def _tree_cases():
    cases = []
    for command, q_F, depth in _tree_combos():
        copies = 2 if tree_edges(q_F, depth) <= TREE_REPEAT_EDGES else 1
        cases.extend(_tree_argv(command, q_F, depth) for _ in range(copies))
    return cases


def _orbit_cases():
    return [["orbit", "--p", str(p), "--n", str(n), "--format", "json"]
            for p, n, repeats in ORBIT_FIELDS for _ in range(repeats)]


def make_cases(workload, seed):
    """The seeded case list of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "suite":
        return [["suite", "--format", "json", "--depth", "6",
                 "--seed", str(rng.choice(SUITE_SEEDS))]]
    cases = _period_cases(rng) + _tree_cases() + _orbit_cases()
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# known answers, independent of the stored references

def _frac(obj):
    return Fraction(obj["num"], obj["den"])


def known_answer_problems(argv, stdout):
    """List of violated known answers for one case's JSON stdout."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    command = argv[0]
    problems = []
    if command == "period":
        q = doc["q_F"]
        if not doc["bounds"]["holds"]:
            problems.append("bounds.holds is false")
        if (doc["family"], doc["rank"]) == ("A", 1) and \
                _frac(doc["closed_form"]) != Fraction(q - 1, q + 1):
            problems.append("rank-1 closed form is not (q_F-1)/(q_F+1)")
    elif command == "tree-verify":
        q, q_E, depth = doc["q_F"], doc["q_E"], doc["depth"]
        ks = range(1, depth + 1)
        if doc["marked_census"] != [1] + [2 * q ** k for k in ks]:
            problems.append("marked census is not 2 q_F^k")
        if doc["ambient_census"] != [1] + [2 * q_E ** k for k in ks]:
            problems.append("ambient census is not 2 q_E^k")
    elif command == "tree-period":
        q = doc["q_F"]
        if _frac(doc["closed_form"]) != Fraction(q - 1, q + 1):
            problems.append("rank-1 closed form is not (q_F-1)/(q_F+1)")
    elif command == "invariant":
        q = doc["q_F"]
        profile = [_frac(c) for c in doc["profile"]]
        if doc["dimension"] != 1 or profile[:2] != [1, Fraction(-(q + 1), q * q - q)]:
            problems.append("invariant profile does not start 1, -(q_F+1)/(q_E-q_F)")
    elif command == "orbit":
        q = doc["fields"]["q"]
        affine, closure = doc["affine"], doc["closure"]
        if q % 2 == 0:
            if affine["orbit_count"] != 1:
                problems.append("characteristic 2 must give one orbit")
        else:
            half = (q * q - q) // 2
            if affine["orbit_sizes"] != [half, half] or closure["orbit_count"] != 1:
                problems.append("odd characteristic must give two halves merged into one")
    elif command == "suite":
        if doc["all_pass"] is not True:
            problems.append("suite does not report all_pass")
    return problems
