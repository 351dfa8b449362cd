"""The exit-code contract of the command line, drawn over small argv domains.

Every run exits 0 (pass), 1 (a check failed), 2 (usage) or 3 (a budget),
never with a traceback; exits 2 and 3 print nothing on stdout and say why on
stderr; the same argv prints the same bytes twice.  A fixed subset, the
damaged-row and damaged-census audits, the invariant solver's checks of its
pattern rows, the checks of the affine system's and the residue fields'
construction, the degree check of the finite length polynomial, and the
orbit layer's and Omega's model checks, each made to fire by one broken
table, row set or helper, also run under `python -O`, which strips asserts,
in one process whose answers each test reads for itself.
"""

import contextlib
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildingkit import cli, coxeter, orbits, period, tree
from buildingkit.errors import ModelError
from test_orbits import swap_exp


def run(argv):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def values(*xs):
    return st.sampled_from([str(x) for x in xs])


def option(name, strategy, required=False):
    pair = strategy.map(lambda value: [name, value])
    return pair if required else st.one_of(st.just([]), pair)


def command(name, *options):
    return st.tuples(st.just([name]), *options).map(
        lambda parts: [arg for part in parts for arg in part])


FAMILIES = values("A", "B", "C", "D", "E", "F", "G", "H")
RANKS = values(0, 1, 2, 3, 4, 8, 99, "x")

# every tree command answers off the quotient, from (2, 1) to the 7e9 edges of
# (9, 5), in milliseconds
COMMANDS = st.one_of(
    command("growth", option("--family", FAMILIES), option("--rank", RANKS),
            option("--K", values(-1, 0, 1, 4, "x"), required=True),
            option("--budget", values(-5, 0, 1, 100, 2000000))),
    command("period", option("--family", FAMILIES), option("--rank", RANKS),
            option("--qF", values(0, 1, 2, 3, 4, 6, 9, "x")),
            option("--K", values(-1, 0, 1, 4, 12, 20000))),
    *(command(name, option("--qF", values(2, 3, 5, 6, 9, "x")),
              option("--depth", values(-1, 0, 1, 2, 5), required=True))
      for name in ("tree-verify", "tree-period", "invariant")),
    command("orbit", option("--p", values(-7, -3, 0, 1, 2, 3, 4, 5, 7, 17, 18,
                                          10**17 + 3, 2**61 - 1, "x")),
            option("--n", values(0, 1, 2, 3, 4, 5))),
    # only invalid suite runs: a valid one takes seconds, and at depth 707 the
    # q_F = 3 tree's listed bits pass their cap
    command("suite", option("--depth", values(3, 5, 707, "x"), required=True),
            option("--seed", values(1, 2))),
    st.sampled_from([[], ["no-such-command"]]),
)
FORMATS = st.sampled_from([[], ["--format", "json"], ["--format", "csv"],
                           ["--format", "text"], ["--format", "xml"]])
EXTRAS = st.sampled_from([[], ["--budget", "5"], ["--seed", "3"], ["--bogus"]])


@settings(max_examples=250, deadline=None)
@given(parts=st.tuples(COMMANDS, FORMATS, EXTRAS))
def test_exit_code_contract(parts):
    argv = [arg for part in parts for arg in part]
    first = run(argv)
    code, out, err = first
    assert code in (0, 1, 2, 3), first
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == "" and err
    assert run(argv) == first


# -- the same answers under python -O ------------------------------------------

FIXED_ARGVS = [
    ["growth", "--family", "A", "--rank", "2", "--K", "12", "--budget", "100"],
    ["growth", "--family", "A", "--rank", "2", "--budget", "-5"],
    ["growth", "--family", "G", "--rank", "2", "--K", "4", "--format", "json"],
    ["period", "--family", "A", "--rank", "1", "--qF", "6"],
    ["period", "--family", "C", "--rank", "2", "--qF", "3", "--format", "csv"],
    ["tree-verify", "--qF", "2", "--depth", "3", "--format", "json"],
    ["tree-period", "--qF", "9", "--depth", "5"],
    ["invariant", "--qF", "3", "--depth", "1"],
    ["orbit", "--p", "3", "--n", "2"],
    ["suite", "--depth", "707"],
    ["tree-verify", "--qF", "2", "--budget", "5"],
    # the deepest tree the largest count's cap allows at q_F = 2^61 - 1, and
    # the first one past it
    ["invariant", "--qF", str(2**61 - 1), "--depth", "106"],
    ["invariant", "--qF", str(2**61 - 1), "--depth", "107"],
]


def damaged_audits():
    """Audit problems of the (2, 2) tree, whose rows are {0: 3, 1: 2} and
    {1: 1, 2: 4} and whose census is [{0: 1}, {0: 4, 1: 4}, {0: 8, 1: 8,
    2: 16}], with the given entries of one of them set: a marked row with
    one marked edge too few and an unmarked one with one edge too few, each
    pushing out its census, then a census with the root edge unmarked, one
    with levels 1 and 2 short of marked edges and of edges, and none."""
    t = tree.build_tree_pair(2, 2)
    sound = {"_pattern_rows": tree._pattern_rows(t),
             "_census": list(tree._census(t))}
    audits = []
    for name, edits in (("_pattern_rows", {0: {0: 2, 1: 3}}),
                        ("_pattern_rows", {1: {2: 3}}),
                        ("_census", {0: {0: 0, 1: 1}}),
                        ("_census", {1: {0: 3}, 2: {1: 7}}),
                        ("_census", {})):
        damaged = [{**entry, **edits.get(i, {})}
                   for i, entry in enumerate(sound[name])]
        saved = getattr(tree, name)
        setattr(tree, name, lambda pair: damaged)
        try:
            audits.append(list(tree.check_tree_invariants(t).problems))
        finally:
            setattr(tree, name, saved)
    return audits


def observed():
    return {"runs": [list(run(argv)) for argv in FIXED_ARGVS],
            "audits": damaged_audits()}


def automorphism_errors():
    """The message of each refused automorphism of the (2, 2) tree, in the
    order of AUTOMORPHISM_ERRORS; a map that is not refused adds none."""
    t = tree.build_tree_pair(2, 2)
    n = t.n_vertices

    def partial(images):
        return [images.get(v) for v in range(n)]

    # a full map with the images of vertex 6, below vertex 1, and vertex 10,
    # below vertex 2, exchanged
    exchanged = list(range(n))
    exchanged[6], exchanged[10] = 10, 6

    messages = []
    for vm, signed in [(partial({0: 2, 1: 3}), False),
                       (exchanged, False),
                       (partial({0: 0, 1: 0}), False),
                       (partial({0: n}), False),
                       (list(range(n - 1)), False),
                       # (2,10) keeps the labels and (3,14) swaps them
                       (partial({2: 2, 10: 11, 3: 14, 14: 3}), True),
                       # a lone vertex spans no edge
                       (partial({0: 0}), True)]:
        try:
            aut = tree.TreeAutomorphism(t, vm)
            if signed:
                tree.epsilon_tree(aut)
        except ValueError as exc:
            messages.append(str(exc))
    return messages


def solver_errors():
    """The ModelError messages of the invariant solver on pattern rows with
    one inconsistent row {0: 1} added, and with the row ending at the last
    class dropped."""
    rows, t = tree._pattern_rows, tree.build_tree_pair(2, 3)
    messages = []
    for damage in (lambda found: found + [{0: 1}],
                   lambda found: [row for row in found if t.depth not in row]):
        tree._pattern_rows = lambda pair: damage(rows(pair))
        try:
            tree.invariant_solver(t)
        except ModelError as exc:
            messages.append(str(exc))
        finally:
            tree._pattern_rows = rows
    return messages


def construction_errors():
    """The ModelError message of each construction check of A2, each made to
    fire by patching the root data that `build_affine_system` reads."""
    dynkin, positive_roots = coxeter._dynkin, coxeter._positive_roots
    roots = positive_roots(dynkin("A", 2)[0])
    patches = [
        {"_positive_roots": lambda cartan: roots | {(2, 0)}},
        {"_dynkin": lambda family, d: (dynkin(family, d)[0], [1, 2])},
        # the roots of A2 over the diagram of A1 x A1
        {"_dynkin": lambda family, d: ([[2, 0], [0, 2]], [1, 1]),
         "_positive_roots": lambda cartan: roots},
        {"_positive_roots": lambda cartan: roots - {(1, 0)}},
    ]
    messages = []
    for patch in patches:
        for name, value in patch.items():
            setattr(coxeter, name, value)
        coxeter.build_affine_system.cache_clear()
        try:
            coxeter.build_affine_system("A", 2)
        except ModelError as exc:
            messages.append(str(exc))
        finally:
            coxeter._dynkin, coxeter._positive_roots = dynkin, positive_roots
            coxeter.build_affine_system.cache_clear()
    return messages


def patched_runs(patches):
    """The run of each (owner, name, value, argv): argv with the attribute
    owner.name set to value for that run only."""
    runs = []
    for owner, name, value, argv in patches:
        saved = getattr(owner, name)
        setattr(owner, name, value)
        try:
            runs.append(list(run(argv)))
        finally:
            setattr(owner, name, saved)
    return runs


def _no_negative_of_one(self, table=orbits.FiniteFieldPair._base_add_table):
    add = table(self)
    add[1][1] = add[1][0]  # in F_2 this removes the 0 of row 1
    return add


def field_construction_errors():
    """The run of `orbit --p 3 --n 2` with no irreducible base modulus, then
    with the reducible extension modulus y^2, whose ring has no unit of
    order q^2 - 1, then that of `orbit --p 2` with an addition row of F_2
    that holds no 0."""
    p3n2 = ["orbit", "--p", "3", "--n", "2"]
    return patched_runs([
        (orbits, "_is_irreducible", lambda m, p: False, p3n2),
        (orbits.FiniteFieldPair, "_find_ext_modulus", lambda self: (0, 0, 1), p3n2),
        (orbits.FiniteFieldPair, "_base_add_table", _no_negative_of_one,
         ["orbit", "--p", "2"])])


FIELD_CONSTRUCTION_ERRORS = [
    [1, "", "check failed: no irreducible polynomial of degree 2 over F_3\n"],
    [1, "", "check failed: no element of order 80 in the units of the "
            "extension field\n"],
    [1, "", "check failed: 1 has no negative in the addition table of F_2\n"]]


def _frobenius_moved(self, init=orbits.FiniteFieldPair._init_ext_tables):
    # G and its norm G^(q + 1) exchanged in exp
    init(self)
    swapped = swap_exp(self, 1, self.q + 1)
    self._exp, self._log = swapped._exp, swapped._log


def _products_of_one_read_zero(p, n, build=orbits.build_fields):
    fields = build(p, n)
    fields._bexp[fields.q - 1] = 0  # so a * (1/a) reads 0, and 1/1 = 0
    return fields


def _extra_orbit(fields, split=orbits._square_classes):
    return split(fields) + [[fields.q]]


def _representative_lost(fields, groups, moves, report=orbits._report_from_groups):
    full = report(fields, groups, moves)
    return dataclasses.replace(full, representatives=full.representatives[1:])


def orbit_check_errors():
    """The run of `orbit --p 3` with one table or helper broken each time,
    so that each model check of the orbit layer fires, then that of `suite`
    with a reflection added to the rotation that generates Omega of each
    type A; and the messages of the one argument check that only a library
    call reaches, since the command line takes c from the inversion data."""
    build, canonical = orbits.build_fields, orbits.canonical_inversion_data
    pair = orbits.FiniteFieldPair
    p3 = ["orbit", "--p", "3"]
    generators = coxeter._omega_generators

    def dihedral(f, d):
        reflection = tuple(-i % (d + 1) for i in range(d + 1))
        return generators(f, d) + ([reflection] if f == "A" else [])
    patches = [
        # every t is a root of every quadratic when every sum reads 0
        (pair, "_base_add_table", lambda self: [[0] * self.q] * self.q, p3),
        (pair, "_init_ext_tables", _frobenius_moved, p3),
        (orbits, "_square_classes", _extra_orbit, p3),
        (orbits, "_report_from_groups", _representative_lost, p3),
        # every 1/(c x) reads q, so J_c is not injective
        (pair, "inv", lambda self, z: self.q, p3),
        (pair, "is_square_base", lambda self, a: a != 0, p3),
        (orbits, "canonical_inversion_data",
         lambda fields: (canonical(fields)[0], 1), p3),
        # x_0 = 1 lies in the base field, so a^2 x c + b vanishes at b = -a^2
        (orbits, "canonical_inversion_data", lambda fields: (1, 1), p3),
        (orbits, "build_fields", _products_of_one_read_zero, p3),
        (pair, "sub", lambda self, z1, z2: 0, p3),
        (coxeter, "_omega_generators", dihedral, ["suite"]),
    ]
    runs = patched_runs(patches)
    messages = []
    for c in (1, 0):
        try:
            orbits.exists_nonsquare_value(build(3, 1), c)
        except ValueError as exc:
            messages.append(str(exc))
    return {"runs": runs, "messages": messages}


def _failed(message):
    return [1, "", f"check failed: {message}\n"]


ORBIT_CHECK_ERRORS = {
    "runs": [_failed(message) for message in (
        "no irreducible quadratic over the base field",
        "Frobenius fixed points differ from the base field at 2",
        "orbit sizes do not add up to q^2 - q",
        "orbit count, sizes and representatives disagree",
        "a generating move does not permute k_E minus k_F",
        "x_0^2 must be a nonsquare of the base field",
        "x_0^2 is not 1/c",
        "0 has no inverse in the extension field",
        "0 has no inverse in the base field",
        "no (a, b) with a^2 - b^2/(a^2 c) a nonsquare exists for q=3",
        "Omega of A2 is not abelian")],
    "messages": ["c must be nonzero with 1/c a nonsquare of the base field"] * 2}


def top_degree_errors():
    """The ModelError messages of `poincare_finite` and `growth_coefficients`
    when the system of A2 claims four positive roots, one more than the
    degree of its finite length polynomial."""
    build = coxeter.build_affine_system
    wrong = dataclasses.replace(build("A", 2), n_positive_roots=4)
    messages = []
    coxeter.build_affine_system = lambda family, rank: wrong
    try:
        for compute in (lambda: coxeter.poincare_finite("A", 2),
                        lambda: coxeter.growth_coefficients(wrong, 3)):
            try:
                compute()
            except ModelError as exc:
                messages.append(str(exc))
    finally:
        coxeter.build_affine_system = build
    return messages


CONSTRUCTION_ERRORS = ["highest root of A2 is not unique",
                       "highest coroot of A2 is not integral",
                       "finite diagram is not connected",
                       "root heights of A2 give exponents (2,)"]


AUTOMORPHISM_ERRORS = ("breaks adjacency", "edge 5 maps to non-edge (1,10)",
                       "not injective", "out of range", "entries",
                       "not label-coherent", "contains no edges")


OPTIMIZED = ("observed", "automorphism_errors", "solver_errors",
             "construction_errors", "top_degree_errors",
             "field_construction_errors", "orbit_check_errors")


def optimized_answers():
    """{name: {"answer": name()} or {"error": its traceback}} for each name
    in OPTIMIZED, in order, so one name's failure leaves the others'."""
    answers = {}
    for name in OPTIMIZED:
        try:
            answers[name] = {"answer": globals()[name]()}
        except Exception:
            answers[name] = {"error": traceback.format_exc()}
    return answers


@functools.cache
def optimized_process():
    """[sys.flags.optimize, optimized_answers()] from one `python -O`
    process, started once per pytest run."""
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    script = ("import json, sys; import test_exit_contract as t; "
              "print(json.dumps([sys.flags.optimize, t.optimized_answers()]))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_optimized(name):
    """[sys.flags.optimize, the JSON of this module's name()] under
    `python -O`; a name() that raised there fails the calling test alone."""
    optimize, answers = optimized_process()
    if "error" in answers[name]:
        pytest.fail(f"{name}() raised under python -O:\n{answers[name]['error']}")
    return [optimize, answers[name]["answer"]]


def test_optimized_run_answers_the_same():
    optimize, answers = run_optimized("observed")
    assert optimize == 1
    expected = observed()
    # every damaged row set and census is refused and the sound census is
    # not, and each group of audit messages fires
    audits = expected["audits"]
    assert [bool(problems) for problems in audits] == [
        True, True, True, True, False]
    found = " | ".join(p for problems in audits for p in problems)
    for fragment in ("marked interior vertex", "interior vertex hung at",
                     "not connected", "marked sphere census mismatch",
                     "ambient sphere census mismatch"):
        assert fragment in found, fragment
    # the bit caps refuse a deep tree with their own message, never with
    # Python's limit on the digits of a printed int
    runs = dict(zip(map(" ".join, FIXED_ARGVS), expected["runs"]))
    deepest = runs[f"invariant --qF {2**61 - 1} --depth 106"]
    assert deepest[0] == 0 and deepest[1].startswith(
        f"invariant q_F={2**61 - 1} depth=106:\n  dimension  1\n")
    assert runs[f"invariant --qF {2**61 - 1} --depth 107"] == [
        2, "", "invalid arguments: depth * bit_length(q_E - 1) = 13054 "
               "exceeds the cap of 13000 bits\n"]
    assert runs["suite --depth 707"] == [
        2, "", "invalid arguments: listing the levels takes bit_length(q_E - 1)"
               " * depth (depth + 1) / 2 = 1001112 bits, over the cap of "
               "1000000 bits\n"]
    assert answers == expected


def test_automorphism_errors_raise_under_optimize():
    optimize, messages = run_optimized("automorphism_errors")
    assert optimize == 1
    assert len(messages) == len(AUTOMORPHISM_ERRORS)
    assert all(fragment in message
               for fragment, message in zip(AUTOMORPHISM_ERRORS, messages))
    assert messages == automorphism_errors()


SOLVER_ERRORS = ["invariant space has dimension 0, expected 1",
                 "no row ends at column 3"]


def test_solver_recheck_fires_under_optimize():
    assert solver_errors() == SOLVER_ERRORS
    assert run_optimized("solver_errors") == [1, SOLVER_ERRORS]


def test_construction_checks_fire_under_optimize():
    assert construction_errors() == CONSTRUCTION_ERRORS
    assert run_optimized("construction_errors") == [1, CONSTRUCTION_ERRORS]


def test_top_degree_check_fires_under_optimize():
    message = "top degree 3 != positive root count 4 for A2"
    assert top_degree_errors() == [message, message]
    assert run_optimized("top_degree_errors") == [1, [message, message]]


def test_field_construction_failures_are_failed_checks():
    assert field_construction_errors() == FIELD_CONSTRUCTION_ERRORS
    assert run_optimized("field_construction_errors") == [
        1, FIELD_CONSTRUCTION_ERRORS]


def test_orbit_checks_fire_under_optimize():
    assert orbit_check_errors() == ORBIT_CHECK_ERRORS
    assert run_optimized("orbit_check_errors") == [1, ORBIT_CHECK_ERRORS]


def test_orbit_refuses_a_large_prime_at_once():
    # a trial-division primality test ran for minutes on this p
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "buildingkit", "orbit", "--p", str(2**61 - 1)],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"q = p^n must be <= 16, got {2**61 - 1}" in proc.stderr


def test_orbit_refuses_a_prime_past_the_primality_limit_at_once():
    # Miller-Rabin spent close to a minute on this p before the size cap
    p = 2**11213 - 1
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "buildingkit", "orbit", "--p", str(p)],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"invalid arguments: p must be a prime below {period._MR_LIMIT}, the "
        f"limit of the deterministic primality test, got {p}\n")
