"""Command-line front end.

Seven subcommands: growth, period, tree-verify, tree-period, invariant,
orbit, suite.  Every command supports --format json|csv|text; JSON output is
canonical (sorted keys, fixed indentation) so identical configurations print
identical bytes.  The library returns plain records, and this module writes
every JSON document, text line and CSV row from their fields, all under the
one SCHEMA_VERSION.  Only growth counts the group, by walking cosets, and
takes --budget, a number of group elements.  The program reads no files and
writes only to stdout and stderr.  Exit codes: 0 all checks passed, 1 a
mathematical check failed, 2 invalid usage or arguments, 3 growth's element
budget exceeded.
"""

import argparse
import functools
import itertools
import sys

from . import orbits, period, tree
from .cache import cached_growth, canonical_json_bytes
from .coxeter import DEFAULT_ELEMENT_BUDGET, FAMILIES, build_affine_system
from .errors import BudgetError, ToolkitError, require_listable
from .period import _rat
from .suite import DEFAULT_SEED, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SCHEMA_VERSION = 1


def _document(**fields):
    """A JSON object of the given fields under the one schema version."""
    return {"schema_version": SCHEMA_VERSION, **fields}


def _csv(rows):
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _fraction_csv(index, values):
    return itertools.chain([(index, "num", "den")], (
        (i, v.numerator, v.denominator) for i, v in enumerate(values)))


def poly_str(coeffs, var):
    """A coefficient list, constant term first, as a polynomial in `var`."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        a = coeffs[i]
        if not a:
            continue
        if i == 0:
            terms.append(str(a))
        else:
            head = "" if a == 1 else f"{a}*"
            terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return " + ".join(terms) if terms else "0"


def _cmd_growth(args):
    series = cached_growth(args.family, args.rank, args.K, budget=args.budget)
    payload = _document(
        command="growth", family=series.family, rank=series.rank,
        coxeter_matrix=build_affine_system(series.family,
                                           series.rank).coxeter_matrix,
        K=series.truncation, coefficients=series.coefficients,
        source=series.source)
    text = [f"growth {args.family}{args.rank} K={series.truncation} "
            f"({series.source}):",
            "  " + str(list(series.coefficients))]
    csv = itertools.chain([("k", "a_k")], enumerate(series.coefficients))
    return True, payload, text, csv


def _cmd_period(args):
    if args.format != "text":
        require_listable(args.qF, args.K, "S_0..S_K in json or csv", "q_F", "K")
    result = period.evaluate_period(args.family, args.rank, args.qF,
                                    truncation=args.K)
    bounds = period.check_theorem_bounds(result)
    diff = abs(result.closed_form - result.partial_sums[-1])
    within_tail = diff <= result.tail
    ok = within_tail and bounds.holds
    payload = _document(
        command="period", family=result.family, rank=result.rank,
        q_F=result.q_F, q_E=result.q_E, closed_form=_rat(result.closed_form),
        partial_sums=[_rat(s) for s in result.partial_sums],
        tail_bound=_rat(result.tail), within_tail=within_tail,
        bounds={"applicable": bounds.applicable, "holds": bounds.holds,
                "lower": _rat(bounds.lower) if bounds.applicable else None})
    last = result.partial_sums[-1]
    text = [f"period {args.family}{args.rank} q_F={args.qF} "
            f"(q_E={result.q_E}):",
            f"  closed form   {result.closed_form}",
            f"  S_{len(result.partial_sums) - 1}          {last}",
            f"  tail bound    {result.tail} "
            f"({'within' if within_tail else 'OUTSIDE'} tolerance)"]
    if bounds.applicable:
        verdict = "pass" if bounds.holds else "FAIL"
        text.append(f"  bounds        1 > value > {bounds.lower}: {verdict}")
    else:
        text.append("  bounds        not applicable (q_F <= rank)")
    return ok, payload, text, _fraction_csv("k", result.partial_sums)


def _tree_document(command, pair, **fields):
    """A tree command's document: the pair's keys, then the given fields."""
    return _document(command=command, q_F=pair.q_F, q_E=pair.q_E,
                     depth=pair.depth, **fields)


def _cmd_tree_verify(args):
    pair = tree.build_tree_pair(args.qF, args.depth)
    audit = tree.check_tree_invariants(pair)
    cocycle = tree.iwahori_cocycle(pair)
    harm = tree.verify_harmonic(pair, cocycle)
    decay = tree.decay_check(pair, cocycle)
    ok = audit.ok and harm.ok and decay == 1
    payload = _tree_document(
        "tree-verify", pair, n_edges=pair.n_edges, n_vertices=pair.n_vertices,
        marked_census=audit.marked_census,
        ambient_census=audit.ambient_census, audit_ok=audit.ok,
        audit_problems=audit.problems, harmonic_violations=harm.violations,
        interior_checked=harm.interior_checked,
        boundary_skipped=harm.boundary_skipped, decay=_rat(decay), ok=ok)
    text = [f"tree-verify q_F={pair.q_F} depth={pair.depth}: "
            f"{pair.n_edges} edges, {pair.n_vertices} vertices",
            f"  structural audit      {'ok' if audit.ok else audit.problems}",
            f"  harmonicity           {harm.violations} violations "
            f"({harm.interior_checked} interior, "
            f"{harm.boundary_skipped} boundary skipped)",
            f"  decay constant        {decay}",
            f"  verdict               {'pass' if ok else 'FAIL'}"]
    csv = [("property", "value"),
           ("n_edges", pair.n_edges),
           ("n_vertices", pair.n_vertices),
           ("audit_ok", audit.ok),
           ("harmonic_violations", harm.violations),
           ("decay", decay),
           ("ok", ok)]
    return ok, payload, text, csv


def _cmd_tree_period(args):
    pair = tree.build_tree_pair(args.qF, args.depth)
    sums = tree.tree_period(pair, tree.iwahori_cocycle(pair))
    result = period.evaluate_period("A", 1, args.qF, truncation=args.depth)
    closed = result.closed_form
    matches = tuple(sums) == result.partial_sums
    within_tail = abs(closed - sums[-1]) <= result.tail
    ok = matches and within_tail
    payload = _tree_document(
        "tree-period", pair, partial_sums=[_rat(s) for s in sums],
        closed_form=_rat(closed), matches_series_engine=matches,
        tail_bound=_rat(result.tail), within_tail=within_tail, ok=ok)
    text = [f"tree-period q_F={pair.q_F} depth={pair.depth}:",
            f"  marked-edge sums      {[str(s) for s in sums]}",
            f"  closed form           {closed}",
            f"  matches rank-1 series {matches}",
            f"  within tail bound     {within_tail}",
            f"  verdict               {'pass' if ok else 'FAIL'}"]
    return ok, payload, text, _fraction_csv("k", sums)


def _cmd_invariant(args):
    pair = tree.build_tree_pair(args.qF, args.depth)
    solution = tree.invariant_solver(pair)
    payload = _tree_document(
        "invariant", pair, dimension=solution.dimension,
        profile=[_rat(c) for c in solution.profile], ok=True)
    text = [f"invariant q_F={pair.q_F} depth={pair.depth}:",
            f"  dimension  {solution.dimension}",
            f"  profile    {[str(c) for c in solution.profile]}"]
    return True, payload, text, _fraction_csv("delta", solution.profile)


def _cmd_orbit(args):
    claim = orbits.orbit_claim(orbits.build_fields(args.p, args.n))
    fields, affine, closure, identity, witness, _ = claim
    # the orbit and identity reports are exactly their fields
    payload = _document(
        command="orbit",
        fields=_document(p=fields.p, n=fields.n, q=fields.q,
                         q_ext=fields.q_ext, modulus_base=fields.modulus_base,
                         modulus_ext=fields.modulus_ext),
        affine=_document(**affine._asdict()),
        closure=_document(**closure._asdict()), ok=claim.ok)
    text = [f"orbit p={fields.p} n={fields.n} (q={fields.q}, "
            f"q_E={fields.q_ext}):",
            f"  base modulus   {poly_str(fields.modulus_base, 'x')}",
            f"  ext modulus    {poly_str(fields.modulus_ext, 'y')}",
            f"  affine-square  {affine.orbit_count} orbit(s) of sizes "
            f"{list(affine.orbit_sizes)}"]
    if identity is None:
        text.append("  inversion      not needed in characteristic 2")
    else:
        payload["identity"] = _document(**identity._asdict())
        payload["nonsquare_witness"] = {"a": witness[0], "b": witness[1]}
        text.append(f"  inversion      x0={identity.x0} c={identity.c} -> "
                    f"{closure.orbit_count} orbit(s) of sizes "
                    f"{list(closure.orbit_sizes)}")
        text.append(f"  identity       holds={identity.holds} "
                    f"({identity.n_checked} pairs)")
        text.append(f"  witness        a={witness[0]} b={witness[1]}")
    text.append(f"  verdict        {'pass' if claim.ok else 'FAIL'}")
    csv = [("stage", "orbit", "size", "representative")]
    for stage, rep in (("affine", affine), ("closure", closure)):
        for i, (size, least) in enumerate(zip(rep.orbit_sizes,
                                              rep.representatives)):
            csv.append((stage, i, size, least))
    return claim.ok, payload, text, csv


def _cmd_suite(args):
    report = run_suite(seed=args.seed, depth=args.depth)
    # a check's document is exactly its fields
    payload = _document(command="suite", seed=report.seed, depth=report.depth,
                        all_pass=report.passed,
                        checks=[c._asdict() for c in report.checks])
    text = [f"[{'PASS' if c.status == 'pass' else 'FAIL'}] {c.name}: {c.claim}"
            for c in report.checks]
    verdict = "all checks passed" if report.passed else "SOME CHECKS FAILED"
    text.append(f"suite: {verdict} ({len(report.checks)} checks)")
    csv = [("check", "status")] + [(c.name, c.status) for c in report.checks]
    return report.passed, payload, text, csv


_COMMANDS = {
    "growth": _cmd_growth,
    "period": _cmd_period,
    "tree-verify": _cmd_tree_verify,
    "tree-period": _cmd_tree_period,
    "invariant": _cmd_invariant,
    "orbit": _cmd_orbit,
    "suite": _cmd_suite,
}


def run(args):
    """Execute one parsed command line; returns (exit_code, output string)."""
    ok, payload, text, csv = _COMMANDS[args.command](args)
    if args.format == "json":
        out = canonical_json_bytes(payload).decode("ascii")
    elif args.format == "csv":
        out = _csv(csv)
    else:
        out = "\n".join(text) + "\n"
    return (EXIT_PASS if ok else EXIT_CHECK_FAILED), out


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="buildingkit",
        description="Exact combinatorial checks for growth series, periods, "
                    "tree cocycles, and residue-field orbits.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text", help="output format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", parents=[common],
                       help="enumerate sphere sizes of an affine type")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--K", type=int, default=12, help="truncation depth")
    p.add_argument("--budget", type=int, default=DEFAULT_ELEMENT_BUDGET,
                   help="element budget for group enumeration")

    p = sub.add_parser("period", parents=[common],
                       help="closed form and partial sums of the period")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--qF", required=True, type=int)
    p.add_argument("--K", type=int, default=12)

    for name, summary, depth in (
            ("tree-verify", "build a tree pair and check all its invariants", 6),
            ("tree-period", "sum the alternating cocycle over marked edges", 6),
            ("invariant", "solve for the distance-class harmonic cocycle", 4)):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--qF", required=True, type=int)
        p.add_argument("--depth", type=int, default=depth)

    p = sub.add_parser("orbit", parents=[common],
                       help="residue-field orbit closures and identities")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("suite", parents=[common],
                       help="run every verification check")
    p.add_argument("--depth", type=int, default=6,
                   help="depth of the q_F = 2 and 3 trees (default "
                        "%(default)s), from 6 to 706, the q_F = 3 tree's cap")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the tree automorphism sampling "
                        "(default %(default)s)")
    return parser


def main(argv=None):
    # the caps on printed ints assume Python's default limit on printed digits
    default = getattr(sys.int_info, "default_max_str_digits", 0)
    if default and 0 < sys.get_int_max_str_digits() < default:
        sys.set_int_max_str_digits(default)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, out = run(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
