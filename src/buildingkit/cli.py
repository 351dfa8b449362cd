"""Command-line front end.

Seven subcommands: growth, period, tree-verify, tree-period, invariant,
orbit, suite.  Every command supports --format json|csv|text; JSON output is
canonical (sorted keys, fixed indentation) so identical configurations print
identical bytes.  Only growth counts the group, by walking cosets, and takes
--budget, a number of group elements.  The program reads no files and writes
only to stdout and stderr.  Exit codes: 0 all checks passed, 1 a mathematical
check failed, 2 invalid usage or arguments, 3 a budget exceeded: growth's
element budget, or the tree edge budget of tree-verify, tree-period,
invariant and suite.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import orbits, period, tree
from .cache import cached_growth, canonical_json_bytes, series_to_json_dict
from .coxeter import DEFAULT_ELEMENT_BUDGET, FAMILIES
from .errors import BudgetError, ToolkitError
from .period import _rat
from .suite import DEFAULT_SEED, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _csv(rows):
    return "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"


def _cmd_growth(args):
    if args.budget < 1:
        raise ValueError(
            f"enumeration budget must be at least 1, got {args.budget}")
    series = cached_growth(args.family, args.rank, args.K, budget=args.budget)
    payload = series_to_json_dict(series)
    payload["command"] = "growth"
    text = [f"growth {args.family}{args.rank} K={series.truncation} "
            f"({series.source}):",
            "  " + str(list(series.coefficients))]
    csv = [("k", "a_k")] + [(k, a) for k, a in enumerate(series.coefficients)]
    return True, payload, text, csv


def _cmd_period(args):
    if args.format != "text":
        period.require_listable(args.qF, args.K)
    result = period.evaluate_period(args.family, args.rank, args.qF,
                                    truncation=args.K)
    bounds = period.check_theorem_bounds(result)
    diff = abs(result.closed_form - result.partial_sums[-1])
    within_tail = diff <= result.tail
    ok = within_tail and bounds.holds
    payload = result.to_json_dict()
    payload["command"] = "period"
    payload["within_tail"] = within_tail
    payload["bounds"] = {
        "applicable": bounds.applicable,
        "holds": bounds.holds,
        "lower": _rat(bounds.lower) if bounds.applicable else None,
    }
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
        text.append(f"  bounds        not applicable (q_F <= rank)")
    csv = [("k", "num", "den")] + [(k, s.numerator, s.denominator)
                                   for k, s in enumerate(result.partial_sums)]
    return ok, payload, text, csv


def _tree_header(command, pair):
    """The JSON keys that every tree command's payload starts with."""
    return {"schema_version": 1, "command": command, "q_F": pair.q_F,
            "q_E": pair.q_E, "depth": pair.depth}


def _cmd_tree_verify(args):
    pair = tree.build_tree_pair(args.qF, args.depth)
    audit = tree.check_tree_invariants(pair)
    cocycle = tree.iwahori_cocycle(pair)
    harm = tree.verify_harmonic(pair, cocycle)
    decay = tree.decay_check(pair, cocycle)
    ok = audit.ok and harm.ok and decay == 1
    payload = {
        **_tree_header("tree-verify", pair),
        "n_edges": pair.n_edges,
        "n_vertices": pair.n_vertices,
        "marked_census": list(audit.marked_census),
        "ambient_census": list(audit.ambient_census),
        "audit_ok": audit.ok,
        "audit_problems": list(audit.problems),
        "harmonic_violations": len(harm.violations),
        "interior_checked": harm.interior_checked,
        "boundary_skipped": harm.boundary_skipped,
        "decay": _rat(decay),
        "ok": ok,
    }
    text = [f"tree-verify q_F={pair.q_F} depth={pair.depth}: "
            f"{pair.n_edges} edges, {pair.n_vertices} vertices",
            f"  structural audit      {'ok' if audit.ok else audit.problems}",
            f"  harmonicity           {len(harm.violations)} violations "
            f"({harm.interior_checked} interior, "
            f"{harm.boundary_skipped} boundary skipped)",
            f"  decay constant        {decay}",
            f"  verdict               {'pass' if ok else 'FAIL'}"]
    csv = [("property", "value"),
           ("n_edges", pair.n_edges),
           ("n_vertices", pair.n_vertices),
           ("audit_ok", audit.ok),
           ("harmonic_violations", len(harm.violations)),
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
    payload = {
        **_tree_header("tree-period", pair),
        "partial_sums": [_rat(s) for s in sums],
        "closed_form": _rat(closed),
        "matches_series_engine": matches,
        "tail_bound": _rat(result.tail),
        "within_tail": within_tail,
        "ok": ok,
    }
    text = [f"tree-period q_F={pair.q_F} depth={pair.depth}:",
            f"  marked-edge sums      {[str(s) for s in sums]}",
            f"  closed form           {closed}",
            f"  matches rank-1 series {matches}",
            f"  within tail bound     {within_tail}",
            f"  verdict               {'pass' if ok else 'FAIL'}"]
    csv = [("k", "num", "den")] + [(k, s.numerator, s.denominator)
                                   for k, s in enumerate(sums)]
    return ok, payload, text, csv


def _cmd_invariant(args):
    pair = tree.build_tree_pair(args.qF, args.depth)
    solution = tree.invariant_solver(pair)
    payload = {
        **_tree_header("invariant", pair),
        "dimension": solution.dimension,
        "profile": [_rat(c) for c in solution.profile],
        "ok": True,
    }
    text = [f"invariant q_F={pair.q_F} depth={pair.depth}:",
            f"  dimension  {solution.dimension}",
            f"  profile    {[str(c) for c in solution.profile]}"]
    csv = [("delta", "num", "den")] + [(d, c.numerator, c.denominator)
                                       for d, c in enumerate(solution.profile)]
    return True, payload, text, csv


def _cmd_orbit(args):
    fields = orbits.build_fields(args.p, args.n)
    affine = orbits.affine_square_orbits(fields)
    # in characteristic 2 the inversion closure is the affine report itself
    closure = affine if fields.p == 2 else orbits.inversion_closure_orbits(fields)
    ok = orbits.transitivity_holds(fields, affine, closure)
    payload = {
        "schema_version": 1,
        "command": "orbit",
        "fields": fields.to_json_dict(),
        "affine": affine.to_json_dict(),
        "closure": closure.to_json_dict(),
        "ok": ok,
    }
    text = [f"orbit p={fields.p} n={fields.n} (q={fields.q}, "
            f"q_E={fields.q_ext}):",
            f"  base modulus   {fields.poly_str(fields.modulus_base, 'x')}",
            f"  ext modulus    {fields.poly_str(fields.modulus_ext, 'y')}",
            f"  affine-square  {affine.orbit_count} orbit(s) of sizes "
            f"{list(affine.orbit_sizes)}"]
    if fields.p == 2:
        text.append("  inversion      not needed in characteristic 2")
    else:
        x0, c = orbits.canonical_inversion_data(fields)
        identity = orbits.verify_fraction_identity(fields)
        ok = ok and identity.holds
        witness = orbits.exists_nonsquare_value(fields, c)
        payload["identity"] = identity.to_json_dict()
        payload["nonsquare_witness"] = {"a": witness[0], "b": witness[1]}
        text.append(f"  inversion      x0={x0} c={c} -> "
                    f"{closure.orbit_count} orbit(s) of sizes "
                    f"{list(closure.orbit_sizes)}")
        text.append(f"  identity       holds={identity.holds} "
                    f"({identity.n_checked} pairs)")
        text.append(f"  witness        a={witness[0]} b={witness[1]}")
    text.append(f"  verdict        {'pass' if ok else 'FAIL'}")
    csv = [("stage", "orbit", "size", "representative")]
    for stage, rep in (("affine", affine), ("closure", closure)):
        for i, (size, least) in enumerate(zip(rep.orbit_sizes,
                                              rep.representatives)):
            csv.append((stage, i, size, least))
    return ok, payload, text, csv


def _cmd_suite(args):
    report = run_suite(seed=args.seed, depth=args.depth)
    payload = report.to_json_dict()
    payload["command"] = "suite"
    csv = [("check", "status")] + [(c.name, c.status) for c in report.checks]
    return report.passed, payload, report.text_lines(), csv


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

    p = sub.add_parser("tree-verify", parents=[common],
                       help="build a tree pair and check all its invariants")
    p.add_argument("--qF", required=True, type=int)
    p.add_argument("--depth", type=int, default=6)

    p = sub.add_parser("tree-period", parents=[common],
                       help="sum the alternating cocycle over marked edges")
    p.add_argument("--qF", required=True, type=int)
    p.add_argument("--depth", type=int, default=6)

    p = sub.add_parser("invariant", parents=[common],
                       help="solve for the distance-class harmonic cocycle")
    p.add_argument("--qF", required=True, type=int)
    p.add_argument("--depth", type=int, default=4)

    p = sub.add_parser("orbit", parents=[common],
                       help="residue-field orbit closures and identities")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("suite", parents=[common],
                       help="run every verification check")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv=None):
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
