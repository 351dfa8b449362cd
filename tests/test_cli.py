"""Command-line interface: outputs, formats and exit codes."""

import dataclasses
import json
import time
import tracemalloc
from fractions import Fraction

import pytest

from buildingkit import cache, cli, coxeter, orbits, period
from buildingkit.suite import run_suite


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_growth_text_example(capsys):
    code, out, err = run_cli(capsys, ["growth", "--family", "A", "--rank", "2",
                                      "--K", "4"])
    assert code == 0
    assert out == "growth A2 K=4 (enumerated):\n  [1, 3, 6, 9, 12]\n"
    assert err == ""


def test_growth_csv(capsys):
    code, out, _ = run_cli(capsys, ["growth", "--family", "A", "--rank", "2",
                                    "--K", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["k,a_k", "0,1", "1,3", "2,6", "3,9", "4,12"]


def test_growth_json_fields(capsys):
    code, out, _ = run_cli(capsys, ["growth", "--family", "G", "--rank", "2",
                                    "--K", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "growth"
    assert data["family"] == "G" and data["rank"] == 2 and data["K"] == 3
    assert data["coefficients"] == [1, 3, 5, 7]
    assert data["coxeter_matrix"] == [[1, 2, 3], [2, 1, 6], [3, 6, 1]]
    assert data["schema_version"] == 1


def test_period_text_example(capsys):
    code, out, _ = run_cli(capsys, ["period", "--family", "A", "--rank", "1",
                                    "--qF", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "period A1 q_F=3 (q_E=9):"
    assert lines[1] == "  closed form   1/2"
    assert lines[2] == "  S_12          265721/531441"
    assert lines[3] == "  tail bound    1/531441 (within tolerance)"
    assert lines[4] == "  bounds        1 > value > 1/3: pass"


def test_period_bounds_not_applicable(capsys):
    code, out, _ = run_cli(capsys, ["period", "--family", "A", "--rank", "3",
                                    "--qF", "2", "--K", "8"])
    assert code == 0
    assert "bounds        not applicable (q_F <= rank)" in out


def test_period_json_rationals(capsys):
    code, out, _ = run_cli(capsys, ["period", "--family", "A", "--rank", "1",
                                    "--qF", "2", "--K", "6", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["closed_form"] == {"num": 1, "den": 3}
    assert data["within_tail"] is True
    assert data["bounds"] == {"applicable": True, "holds": True,
                              "lower": {"num": 0, "den": 1}}
    assert data["partial_sums"][0] == {"num": 1, "den": 1}


def test_period_e8_closed_form(capsys):
    # the closed form needs no enumeration of the 696,729,600-element finite group
    code, out, _ = run_cli(capsys, ["period", "--family", "E", "--rank", "8",
                                    "--K", "4", "--qF", "9", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["applicable"] is True
    assert data["bounds"]["holds"] is True
    assert data["within_tail"] is True


def test_period_e8_runs_far_past_the_old_budget(capsys):
    # K = 8 took 11.6 s of Cayley-graph enumeration, K = 12 over two minutes
    code, out, _ = run_cli(capsys, ["period", "--family", "E", "--rank", "8",
                                    "--K", "30", "--qF", "9", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["holds"] is True
    assert len(data["partial_sums"]) == 31


@pytest.mark.parametrize("K", ["0", "-1"])
def test_period_without_a_first_layer_is_a_usage_error(capsys, K):
    code, out, err = run_cli(capsys, ["period", "--family", "A", "--rank", "2",
                                      "--qF", "3", "--K", K])
    assert code == 2 and out == ""
    assert "invalid arguments" in err


def test_period_over_the_truncation_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["period", "--family", "A", "--rank", "1",
                                      "--qF", "9", "--K", "5000"])
    assert code == 2 and out == ""
    assert "exceeds the cap of 13000 bits" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_period_listing_past_its_bit_cap_is_a_usage_error(capsys, monkeypatch, fmt):
    # these formats list all K + 1 partial sums: 51 MB of JSON at this K
    def no_series(*args):
        raise AssertionError("series expanded past the listing cap")

    monkeypatch.setattr(coxeter, "growth_from_exponents", no_series)
    code, out, err = run_cli(capsys, ["period", "--family", "A", "--rank", "1",
                                      "--qF", "2", "--K", "13000",
                                      "--format", fmt])
    assert code == 2 and out == ""
    assert ("bit_length(q_F - 1) * K (K + 1) / 2 = 84506500 bits, over the "
            "cap of 1000000 bits for the json and csv formats") in err


def test_period_listing_cap_sits_at_a_million_bits():
    period.require_listable(2, 1413)  # 998,991 bits
    with pytest.raises(ValueError, match="1000405 bits"):
        period.require_listable(2, 1414)
    period.require_listable(9, 706)  # 998,284 bits
    with pytest.raises(ValueError, match="over the cap"):
        period.require_listable(9, 707)


def test_period_commands_never_enumerate(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the period engine enumerated the group")

    monkeypatch.setattr(coxeter, "growth_coefficients", refuse)
    monkeypatch.setattr(cache, "growth_coefficients", refuse)
    for argv in (["period", "--family", "A", "--rank", "2", "--qF", "3"],
                 ["tree-period", "--qF", "2", "--depth", "4"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 0 and err == "", argv


@pytest.mark.parametrize("argv", [
    ["growth", "--family", "A", "--rank", "2", "--K", "6"],
    ["period", "--family", "A", "--rank", "1", "--qF", "2", "--K", "8"],
    ["tree-verify", "--qF", "2", "--depth", "3"],
    ["tree-period", "--qF", "3", "--depth", "3"],
    ["invariant", "--qF", "2", "--depth", "4"],
    ["orbit", "--p", "3", "--n", "2"],
])
def test_json_output_is_byte_deterministic(capsys, argv):
    code1, out1, _ = run_cli(capsys, argv + ["--format", "json"])
    code2, out2, _ = run_cli(capsys, argv + ["--format", "json"])
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert out1.endswith("\n")
    json.loads(out1)  # well-formed


def test_csv_headers(capsys):
    cases = {
        ("growth", "--family", "A", "--rank", "1", "--K", "3"): "k,a_k",
        ("period", "--family", "A", "--rank", "1", "--qF", "2", "--K", "4"):
            "k,num,den",
        ("tree-verify", "--qF", "2", "--depth", "2"): "property,value",
        ("tree-period", "--qF", "2", "--depth", "4"): "k,num,den",
        ("invariant", "--qF", "2", "--depth", "4"): "delta,num,den",
        ("orbit", "--p", "3"): "stage,orbit,size,representative",
    }
    for argv, header in cases.items():
        code, out, _ = run_cli(capsys, list(argv) + ["--format", "csv"])
        assert code == 0, argv
        assert out.splitlines()[0] == header, argv


def test_orbit_text_summary(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "--p", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orbit p=3 n=1 (q=3, q_E=9):"
    assert "  affine-square  2 orbit(s) of sizes [3, 3]" in lines
    assert "  inversion      x0=3 c=2 -> 1 orbit(s) of sizes [6]" in lines
    assert "  identity       holds=True (12 pairs)" in lines
    assert "  witness        a=1 b=1" in lines
    assert lines[-1] == "  verdict        pass"


def test_orbit_verdict_fails_when_the_identity_fails(capsys, monkeypatch):
    verify = orbits.verify_fraction_identity
    monkeypatch.setattr(orbits, "verify_fraction_identity",
                        lambda fields: dataclasses.replace(verify(fields), holds=False))
    code, out, _ = run_cli(capsys, ["orbit", "--p", "3"])
    assert code == 1
    lines = out.splitlines()
    assert "  identity       holds=False (12 pairs)" in lines
    assert lines[-1] == "  verdict        FAIL"


def test_orbit_char2_text(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "--p", "2", "--n", "2"])
    assert code == 0
    assert "  inversion      not needed in characteristic 2" in out
    assert "  affine-square  1 orbit(s) of sizes [12]" in out


def test_tree_verify_text(capsys):
    code, out, _ = run_cli(capsys, ["tree-verify", "--qF", "2", "--depth", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tree-verify q_F=2 depth=3: 169 edges, 170 vertices"
    assert "  harmonicity           0 violations (42 interior, 128 boundary skipped)" \
        in lines
    assert lines[-1] == "  verdict               pass"


def test_invariant_csv_values(capsys):
    code, out, _ = run_cli(capsys, ["invariant", "--qF", "3", "--depth", "4",
                                    "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["delta,num,den", "0,1,1", "1,-2,3", "2,2,27",
                                "3,-2,243", "4,2,2187"]


# -- exit codes ----------------------------------------------------------------

def test_exit_usage_on_bad_values(capsys):
    # q_F = 6 is not a prime power
    code, _, err = run_cli(capsys, ["period", "--family", "A", "--rank", "1",
                                    "--qF", "6"])
    assert code == 2 and "invalid arguments" in err
    code, _, err = run_cli(capsys, ["tree-verify", "--qF", "6"])
    assert code == 2
    code, _, err = run_cli(capsys, ["growth", "--family", "A", "--rank", "99",
                                    "--K", "2"])
    assert code == 2 and "capped" in err
    code, _, err = run_cli(capsys, ["suite", "--depth", "3"])
    assert code == 2


def test_exit_usage_on_argparse_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["growth", "--family", "H", "--rank", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_cached_parser_survives_a_usage_error(capsys):
    # the parser is built once per process; a failed parse must not leak
    # into the next command, whose defaults (here --depth) still apply
    valid = ["tree-verify", "--qF", "2", "--format", "json"]
    cli._build_parser.cache_clear()
    fresh = run_cli(capsys, valid)
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["tree-verify", "--qF", "3", "--depth", "x", "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, valid) == fresh


def test_exit_budget(capsys):
    code, _, err = run_cli(capsys, ["growth", "--family", "A", "--rank", "2",
                                    "--K", "12", "--budget", "100"])
    assert code == 3
    assert "budget exceeded" in err


@pytest.mark.parametrize("K", ["20", "1000000"])
def test_exit_budget_of_e8_growth_is_pinned(capsys, K):
    # the same bytes at any K: the walk stops at the layer that goes over
    code, out, err = run_cli(capsys, ["growth", "--family", "E", "--rank", "8",
                                      "--K", K])
    assert (code, out) == (3, "")
    assert err == ("budget exceeded: enumeration budget 2000000 exceeded "
                   "after 17 complete layers\n")


def q9_depth5_answers():
    """The text of each tree command at q_F = 9 and depth 5, from closed
    forms: 2 * 81^k edges on level k, the partial sums of
    1 + 2 sum_j (-1/9)^j, and the
    profile c_1 = -10/72 with c_(d+1) = -c_d/81."""
    edges = 1 + sum(2 * 81**k for k in range(1, 6))
    interior = (edges - 1) // 81
    sums = [str(1 + sum(Fraction(2 * (-1)**j, 9**j) for j in range(1, k + 1)))
            for k in range(6)]
    profile = [Fraction(1), Fraction(-10, 72)]
    while len(profile) < 6:
        profile.append(profile[-1] / -81)
    return {
        "tree-verify": [
            f"tree-verify q_F=9 depth=5: {edges} edges, {edges + 1} vertices",
            "  structural audit      ok",
            f"  harmonicity           0 violations ({interior} interior, "
            f"{edges + 1 - interior} boundary skipped)",
            "  decay constant        1",
            "  verdict               pass"],
        "tree-period": [
            "tree-period q_F=9 depth=5:",
            f"  marked-edge sums      {sums}",
            "  closed form           4/5",
            "  matches rank-1 series True",
            "  within tail bound     True",
            "  verdict               pass"],
        "invariant": [
            "invariant q_F=9 depth=5:",
            "  dimension  1",
            f"  profile    {[str(c) for c in profile]}"]}


@pytest.mark.parametrize("argv", [
    ["tree-verify", "--qF", "9", "--depth", "5"],
    ["tree-period", "--qF", "9", "--depth", "5"],
    ["invariant", "--qF", "9", "--depth", "5"],
    ["suite", "--depth", "7"],
])
def test_exit_budget_of_the_tree_commands(capsys, argv):
    # these once exceeded the tree edge budget, which counted edges that
    # no command builds; the quotient answers them
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    if argv[0] == "suite":
        assert out.splitlines()[-1] == "suite: all checks passed (12 checks)"
    else:
        assert out.splitlines() == q9_depth5_answers()[argv[0]]


@pytest.mark.parametrize("argv,q_F", [
    ("tree-verify --qF 2 --depth 7150", 2),
    ("tree-verify --qF 2 --depth 100000", 2),
    ("invariant --qF 3 --depth 4600", 3),
    # suite's q_F = 2 tree is within both caps at depth 7200 or 707 too
    ("suite --depth 7200", 2),
    ("suite --depth 707", 3)])
def test_exit_budget_names_the_smallest_failing_depth(capsys, argv, q_F):
    # these once exceeded the tree edge budget; now a bit cap refuses them
    # at once, with the bits of the largest count, depth * bit_length(q_E -
    # 1), or of all levels' counts, that times (depth + 1) / 2, and nothing
    # is allocated per edge
    depth, bits = int(argv.split()[-1]), (q_F**2 - 1).bit_length()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv.split())
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.5 and peak < 1_000_000, (seconds, peak)
    assert (code, out) == (2, "")
    if depth * bits > period.MAX_PERIOD_BITS:
        assert err == (f"invalid arguments: depth * bit_length(q_E - 1) = "
                       f"{depth * bits} exceeds the cap of 13000 bits\n")
    else:
        assert err == ("invalid arguments: listing the levels takes "
                       "bit_length(q_E - 1) * depth (depth + 1) / 2 = "
                       f"{bits * depth * (depth + 1) // 2} bits, over the cap "
                       "of 1000000 bits\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", ["tree-verify", "tree-period", "invariant"])
def test_deep_tree_commands_stay_small(capsys, command, fmt):
    # at (2, 999) the census is pushed out one level at a time and the
    # solver reads the rows' nonzero entries: a stored (depth + 1)^2 table
    # built three times peaked at 99 MB, and dense rows took the solve 7.7 s
    argv = [command, "--qF", "2", "--depth", "999", "--format", fmt]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "") and peak < 8_000_000, (code, err, peak)
    if command == "invariant":
        start = time.perf_counter()
        assert run_cli(capsys, argv) == (code, out, err)
        assert time.perf_counter() - start < 2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_growth_budget_below_one_is_a_usage_error(capsys, monkeypatch, budget):
    def never(*args, **kwargs):
        raise AssertionError("computed a series")

    monkeypatch.setattr(cli, "cached_growth", never)
    argv = ["growth", "--family", "A", "--rank", "2", "--budget", budget]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("invalid arguments: enumeration budget must be at least 1, "
                   f"got {budget}\n")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_char2_builds_the_affine_orbits_once(capsys, monkeypatch, n):
    calls = []
    split = orbits._square_classes

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(orbits, "_square_classes", counted)
    code, _, _ = run_cli(capsys, ["orbit", "--p", "2", "--n", str(n)])
    assert code == 0
    assert len(calls) == 1


def test_orbit_fails_when_the_inversion_keeps_each_class(capsys, monkeypatch):
    # J_c made the identity inside the closure: 1/(c x) reads x, so no x
    # crosses between the square classes and two closure orbits are left
    closure = orbits.inversion_closure_orbits

    def identity_inversion(fields):
        _, c = orbits.canonical_inversion_data(fields)
        with monkeypatch.context() as m:
            m.setattr(orbits.FiniteFieldPair, "inv",
                      lambda self, z: self.mul(self.base_inv(c), z))
            return closure(fields)

    monkeypatch.setattr(orbits, "inversion_closure_orbits", identity_inversion)
    code, out, err = run_cli(capsys, ["orbit", "--p", "3", "--format", "json"])
    data = json.loads(out)
    assert (code, err, data["ok"]) == (1, "", False)
    assert data["closure"]["orbit_count"] == 2
    assert data["closure"]["orbit_sizes"] == data["affine"]["orbit_sizes"] == [3, 3]
    # the identity check runs with the true inverse and still holds
    assert data["identity"]["holds"]


@pytest.mark.parametrize("argv", [
    ["tree-verify", "--qF", "2", "--budget", "5"],
    ["period", "--family", "A", "--rank", "1", "--qF", "3", "--cache-dir", "d"],
    ["suite", "--budget", "5"],
    ["growth", "--family", "A", "--rank", "1", "--cache-dir", "d"],
])
def test_enumeration_options_belong_to_growth_only(argv, capsys, tmp_path,
                                                   monkeypatch):
    # growth has no disk cache, so --cache-dir is unknown to every command
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: buildingkit")
    assert "unrecognized arguments: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_exit_check_failed(capsys, monkeypatch):
    monkeypatch.setattr(cli.tree, "decay_check",
                        lambda pair, cocycle: Fraction(2))
    code, out, _ = run_cli(capsys, ["tree-verify", "--qF", "2", "--depth", "2"])
    assert code == 1
    assert "FAIL" in out


def test_suite_command_formats(capsys, monkeypatch):
    from buildingkit.suite import CheckResult, SuiteReport
    fake = SuiteReport(seed=7, depth=6, checks=(
        CheckResult(name="alpha", claim="first claim", status="pass",
                    witness={"k": 1}),
        CheckResult(name="beta", claim="second claim", status="fail",
                    witness={}),
    ))
    monkeypatch.setattr(cli, "run_suite", lambda **kw: fake)
    code, out, _ = run_cli(capsys, ["suite", "--format", "csv"])
    assert code == 1  # one failing check
    assert out.splitlines() == ["check,status", "alpha,pass", "beta,fail"]
    code, out, _ = run_cli(capsys, ["suite", "--format", "json"])
    assert code == 1
    data = json.loads(out)
    assert data["command"] == "suite"
    assert data["all_pass"] is False
    assert [c["name"] for c in data["checks"]] == ["alpha", "beta"]
    code, out, _ = run_cli(capsys, ["suite"])
    assert code == 1
    assert "[PASS] alpha: first claim" in out
    assert "[FAIL] beta: second claim" in out


def test_bool_suite_seed_is_refused():
    # True == 1, so an unchecked bool would run seed 1 and report "seed": true
    for seed in (True, False):
        with pytest.raises(ValueError,
                           match=f"suite seed must be an integer, got {seed}"):
            run_suite(seed=seed)


def test_run_config_defaults(capsys):
    # the defaults are argparse's: K = 12, text output
    code, out, _ = run_cli(capsys, ["growth", "--family", "A", "--rank", "1"])
    assert code == 0
    assert out == "growth A1 K=12 (enumerated):\n  " \
        "[1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]\n"
