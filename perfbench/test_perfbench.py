"""Self-tests of the benchmark: python3 -m pytest perfbench

Each workload runs in a tiny mode (its first cases only), untraced and
traced.  The suite workload is one 20-30 s case, so its tests take about a
minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, package_modules  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "refs.json").read_text())
TINY = {"suite": 1, "sweep": 6}


def _bindings():
    return {(m.__name__, name): obj for m in package_modules()
            for name, obj in vars(m).items()}


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(cases.WORKLOADS)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_drawable_case_has_a_passing_reference(workload):
    for seed in range(3):
        for argv in cases.make_cases(workload, seed):
            assert REFS[cases.key(argv)]["exit"] == 0


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    result, info, report = run.run_workload(workload, 3, 0, trace=False,
                                            limit=TINY[workload], setup_samples=1)
    assert result["correct"] and result["failed"] == 0, report
    assert result["attempted"] >= TINY[workload]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"python", "nproc", "commit", "seed", "src_sha256"} <= set(info)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_tiny_traced_run_restores_functions_and_matches_stdout(workload):
    before = _bindings()
    result, _, report = run.run_workload(workload, 3, 0, trace=True,
                                         limit=TINY[workload])
    assert _bindings() == before
    assert result["correct"] and result["failed"] == 0, report
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units


def test_corrupted_reference_counts_as_failure():
    refs = dict(REFS)
    argv = cases.make_cases("sweep", 5)[0]
    refs[cases.key(argv)] = dict(refs[cases.key(argv)], sha256="0" * 64)
    result, info, report = run.run_workload("sweep", 5, 0, trace=False,
                                            refs=refs, limit=3, setup_samples=1)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert info["fail_ratio"] == result["failed"] / result["attempted"]
    assert any("differs from the reference" in line for line in report)


def test_known_answers_catch_a_wrong_census():
    doc = {"q_F": 2, "q_E": 4, "depth": 2, "marked_census": [1, 4, 8],
           "ambient_census": [1, 8, 33]}
    problems = cases.known_answer_problems(["tree-verify"], json.dumps(doc))
    assert problems == ["ambient census is not 2 q_E^k"]


def _without_qf(argv):
    return [x for i, x in enumerate(argv) if "--qF" not in (x, argv[i - 1] if i else "")]


def test_same_seed_same_cases_and_seed_changes_only_cost_free_choices():
    a, b = cases.make_cases("sweep", 7), cases.make_cases("sweep", 7)
    c = cases.make_cases("sweep", 8)
    assert a == b and a != c
    assert len(a) == len(c)
    assert sorted(map(_without_qf, a)) == sorted(map(_without_qf, c))


def test_metric_of_a_missing_function_is_absent():
    tracer = Tracer()
    tracer.names = {"coxeter.exponents"}
    metrics = tracer.metrics(1.0)
    assert "coxeter.exponents.self_s" in metrics
    assert "tree.compose.self_s" not in metrics
    assert "coxeter.poincare_finite.calls_per_period" not in metrics


def test_counter_of_a_changed_result_is_absent_and_the_call_still_returns():
    tracer = Tracer()
    tracer.names = {"tree.build_tree_pair", "tree.check_tree_invariants",
                    "tree.verify_harmonic", "tree.decay_check"}
    build = tracer._wrap("tree.build_tree_pair", lambda: "no n_edges here")
    check = tracer._wrap("tree.check_tree_invariants", lambda tree: True)
    assert build() == "no n_edges here"
    assert check(None) is True
    metrics = tracer.metrics(1.0)
    assert "tree.build_tree_pair.self_s" in metrics
    assert "tree.build_tree_pair.edges" not in metrics
    assert "tree.check_ns_per_edge" not in metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
