"""buildingkit benchmark: seeded, closed-loop workloads with one client.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 45 --trace 0

Run from the repository root.  The process imports `buildingkit` from
`src/`, draws the workload's case list from the seed, and calls
`buildingkit.cli.main(argv)` in-process for one case after another, checking
every verdict against refs.json and against known answers.  It runs the
list in `--seconds // PASS_SECONDS` passes, at least one.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
and one traced pass, requires byte-identical stdout from both, and prints the
per-layer metrics; the spans go to .perfbench_out/.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("case_s.p50", "s"),
              ("case_s.p90", "s"), ("peak_rss_mb", "MB"))
# Fresh set-up processes per run, spread over the run: an equal share before
# every pass and after the last one, so one slow spell of the host cannot
# hold all of them.
SETUP_SAMPLES = 15
# A run makes seconds // PASS_SECONDS passes (at least one), a number fixed
# by the arguments alone, so every run of a workload does the same work.  The
# values are not pass times: they are chosen so that --seconds 45 gives two
# suite passes (about 20-25 s each) and one sweep pass (about 33 s).
PASS_SECONDS = {"suite": 22, "sweep": 40}


class Bench:
    """What one process sets up before its first timed case."""

    def __init__(self, workload, seed, refs=None):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from buildingkit import cli
        self.cli = cli
        if refs is None:
            refs = json.loads((HERE / "refs.json").read_text())
        self.refs = refs
        self.cases = cases.make_cases(workload, seed)

    def run_case(self, argv):
        """(seconds, exit code, stdout, problems) of one command."""
        out = io.StringIO()
        problems = []
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                problems.append(f"exited via SystemExit({exc.code!r})")
            except Exception as exc:  # a failing case is counted, not fatal
                problems.append(f"raised {exc!r}")
            seconds = perf_counter() - start
        text = out.getvalue()
        ref = self.refs.get(cases.key(argv))
        if ref is None:
            problems.append("no reference")
        else:
            if code != ref["exit"]:
                problems.append(f"exit code {code}, reference {ref['exit']}")
            if stdout_digest(text) != ref["sha256"]:
                problems.append("stdout differs from the reference")
        if code == 0:
            try:
                problems += cases.known_answer_problems(argv, text)
            except (KeyError, TypeError, IndexError) as exc:
                problems.append(f"known-answer check could not read {exc!r}")
        return seconds, code, text, problems

    def run_pass(self, tracer=None):
        """One cold pass over the case list: the per-case results."""
        clear_caches()
        if tracer is not None:
            tracer.install()
        results = []
        try:
            for i, argv in enumerate(self.cases):
                if tracer is not None:
                    tracer.case = i
                results.append(self.run_case(argv))
        finally:
            if tracer is not None:
                tracer.restore()
        return results


def stdout_digest(text):
    """What refs.json stores of a case's stdout."""
    return hashlib.sha256(text.encode()).hexdigest()


def clear_caches():
    """Empty the program's functools caches so every pass starts cold."""
    for module in package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _failures(argvs, results, report):
    failed = 0
    for argv, (_, _, _, problems) in zip(argvs, results):
        if problems:
            failed += 1
            report.append(f"{cases.key(argv)}: {'; '.join(problems)}")
    return failed


def setup_times(workload, seed, samples):
    """Seconds from process start to ready-for-the-first-case, of fresh processes."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def timed_run(bench, passes, probe, report):
    """Untraced passes, with `probe()` set-up samples before each and after the last.

    Returns (attempted, failed, end-to-end metrics, info)."""
    walls, times, attempted, failed = [], [], 0, 0
    command_s = Counter()
    setup = probe()
    for _ in range(passes):
        results = bench.run_pass()
        walls.append(sum(r[0] for r in results))
        times += [r[0] for r in results]
        for argv, r in zip(bench.cases, results):
            command_s[argv[0]] += r[0]
        attempted += len(results)
        failed += _failures(bench.cases, results, report)
        setup += probe()
    p90 = (statistics.quantiles(times, n=10, method="inclusive")[8]
           if len(times) > 1 else times[0])
    values = {
        "setup_s": min(setup),
        "wall_s": statistics.median(walls),
        "case_s.p50": statistics.median(times),
        "case_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"pass_walls": walls, "samples": len(times), "command_s": command_s,
            "setup_times": setup}
    return attempted, failed, {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, info


def traced_run(bench, report, spans_path=None, header=None):
    """One untraced and one traced pass; stdout must match byte for byte."""
    plain = bench.run_pass()
    tracer = Tracer()
    traced = bench.run_pass(tracer)
    for a, b in zip(plain, traced):
        if (a[1], a[2]) != (b[1], b[2]):
            b[3].append("traced output differs from untraced")
    failed = _failures(bench.cases, plain, report) + _failures(bench.cases, traced, report)
    if spans_path is not None:
        tracer.write_spans(spans_path, header)
    overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain)
    info = {"samples": len(plain) + len(traced), "spans": len(tracer.spans)}
    return 2 * len(bench.cases), failed, tracer.metrics(overhead), info


def environment(workload, seed):
    """What a result is recorded with: Python, nproc, commit and source digest."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, refs=None, limit=None,
                 setup_samples=SETUP_SAMPLES, out_dir=None):
    """Run one workload; returns (result dict, info dict, failure report)."""
    bench = Bench(workload, seed, refs)
    if limit is not None:
        bench.cases = bench.cases[:limit]
    report = []
    env = environment(workload, seed)
    if trace:
        spans_path = None
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        attempted, failed, metrics, info = traced_run(bench, report, spans_path, env)
    else:
        passes = max(1, int(seconds // PASS_SECONDS[workload]))
        per_round = -(-setup_samples // (passes + 1))
        attempted, failed, metrics, info = timed_run(
            bench, passes, lambda: setup_times(workload, seed, per_round), report)
    info.update(env, fail_ratio=failed / attempted, cases=len(bench.cases))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "buildingkit" / "cli.py").is_file():
        print(f"no buildingkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        Bench(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result, info, report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=ROOT / ".perfbench_out")
    for line in report[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
