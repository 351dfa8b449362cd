"""Rebuild refs.json: the exit code and stdout sha256 of every drawable case.

Run from the repository root on the commit that defines the references:

    python3 perfbench/make_refs.py

It runs every case of `cases.universe()` in this process, through the same
`run.Bench.run_case` that the benchmark checks verdicts with, and takes
several minutes, most of it the eight `suite` cases.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402


def main():
    bench = run.Bench("sweep", 0, refs={})
    refs = {}
    for argv in cases.universe():
        _, code, text, problems = bench.run_case(argv)
        problems = [p for p in problems if p != "no reference"]
        if code != 0:
            problems.append(f"exit {code}")
        if problems:
            raise SystemExit(f"{cases.key(argv)}: {problems}")
        refs[cases.key(argv)] = {
            "exit": code,
            "sha256": run.stdout_digest(text),
        }
        print(f"{code} {cases.key(argv)}", file=sys.stderr, flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
