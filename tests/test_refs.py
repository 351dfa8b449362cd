"""Replay the benchmark's pinned references: exit code and stdout sha256.

`perfbench/refs.json` maps each benchmark command line to the exit code and
the sha256 of the stdout it must produce.  Every key is replayed here except
the `suite` cases, of which only the first runs, to keep the run short.
"""

import hashlib
import json
from pathlib import Path

import pytest

from buildingkit import cli

REFS = json.loads((Path(__file__).resolve().parents[1]
                   / "perfbench" / "refs.json").read_text())
COMMANDS = ("growth", "period", "tree-verify", "tree-period", "invariant",
            "orbit", "suite")


def _keys(command):
    keys = [k for k in REFS if k.split(" ")[0] == command]
    return keys[:1] if command == "suite" else keys


def test_every_ref_belongs_to_a_replayed_command():
    assert {k.split(" ")[0] for k in REFS} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_the_refs(command, capsys):
    keys = _keys(command)
    assert keys
    mismatched = []
    for key in keys:
        code = cli.main(key.split(" "))
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (REFS[key]["exit"], REFS[key]["sha256"]):
            mismatched.append(key)
    assert mismatched == []
