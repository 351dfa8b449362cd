"""Source-level rules for the package modules."""

import ast
from pathlib import Path

import buildingkit

SOURCES = sorted(Path(buildingkit.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # model checks must still fire under `python -O`, which strips asserts
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
