"""Source-level rules for the package modules."""

import ast
import importlib
import importlib.util
import sys
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


def test_coxeter_layer_is_integer_only():
    # the affine systems are built from the integer Cartan matrix; no
    # rational arithmetic or linear solve belongs in the Coxeter layer
    path = next(path for path in SOURCES if path.name == "coxeter.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            imported.add(prefix)
            if node.module is None:
                imported.update(prefix + alias.name for alias in node.names)
    assert "fractions" not in imported
    assert ".linalg" not in imported


def test_no_group_element_class_but_omega():
    # the Coxeter groups are walked in integer coordinates and never formed
    # as products; the node permutations of Omega are the one group whose
    # elements are multiplied
    found = [f"{path.stem}.{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name == "__mul__"
                     for item in node.body)]
    assert found == ["coxeter.OmegaElement"]


def test_period_path_never_enumerates_the_group():
    # a_k on the period path comes from the exponents; the Cayley-graph BFS
    # and its disk cache serve only the growth command and the tests
    banned = {"growth_coefficients", "cache", "cached_growth"}
    found = []
    for path in SOURCES:
        if path.name not in ("period.py", "suite.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in banned]
    assert found == []


def test_traced_functions_stay_public():
    # the benchmark times these functions by name, so deleting or renaming
    # one belongs with a change to the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in (*tracing.SELF_TIMES, *tracing.COUNTERS):
        layer, function = name.split(".")
        module = importlib.import_module(f"buildingkit.{layer}")
        if function not in tracing.public_functions(module):
            missing.append(name)
    assert tracing.SELF_TIMES and missing == []


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies: every import is a standard
    # library module or a module of the package itself
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
