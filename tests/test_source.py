"""Source-level rules for the package modules."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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


def test_no_future_imports():
    # pyproject.toml requires Python 3.10, which evaluates every annotation
    # the package writes (int, str, tuple, object, Fraction | None) when its
    # class is made, so no module needs `from __future__ import annotations`
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert found == []


def test_the_command_line_imports_neither_dataclasses_nor_inspect():
    # the records are named tuples, so a command's start-up loads neither
    # `dataclasses` nor `inspect` (with its `ast`, `dis` and `tokenize`);
    # -S keeps site's own imports out of the answer
    src = str(Path(buildingkit.__file__).parent.parent)
    script = ("import sys, buildingkit.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_f_string_has_a_placeholder():
    # an f prefix on a string with nothing to substitute is a leftover; the
    # format spec of a placeholder, such as the ">5" of {x:>5}, is parsed as
    # an f-string of its own and is not one
    assert SOURCES
    found = []
    for path in SOURCES:
        module = ast.parse(path.read_text(), str(path))
        specs = {id(node.format_spec) for node in ast.walk(module)
                 if isinstance(node, ast.FormattedValue) and node.format_spec}
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(module)
                  if isinstance(node, ast.JoinedStr) and id(node) not in specs
                  and not any(isinstance(value, ast.FormattedValue)
                              for value in node.values)]
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


def test_floats_stay_in_two_functions():
    # every result is exact: a float literal or log2 appears only in Newton's
    # start in errors._integer_root, which the integer iteration corrects to
    # the exact root, and in the endpoint-swap coin of
    # tree.random_automorphism, rng.random() < 0.5, which picks a sample and
    # computes no value (an integer draw would change the sampled maps)
    allowed = {"errors._integer_root", "tree.random_automorphism"}
    assert SOURCES
    found = []
    for path in SOURCES:
        module = ast.parse(path.read_text(), str(path))
        exempt = {id(node)
                  for func in ast.walk(module)
                  if isinstance(func, ast.FunctionDef)
                  and f"{path.stem}.{func.name}" in allowed
                  for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(module) if id(node) not in exempt
                  and (isinstance(node, ast.Constant)
                       and isinstance(node.value, (float, complex))
                       or "log2" in (getattr(node, "id", None),
                                     getattr(node, "attr", None)))]
    assert found == []


def test_period_path_never_enumerates_the_group():
    # a_k on the period path comes from the exponents; the coset walks serve
    # only the growth command and the tests
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


def test_package_touches_no_files():
    # stdout and stderr are the program's only outputs: no module imports a
    # file or logging module or calls the builtin open
    banned = {"os", "tempfile", "logging", "shutil", "pathlib", "open()"}
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module.partition(".")[0]]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in banned]
    assert found == []


def test_only_the_command_line_writes_documents():
    # the records are plain values: cli.py builds every JSON document, text
    # line and CSV row from their fields, under its one SCHEMA_VERSION, so
    # no other module names the schema version or defines a to_json_dict
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "to_json_dict"):
                found.append(f"{path.name}:{node.lineno} def to_json_dict")
            elif (path.name != "cli.py" and isinstance(node, ast.Constant)
                    and node.value == "schema_version"):
                found.append(f"{path.name}:{node.lineno} 'schema_version'")
    assert found == []
    assert "schema_version" in (SOURCES[0].parent / "cli.py").read_text()


def test_size_caps_are_written_once():
    # one cap on the bits of a printed value and one on a listing, both in
    # errors.py, serve every layer: a third MAX_*_BITS would be a second
    # rule for one of the two decisions
    found = sorted(
        f"{path.name} {node.id}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.startswith("MAX_") and node.id.endswith("_BITS"))
    assert found == ["errors.py MAX_LISTED_BITS", "errors.py MAX_PRINTED_BITS"]


def test_lower_layers_import_nothing_from_the_period():
    # the input contract (the prime-power certificate and the caps) lives in
    # errors.py, so the Coxeter, tree and orbit layers need nothing of the
    # period layer, which builds on the Coxeter layer
    found = []
    for path in SOURCES:
        if path.name not in ("coxeter.py", "tree.py", "orbits.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("period" in name.split(".") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_characteristic_test(node):
    """Whether node compares an attribute `p` with 2, by == or !=."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "p" for x in operands)
            and any(isinstance(x, ast.Constant) and x.value == 2 for x in operands))


def test_only_the_orbit_layer_tells_the_characteristics_apart():
    # orbits.orbit_claim decides characteristic 2 and the orbit verdict
    # once, and the orbit helpers refuse it there; a `<expr>.p == 2` or
    # `!= 2` in another module is a second copy of that decision
    found = [(path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _is_characteristic_test(node)]
    assert any(name == "orbits.py" for name, _ in found)
    assert [f"{name}:{line}" for name, line in found if name != "orbits.py"] == []


def test_only_the_command_line_writes_a_rational_as_num_and_den():
    # the library's records hold Fractions, and cli._rat alone gives one its
    # JSON form; a {"num": ..., "den": ...} literal elsewhere is a second copy
    assert SOURCES
    found = [(path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Dict)
             and {"num", "den"} <= {getattr(key, "value", None) for key in node.keys}]
    assert [f"{name}:{line}" for name, line in found if name != "cli.py"] == []
    assert any(name == "cli.py" for name, _ in found)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_stay_public():
    # the benchmark times these functions by name, so deleting or renaming
    # one belongs with a change to the benchmark
    tracing = _tracing()
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


def _uncalled(wanted):
    """`module.name` of each function or method of the package whose name
    `wanted` picks and that is named, as an identifier or an attribute,
    nowhere in the package outside its own definition.  Names are matched
    by identifier, not by binding, so a local variable or another class's
    method of the same name counts: this is a floor, not a proof that the
    code is reached."""
    modules = [ast.parse(path.read_text(), str(path)) for path in SOURCES]

    def names(tree):
        return Counter(getattr(node, "id", None) or getattr(node, "attr", None)
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute)))
    everywhere = sum(map(names, modules), Counter())
    return sorted(
        f"{path.stem}.{node.name}"
        for path, module in zip(SOURCES, modules)
        for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and wanted(node.name)
        and everywhere[node.name] == names(node)[node.name])


def test_every_public_name_has_a_program_caller():
    # a public function or method that nothing in the package reaches is a
    # path only the tests run, unless the benchmark times it
    tracing = _tracing()
    traced = {name.split(".")[1]
              for name in (*tracing.SELF_TIMES, *tracing.COUNTERS)}
    assert _uncalled(lambda name: not name.startswith("_")
                     and name not in traced) == []


def test_every_private_function_has_a_caller_in_the_package():
    # a private function that only the tests name belongs in a tests
    # oracle, as the census that once fed the tree audit does; dunders are
    # called by Python itself
    assert _uncalled(lambda name: name.startswith("_")
                     and not name.endswith("__")) == []


def _is_int_test(node):
    """Whether node is `isinstance(..., int)` or `isinstance(..., bool)`,
    or `type(...) is int` (or `is not`, `==`, `!=`), tuples of types
    included."""
    def names(types):
        return {getattr(name, "id", None) for name in ast.walk(types)}

    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return bool(names(node.args[1]) & {"int", "bool"})
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "type"
            and any(names(c) & {"int", "bool"} for c in node.comparators))


def test_bools_are_refused_in_one_place():
    # "an int, not a bool, in range" is written once, in errors.require_int,
    # and every entry point that takes an integer calls it: an int or bool
    # test written anywhere else is a second copy of the rule
    owners = {}
    for path in SOURCES:
        module = ast.parse(path.read_text(), str(path))
        # functions come after the scopes that hold them, so each check is
        # owned by its innermost function, or by the module
        for scope in (module, *ast.walk(module)):
            if scope is not module and not isinstance(scope, ast.FunctionDef):
                continue
            owner = ".".join(filter(None, (path.stem, getattr(scope, "name", ""))))
            owners.update(
                ((path.name, node.lineno, node.col_offset), owner)
                for node in ast.walk(scope) if _is_int_test(node))
    # its two tests: isinstance(value, bool) and isinstance(value, int)
    assert list(owners.values()) == ["errors.require_int"] * 2
