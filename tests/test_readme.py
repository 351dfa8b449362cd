"""The README's library block, run as written."""

import ast
import io
import tokenize
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The source of the README's one Python block."""
    (block,) = [part.split("\n", 1)[1]
                for part in README.read_text().split("```")[1::2]
                if part.startswith("python\n")]
    return block


def stated_value(comment):
    """The value a `# value` comment states: its shortest prefix that is a
    Python expression and ends the comment or meets a ',', ':' or ';'."""
    for end in range(1, len(comment) + 1):
        if end < len(comment) and comment[end] not in ",:;":
            continue
        try:
            return eval(comment[:end], {"Fraction": Fraction})
        except SyntaxError:
            pass
    raise AssertionError(f"no value in the comment {comment!r}")


def same(a, b):
    """Equal, with the same types all the way down: 1 is not Fraction(1)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_library_block_values_are_its_comments():
    # each expression statement is compared with its own line's comment,
    # or, when it has none, with a comment line right below it
    block = library_block()
    comments = {tok.start[0]: (tok.start[1], tok.string.lstrip("#").strip())
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md",
                         "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        if stmt.end_lineno in comments:
            _, comment = comments[stmt.end_lineno]
        else:
            column, comment = comments[stmt.end_lineno + 1]
            assert column == 0
        expected = stated_value(comment)
        assert same(value, expected), (ast.unparse(stmt), value, expected)
        checked.append(ast.unparse(stmt))
    assert len(checked) == 12
    assert "invariant_solver(build_tree_pair(3, 4)).profile" in checked
