"""The code-line budget of ``src/sharedsched``.

A code line is a line of a module that holds a token.  Comments, blank
lines and docstrings do not count; a docstring is a string expression that
is the first statement of a module, class or function.  Run as a script,
this prints the count of each module and the total::

    python tests/test_src_budget.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sharedsched"
BUDGET = 1900

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the tree's docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token, docstrings aside."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_counts() -> dict[str, int]:
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_src_within_budget():
    counts = module_counts()
    assert counts, f"no modules under {PACKAGE}"
    assert sum(counts.values()) <= BUDGET, counts


def test_counts_code_lines_only():
    source = '''"""Module docstring,
over two lines."""

# a comment
X = """not a docstring,
two lines"""


class A:
    """Class docstring."""

    def f(self):  # trailing comment
        "Function docstring."
        return (1,
                2)
'''
    assert code_lines(source) == 6  # X's two lines, class, def, return's two lines


if __name__ == "__main__":
    counts = module_counts()
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total (budget {BUDGET})")
