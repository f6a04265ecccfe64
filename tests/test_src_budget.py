"""The code-line budget of ``src/sharedsched``.

A code line is a line of a module that holds a token.  Comments, blank
lines and docstrings do not count; a docstring is a string expression that
is the first statement of a module, class or function.  Run as a script,
this prints the count of each module and the total::

    python tests/test_src_budget.py

The package computes exactly, so no module may use a float: both the test
and the script fail on a float constant, a call of ``float`` or an import of
``math`` anywhere under ``src/sharedsched``.  ``float`` as a type, as in an
``isinstance`` check that rejects JSON floats, is allowed.
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


def float_sites(source: str) -> list[str]:
    """Each float constant, call of ``float`` and import of ``math`` in ``source``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, f"float constant {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                sites.append((node.lineno, "call of float"))
        elif isinstance(node, ast.Import) and "math" in [alias.name for alias in node.names]:
            sites.append((node.lineno, "import of math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites.append((node.lineno, "import of math"))
    return [f"{line}: {what}" for line, what in sorted(sites)]


def module_float_sites() -> list[str]:
    return [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in float_sites(path.read_text(encoding="utf-8"))
    ]


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


def test_src_has_no_floats():
    assert module_float_sites() == []


def test_finds_each_kind_of_float_site():
    source = """import math
from math import ceil
x = 3.32 * 2
y = float("inf")
z = isinstance(x, (bool, float)) and 10**3 and float
"""
    assert float_sites(source) == [
        "1: import of math",
        "2: import of math",
        "3: float constant 3.32",
        "4: call of float",
    ]


if __name__ == "__main__":
    counts = module_counts()
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total (budget {BUDGET})")
    sites = module_float_sites()
    for site in sites:
        print(f"float in src/sharedsched/{site}")
    raise SystemExit(1 if sites else 0)
