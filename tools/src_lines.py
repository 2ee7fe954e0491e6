"""Print the size of the package source: its ``wc -l`` total and its code lines.

A code line is a line of ``src/junction_riemann/*.py`` that is not blank, not a
``#`` comment and not inside a module, class or function docstring.

Run from anywhere: ``python tools/src_lines.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "junction_riemann"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (1-based) that docstrings occupy."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))
    return len(lines), code


def main() -> None:
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code_lines = counts(path)
        total += lines
        code += code_lines
    print(f"src/junction_riemann: {total} lines, {code} code lines")


if __name__ == "__main__":
    main()
