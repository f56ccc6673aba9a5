"""Print the lines of the given Python files, and how many of them are code.

A code line is neither blank, nor a comment, nor part of a docstring (the
string that opens a module, class or function body).

    python .github/scripts/count_lines.py src/partialid/*.py
"""

import ast
import sys

DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: str) -> tuple[int, int]:
    """The lines of the file at ``path``, and its code lines."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    other = {i for i, line in enumerate(lines, 1) if line.strip()[:1] in ("", "#")}
    for node in ast.walk(ast.parse(text, path)):
        first = node.body[0] if isinstance(node, DEFINITIONS) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            other.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(other)


if __name__ == "__main__":
    totals = [sum(column) for column in zip(*map(count, sys.argv[1:]))]
    print(f"{totals[0]} lines, {totals[1]} of them code")
