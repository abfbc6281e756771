"""Count the lines of each ``src/ccgl`` module as code, docstring, comment or blank.

    python3 scripts/src_lines.py

A line inside a module, class or function docstring counts as docstring,
blank lines in it included. Otherwise a whitespace-only line is blank, a
line whose first non-space character is ``#`` is a comment, and every other
line is code. A module's four counts add up to its line count as
``wc -l`` reads it; the last row is the total over all modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccgl"
CATEGORIES = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstring of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(text: str) -> dict:
    """{category: line count} for the source ``text``."""
    counts = dict.fromkeys(CATEGORIES, 0)
    docstrings = docstring_lines(ast.parse(text))
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    rows = {path.name: classify(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {c: sum(counts[c] for counts in rows.values()) for c in CATEGORIES}
    print(f"{'module':<16}" + "".join(f"{name:>10}" for name in (*CATEGORIES, "lines")))
    for name, counts in rows.items():
        print(f"{name:<16}" + "".join(f"{counts[c]:>10}" for c in CATEGORIES) + f"{sum(counts.values()):>10}")


if __name__ == "__main__":
    main()
