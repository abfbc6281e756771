"""Count the lines of each ``src/ccgl`` module as code, docstring, comment or blank.

    python3 scripts/src_lines.py
    python3 scripts/src_lines.py --against HEAD~1

A line inside a module, class or function docstring counts as docstring,
blank lines in it included. Otherwise a whitespace-only line is blank, a
line whose first non-space character is ``#`` is a comment, and every other
line is code. A module's four counts add up to its line count as
``wc -l`` reads it; the last row is the total over all modules.

With ``--against REF`` each cell reads ``before->after`` followed by the signed
difference, where ``before`` counts the module as ``git show
REF:src/ccgl/<module>`` gives it and ``after`` counts the working tree; a
module missing on one side counts as zero lines there.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ccgl"
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


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def counts_at(ref: str) -> dict:
    """{module name: counts} of the ``src/ccgl`` modules at git ``ref``."""
    paths = [path for path in git("ls-tree", "--name-only", ref, "src/ccgl/").split() if path.endswith(".py")]
    return {Path(path).name: classify(git("show", f"{ref}:{path}")) for path in paths}


def with_total(rows: dict) -> dict:
    rows = {**rows, "total": {c: sum(counts[c] for counts in rows.values()) for c in CATEGORIES}}
    return {name: {**counts, "lines": sum(counts.values())} for name, counts in rows.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", help="git ref whose counts to print next to the working tree's")
    args = parser.parse_args()
    after = with_total({path.name: classify(path.read_text()) for path in sorted(SRC.glob("*.py"))})
    columns = (*CATEGORIES, "lines")
    if args.against is None:
        print(f"{'module':<16}" + "".join(f"{name:>10}" for name in columns))
        for name, counts in after.items():
            print(f"{name:<16}" + "".join(f"{counts[c]:>10}" for c in columns))
        return
    before = with_total(counts_at(args.against))
    zero = dict.fromkeys(columns, 0)
    print(f"{'module':<16}" + "".join(f"{name:>18}" for name in columns))
    for name in sorted(before.keys() - {"total"} | after.keys() - {"total"}) + ["total"]:
        old, new = before.get(name, zero), after.get(name, zero)
        print(f"{name:<16}" + "".join(f"{f'{old[c]}->{new[c]} {new[c] - old[c]:+d}':>18}" for c in columns))


if __name__ == "__main__":
    main()
