"""Count the code, docstring, comment and blank lines of Python modules.

Usage: python3 tools/loc.py [PATH ...]

Each PATH is a .py file or a directory whose *.py files are counted; the
default is the `bnlab` package next to this script.  Every line falls in
one class:

- docstring: a line spanned by the first string statement of a module,
  class or function;
- code: any other line inside a string literal that spans lines;
- comment: any other line whose first non-blank character is `#`;
- blank: any other line that holds only white space;
- code: every other line.

It prints one row per module and a total row.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

_DEFAULT = Path(__file__).resolve().parents[1] / "src" / "bnlab"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _string_lines(source: str) -> set[int]:
    """Line numbers after the first of each string literal that spans
    lines."""
    return {row for tok in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if tok.type == tokenize.STRING
            for row in range(tok.start[0] + 1, tok.end[0] + 1)}


def count(source: str) -> dict[str, int]:
    """{kind: number of lines} of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    strings = _string_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if i in docs:
            counts["docstring"] += 1
        elif i in strings:
            counts["code"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def _files(paths: list[Path]) -> list[Path]:
    return [f for p in paths
            for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rows = [(f.name, count(f.read_text()))
            for f in _files([Path(a) for a in args] or [_DEFAULT])]
    total = {k: sum(c[k] for _, c in rows) for k in KINDS}
    width = max([len(name) for name, _ in rows] + [len("total")])
    print(f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS))
    for name, c in rows + [("total", total)]:
        print(f"{name:<{width}} " + " ".join(f"{c[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
