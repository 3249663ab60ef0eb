"""Count the code lines of Python modules.

A code line is a physical line that holds part of a statement: blank
lines, comment lines and the lines of docstrings (the string that opens
a module, class or function body) are left out, and each line of a
statement continued over several lines counts. Prints each module's
count and the total:

    python tools/code_lines.py src/embml/*.py

With --against, each module is also counted as it stands at a git
revision, read by git show with no checkout, and the delta is printed
after both counts (a module absent there counts 0):

    python tools/code_lines.py --against HEAD~1 src/embml/*.py
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _git(directory: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", directory, *args],
                          capture_output=True, text=True)


def _at_revision(rev: str, path: str) -> str | None:
    """path's source at git revision rev, or None where it is absent."""
    directory, name = os.path.split(path)
    shown = _git(directory or ".", "show", f"{rev}:./{name}")
    return shown.stdout if shown.returncode == 0 else None


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count code lines.")
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.against is not None:
        directory = os.path.dirname(args.paths[0]) or "."
        if _git(directory, "rev-parse", "--verify", "--quiet",
                f"{args.against}^{{commit}}").returncode != 0:
            parser.error(f"not a git revision: {args.against}")

    totals = [0, 0]
    for path in args.paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        if args.against is None:
            print(f"{count:6d}  {path}")
            totals[1] += count
            continue
        old = _at_revision(args.against, path)
        before = 0 if old is None else code_lines(old)
        print(f"{before:6d}  {count:6d}  {count - before:+6d}  {path}")
        totals[0] += before
        totals[1] += count
    if args.against is None:
        print(f"{totals[1]:6d}  total")
    else:
        before, after = totals
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
