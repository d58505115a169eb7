#!/usr/bin/env python3
"""Count the lines and the code lines of Python sources.

Usage:
    python scripts/count_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them recursively.
For each file, and in total, the script prints two counts: its lines as
``wc -l`` counts them (newline characters), and its code lines. A code line
holds a token other than a comment, a newline or indentation, outside a
docstring. A docstring is the string that opens a module, class or function
body; any other string is code on every line it spans.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of ``source``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def python_files(path: Path) -> list:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    total = [0, 0]
    for path in (f for p in args.paths for f in python_files(p)):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:7d} {code:7d}  {path}")
    print(f"{total[0]:7d} {total[1]:7d}  total")


if __name__ == "__main__":
    main()
