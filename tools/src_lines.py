#!/usr/bin/env python3
"""Print the size of each module of src/cbi: total and code-only lines.

Usage: python3 tools/src_lines.py

A code-only line holds a token of code. Blank lines, comment lines and the
lines of module, class and function docstrings do not count; every line of
a continued expression or a multi-line string that is not a docstring does.
The last row gives the totals over all modules.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source):
    """(total lines, code-only lines) of the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main():
    rows = [(path.relative_to(SRC).as_posix(), *count(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
