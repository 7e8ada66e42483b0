#!/usr/bin/env python3
"""Count the code lines of each ``src/perflow`` module.

A code line holds at least one token that is neither a comment nor part of
a docstring (module, class or function), so blank lines, comment-only lines
and docstrings do not count, and a statement spread over several lines
counts each line that holds part of it.  Prints one ``module count`` line per module
and then the total::

    python3 scripts/count_code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            constant = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            if constant and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "perflow").glob("*.py")):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return total


if __name__ == "__main__":
    main()
