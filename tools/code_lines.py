"""Code lines of each module of the ``beliefchange`` package.

Usage::

    python3 tools/code_lines.py [DIR]

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the leading string of a module, class
or function body) do not count.  It prints each ``*.py`` file of DIR
(by default ``src/beliefchange``) with its count, in name order, then
their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token of code outside a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "beliefchange"
    total = 0
    for path in sorted(root.glob("*.py")):
        found = code_lines(path.read_text(encoding="utf-8"))
        total += found
        print(f"{found:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
