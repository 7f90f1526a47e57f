"""Count the lines of each module of a Python package, and the code lines among them.

Usage::

    python tools/source_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/l2x``.  For every ``*.py`` file in it, in
name order, and then in total, it prints two counts: ``lines``, what
``wc -l`` counts (newline characters), and ``code``, the non-blank lines
that hold something other than a comment or a docstring (the first
statement of a module, class or function, when it is a string literal).
A line holding code and a comment counts as code.  It needs the
standard library alone.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are not code by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines as ``wc -l`` counts them, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/l2x")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"no *.py files in {root}", file=sys.stderr)
        return 2
    rows = [(path.name, *count(path.read_text())) for path in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
