"""Print the code lines of each src/treeboot module, then their total.

A code line is a non-blank line outside comments and docstrings: the
measure of size that "the same behaviour from less code" is judged by,
which editing a comment or a docstring does not move.  Standard library
only; it takes no options.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treeboot"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of non-blank lines of ``source`` that hold a token other
    than a comment, outside its docstrings."""
    text = source.splitlines()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if text[line - 1].strip())
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
