"""Count the code lines of Python sources.

A code line is a line that holds a code token: blank lines, comments and
docstrings (a string that stands alone as the first statement of a
module, class or function) do not count, and a token that spans lines,
such as a multi-line string, counts on each line it spans.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a file or a directory, searched for *.py files.  Prints one
count per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of the module and of each class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token outside every docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    files = sorted(f for p in map(Path, argv) for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
