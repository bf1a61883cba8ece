"""Print the total, code, docstring and comment lines of each Python module under the given paths.

Run by hand, not by pytest:

    python tests/line_counts.py src/causalnc

A code line holds a token of code (by tokenize) and lies in no docstring (by
ast: the first statement of a module, class or function when it is a string
constant).  A comment line holds a comment and no code.  Blank lines, and
the lines of a string that is not a docstring, count as they read: a blank
line as neither, a line of a string expression as code.  Each path is a
module or a directory searched for *.py; the last row sums them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of the module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """{"total", "code", "docstring", "comment"} line counts of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstrings
    return {
        "total": len(source.splitlines()),
        "code": len(code),
        "docstring": len(docstrings),
        "comment": len(comments - code - docstrings),
    }


def main(paths: list[str]) -> None:
    files = []
    for path in map(Path, paths or ["src/causalnc"]):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    columns = ("total", "code", "docstring", "comment")
    print(f"{'module':<40}" + "".join(f"{name:>11}" for name in columns))
    sums = dict.fromkeys(columns, 0)
    for file in files:
        counts = count(file.read_text())
        for name in columns:
            sums[name] += counts[name]
        print(f"{str(file):<40}" + "".join(f"{counts[name]:>11,}" for name in columns))
    print(f"{'total':<40}" + "".join(f"{sums[name]:>11,}" for name in columns))


if __name__ == "__main__":
    main(sys.argv[1:])
