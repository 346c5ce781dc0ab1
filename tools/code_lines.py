"""Count the code lines and physical lines of Python sources.

A code line is a physical line that holds a token other than a comment,
a newline or indentation, and is not part of a docstring (the leading string
of a module, class or function).  Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory whose ``*.py`` files are counted (not
recursively); the default is ``src/vknot``.  Prints ``code_lines N`` and
``physical_lines N``, summed over the files.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one source text."""
    docstrings = _docstring_lines(source)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings), len(source.splitlines())


def _files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(path, name) for name in os.listdir(path)
                  if name.endswith(".py"))


def main(argv: list[str]) -> int:
    code = physical = 0
    for path in argv or ["src/vknot"]:
        for name in _files(path):
            with open(name, encoding="utf-8") as handle:
                file_code, file_physical = count(handle.read())
            code += file_code
            physical += file_physical
    print(f"code_lines {code}")
    print(f"physical_lines {physical}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
