"""Count the code lines of Python modules: lines that hold a token of code,
leaving out docstrings, comments and blank lines.

    python tools/code_lines.py            # every src/sepscope/*.py module
    python tools/code_lines.py PATH ...   # these files, or the *.py files of these directories

Prints each module's count and path, then their total.  A docstring is the
string that opens a module, class or function body; every line it spans is
left out.  A statement spread over several lines counts each line it
spans, a string token's lines included.  Uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the docstrings of source."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code outside its docstrings."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def modules(paths: list[str]) -> list[Path]:
    if not paths:
        paths = [str(Path(__file__).resolve().parent.parent / "src" / "sepscope")]
    found: list[Path] = []
    for path in map(Path, paths):
        found += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
