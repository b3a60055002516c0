"""Tests for the repository's tools."""

import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """Function docstring."""
    y = (x +
         1)
    s = """a string
that is no docstring"""
    return y, s


class C:
    \'\'\'Class docstring.\'\'\'
    z = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    # import, def, the two lines of y, the two of s, return, class, z.
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    result = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path)],
                            capture_output=True, text=True, check=True)
    rows = [line.split(None, 1) for line in result.stdout.splitlines()]
    assert rows == [["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")],
                    ["10", "total"]]
