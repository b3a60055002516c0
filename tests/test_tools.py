"""Tests for the repository's tools."""

import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
CODE_LINES = TOOLS / "code_lines.py"
COMPARE_DIGEST = TOOLS / "compare_digest.py"

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


def test_compare_digest_lines_and_repeatability():
    # Two states per corpus: one line per corpus, a sha256, two spaces and
    # compare's arguments, the same on a second run.
    runs = [subprocess.run([sys.executable, str(COMPARE_DIGEST), "--count", "2"],
                           capture_output=True, text=True, check=True).stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[1] == runs[0]
    assert len(lines) == 14 and len({line[:64] for line in lines}) == 14
    assert all(re.fullmatch(r"[0-9a-f]{64}  compare --family \S+( --\S+ \S+)* --count 2", line)
               for line in lines), lines
    assert lines[0].endswith("compare --family werner-3 --count 2")
    assert lines[-1].endswith("compare --family separable --m 3 --n 3 --k 12 --count 2")
