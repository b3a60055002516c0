"""Tests of the package's public names."""

import os
import subprocess
import sys
from pathlib import Path

import sepscope

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves_once():
    assert len(sepscope.__all__) == len(set(sepscope.__all__))
    missing = [name for name in sepscope.__all__ if not hasattr(sepscope, name)]
    assert missing == []


def test_star_import_in_fresh_interpreter():
    # A fresh process, so that no name another test imported can stand in.
    code = ("from sepscope import *\n"
            "import sepscope\n"
            "missing = [n for n in sepscope.__all__ if n not in globals()]\n"
            "assert missing == [], missing\n"
            "print(len(sepscope.__all__))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(sepscope.__all__)}\n"
