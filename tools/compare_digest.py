"""Print one sha256 of `sepscope compare`'s exit code and stdout per corpus,
so that two checkouts print the same bytes exactly where this script's
outputs agree.

    python tools/compare_digest.py              # every corpus, at its default count
    python tools/compare_digest.py --count 3    # every corpus at 3 states

Each line is the hex digest, two spaces and the compare arguments that
made it.  The corpora are every built-in family: werner-3 (41 states),
horodecki (200), and random and separable (100 each) at the dimensions
2x2, 2x4, 4x2 and 3x3, separable with k = 1 and k = 12.  The sepscope
imported is this checkout's src/.  Uses only the standard library and
sepscope.

    diff <(python A/tools/compare_digest.py) <(python B/tools/compare_digest.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sepscope.cli import main as sepscope_main  # noqa: E402

DIMS = ((2, 2), (2, 4), (4, 2), (3, 3))


def corpora(count: int | None) -> list[list[str]]:
    """compare's arguments for each corpus, every count replaced by count
    when given."""
    runs = [(["--family", "werner-3"], 41), (["--family", "horodecki"], 200)]
    for m, n in DIMS:
        size = ["--m", str(m), "--n", str(n)]
        runs.append((["--family", "random", *size], 100))
        runs += [(["--family", "separable", *size, "--k", str(k)], 100) for k in (1, 12)]
    return [[*argv, "--count", str(count or default)] for argv, default in runs]


def digest(argv: list[str]) -> str:
    """The sha256 of compare's stdout on argv, with its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sepscope_main(["compare", *argv])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, help="states per corpus (default: each corpus's own)")
    args = parser.parse_args(argv)
    for run in corpora(args.count):
        print(f"{digest(run)}  compare {' '.join(run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
