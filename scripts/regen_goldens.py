#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

The cases are `GOLDEN_CASES` of tests/test_cli.py: (file, argv, exit code).
Run from the repository root after an intentional output change:

    python3 scripts/regen_goldens.py

A case whose exit code differs from the listed one is reported, and the
script exits 1.
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from sullivan.cli import main  # noqa: E402
from test_cli import GOLDEN, GOLDEN_CASES  # noqa: E402


def run() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, argv, expected in GOLDEN_CASES:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        (GOLDEN / name).write_text(buffer.getvalue(), encoding="utf-8")
        if code == expected:
            print(f"wrote {name} (exit {code})")
        else:
            print(f"wrote {name}: exit {code}, expected {expected}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
