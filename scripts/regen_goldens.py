#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Run from the repository root after an intentional output change:

    python3 scripts/regen_goldens.py
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sullivan.cli import main  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

CASES = {
    "model_cp1.txt": ["model", "--fixture", "cp1"],
    "model_wedge3_s2.txt": ["model", "--fixture", "wedge3-s2"],
    "attach_cp2.txt": ["attach", "--fixture", "cp2-attach"],
    "verdict_cp2.txt": ["verdict", "--fixture", "cp2-attach"],
    "verdict_wedge3_e6.txt": ["verdict", "--fixture", "wedge3-e6"],
    "verdict_even4k.txt": ["verdict", "--fixture", "even-4k"],
    "verdict_fatwedge_e6.txt": ["verdict", "--fixture", "fatwedge-e6"],
    "verdict_wedge3_e6_json.txt": ["verdict", "--fixture", "wedge3-e6", "--json"],
    "attach_wedge3_e6_json.txt": ["attach", "--fixture", "wedge3-e6", "--json"],
    "examples.txt": ["examples"],
}


def run():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        (GOLDEN / name).write_text(buffer.getvalue(), encoding="utf-8")
        print(f"wrote {name} (exit {code})")


if __name__ == "__main__":
    run()
