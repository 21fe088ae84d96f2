#!/usr/bin/env python3
"""Run every bundled fixture end to end and print a one-line summary each.

    python3 scripts/run_fixtures.py

Each fixture runs as `sullivan verdict --fixture ID --json`, or `model` for a
fixture without a cell: the route every job takes.  Exits 1 when a
fixture's status differs from the one it expects or its command fails.
"""

import contextlib
import io
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sullivan import cli  # noqa: E402
from sullivan.fixtures import fixture_ids, get_fixture  # noqa: E402


def _summary(command: str, payload: dict) -> tuple[str, str]:
    """(status, detail) of a command's JSON payload."""
    if command == "model":
        counts = {}
        for g in payload["generators"]:
            counts[g["degree"]] = counts.get(g["degree"], 0) + 1
        return "model", "dim V = " + " ".join(f"{d}:{n}" for d, n in sorted(counts.items()))
    if "cells" in payload:  # even-complex mode
        return payload["status"], ", ".join(f"{v['status']}({v['clause']})" for v in payload["cells"])
    return payload["status"], payload["clause"]


def main():
    failures = 0
    for fid in fixture_ids():
        fixture = get_fixture(fid)
        command = "model" if fixture.cell is None else "verdict"
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--fixture", fid, "--json"])
        elapsed = time.perf_counter() - started
        if code in (0, 10, 20):
            status, detail = _summary(command, json.loads(out.getvalue()))
        else:  # the command's message is on stderr
            status, detail = "failed", f"exit {code}"
        expected = fixture.expected_status
        ok = code in (0, 10, 20) and (expected is None or status == expected)
        if not ok:
            failures += 1
        flag = "" if ok else "  <-- EXPECTED " + str(expected)
        print(f"{fid:<12} {status:<13} {detail}  [{elapsed:.2f}s]{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
