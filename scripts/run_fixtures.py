#!/usr/bin/env python3
"""Run every bundled fixture end to end and print a one-line summary each.

    python3 scripts/run_fixtures.py

Exits 1 when a fixture's status differs from the one it expects.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sullivan import even_complex_formality, formality_verdict  # noqa: E402
from sullivan.fixtures import (  # noqa: E402
    algebra_of,
    build_fixture,
    even_cells_of,
    fixture_ids,
    get_fixture,
)


def main():
    failures = 0
    for fid in fixture_ids():
        fixture = get_fixture(fid)
        started = time.perf_counter()
        if fixture.even_half_degree is not None:
            result = even_complex_formality(
                algebra_of(fixture), fixture.even_half_degree, even_cells_of(fixture)
            )
            status = result.status
            detail = ", ".join(f"{v.status}({v.clause})" for v in result.verdicts)
        else:
            built = build_fixture(fid)
            if built.alpha is None:
                status = "model"
                counts = {}
                for g in built.model.generators:
                    counts[g.degree] = counts.get(g.degree, 0) + 1
                detail = "dim V = " + " ".join(
                    f"{d}:{n}" for d, n in sorted(counts.items())
                )
            else:
                verdict = formality_verdict(built.model, built.alpha)
                status = verdict.status
                detail = verdict.clause
        elapsed = time.perf_counter() - started
        expected = fixture.expected_status
        ok = expected is None or status == expected
        if not ok:
            failures += 1
        flag = "" if ok else "  <-- EXPECTED " + str(expected)
        print(f"{fid:<12} {status:<13} {detail}  [{elapsed:.2f}s]{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
