#!/usr/bin/env python3
"""Model builds at scale, each in a fresh process: CPU, peak RSS and a digest.

    python3 scripts/bench.py BENCH_43.json
    python3 scripts/bench.py parent.json PARENT_TREE

Each rung builds one minimal model through ``perfbench/workloads.py``'s
``run_job``, as a ``model-wedge`` or ``model-dense`` job does, in a child
process of its own, so that the rungs do not share a heap:

- ``wedge-R-N``: the wedge of R 2-spheres truncated at N, its relations in
  generator order (``_wedge_presentation(R, None)``);
- ``dense-K-Q-N``: the first draw of ``_dense_presentation(K, Q,
  random.Random(3))``, K degree-2 generators and Q random quadratic
  relations, truncated at N.

For each rung the child records ``cpu_s``, the process CPU time from its start
to the end of the build, imports included; ``maxrss_mb``, the
``ru_maxrss`` of the child at the end of the build, in MB of 10^6 bytes; and
``digest``, the sha256 of the generator table that ``workloads.digest``
writes for a model job (names, degrees, stages, d(g) and rho), taken after
the measurements.  Two files show the same work only where their digests
agree.

The package is imported from ``src/`` of TREE (this checkout by default),
the presentations from this checkout's ``perfbench/``, so that one script
measures two trees on the same inputs.  The JSON file holds TREE's commit
(``git describe --always --dirty``, or null outside a git checkout), the
Python version and the platform, and one entry per rung.  The rungs run one
after another; the largest, wedge-4-11, takes about 200 MB and 10-15 s.
Standard library only.
"""

import json
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# rung name -> (kind, *sizes); a dense rung's last size is the seed of its draw
RUNGS = {
    "wedge-4-10": ("wedge", 4, 10),
    "wedge-3-11": ("wedge", 3, 11),
    "wedge-4-11": ("wedge", 4, 11),
    "dense-4-8-8": ("dense", 4, 8, 8, 3),
}

# the child: argv is the tree's src/, this checkout's perfbench/ and the rung
CHILD = """
import json, random, resource, sys, time
sys.path[:0] = sys.argv[1:3]
import workloads
kind, *sizes = json.loads(sys.argv[3])
if kind == "wedge":
    r, n = sizes
    gens, rels = workloads._wedge_presentation(r, None)
else:
    k, q, n, seed = sizes
    gens, rels = workloads._dense_presentation(k, q, random.Random(seed))
job = workloads.Job(kind, "model", gens, rels, n)
output = workloads.run_job(job)
cpu = time.process_time()
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
print(json.dumps({"cpu_s": round(cpu, 3), "maxrss_mb": round(rss, 1),
                  "generators": len(output[0].generators),
                  "digest": workloads.digest(job, *output)}))
"""


def measure(rungs: dict, tree: pathlib.Path) -> dict:
    """Each rung's record, from one child process per rung."""
    out = {}
    for name, rung in rungs.items():
        result = subprocess.run(
            [sys.executable, "-c", CHILD, str(tree / "src"), str(ROOT / "perfbench"),
             json.dumps(rung)],
            capture_output=True, text=True, check=True,
        )
        out[name] = json.loads(result.stdout)
    return out


def commit(tree: pathlib.Path) -> str | None:
    result = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def main(argv, rungs: dict = RUNGS) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    tree = pathlib.Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    record = {
        "commit": commit(tree),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rungs": measure(rungs, tree),
    }
    pathlib.Path(argv[0]).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
