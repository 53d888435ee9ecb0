"""Count the fedbench serves whose set-up runs a full garbage collection.

From the root of a repository checkout::

    python benchmarks/setup_collection_probe.py [WORKLOAD ...]

``fedbench/run.py`` imports the program and then forks one child per
serve.  When the parent's heap is a few hundred tracked allocations
short of its next full (generation-2) collection at the fork, that
collection runs in every child's set-up instead: ``setup_s`` grows by
tens of milliseconds while every simulated metric stays the same.  A
change that shrinks or grows what the parent imports moves that point.

For each workload (default: every fedbench workload) and each
``PYTHONHASHSEED`` 0-19, a fresh interpreter runs the real
``fedbench/run.py`` ``main()`` — its argument parsing and
``BENCHMARK.json`` read included — with ``measure`` replaced by one
``FederationRun`` set-up (seed 1, part 0) in place of the forked serves.
A ``gc.callbacks`` hook notes whether a generation-2 collection starts
during that set-up.  The probe prints, per workload, how many and which
hash seeds ran one and the ``gc.get_count()`` values at the fork point
(the entry of the replaced ``measure``).  To see a trip on the benchmark
itself, rerun a listed seed, e.g.
``PYTHONHASHSEED=3 python3 fedbench/run.py --workload hotspot_M --seed 1
--seconds 1``: its ``setup_s_unscaled`` reads tens of milliseconds
above the other seeds'.

Every process runs in this checkout with the caller's environment and
``-B``: it reads the bytecode caches that exist and writes none, and the
results file goes to a temporary directory, so the probe writes
nothing under the checkout.  Whether caches exist moves the reading:
a process that compiles every module from source allocates
differently during import from one that loads caches.  On the bench
host ``PYTHONDONTWRITEBYTECODE=1`` is set, no cache is ever written,
and every process compiles from source.  Compare a parent and a change
under the same condition.  The exit status is non-zero when a probe
process fails.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = range(20)

#: One measured process: ``argv`` is the checkout, the workload and the
#: results path.
PROBE = """
import gc, json, sys

armed = False
full_collections = 0


def note(phase, info):
    global full_collections
    if armed and phase == "start" and info["generation"] == 2:
        full_collections += 1


gc.callbacks.append(note)
sys.path.insert(0, sys.argv[1])
import fedbench.run as run
from fedbench.workloads import FederationRun, make_inputs


class SetUpDone(Exception):
    pass


def measure(workload, seed, seconds, trace):
    global armed
    fork_count = gc.get_count()
    armed = True
    FederationRun(workload, make_inputs(workload, 1, 0)).close()
    armed = False
    print(json.dumps({"fork_count": fork_count,
                      "full_collections": full_collections}))
    raise SetUpDone


run.measure = measure
try:
    run.main(["--workload", sys.argv[2], "--seed", "1", "--seconds", "1",
              "--results", sys.argv[3]])
except SetUpDone:
    pass
"""


def probe(workload: str, hash_seed: int, results: str) -> dict:
    """One fresh interpreter's fork-point counters and full collections
    during set-up."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT), workload, results],
        env=env, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"probe process failed (exit {done.returncode}):"
                           f"\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fedbench.workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="setup-probe-") as workdir:
        results = str(Path(workdir) / "results.jsonl")
        try:
            for workload in argv or sorted(WORKLOADS):
                tripped: list[int] = []
                counts: collections.Counter = collections.Counter()
                for seed in HASH_SEEDS:
                    reading = probe(workload, seed, results)
                    if reading["full_collections"]:
                        tripped.append(seed)
                    counts[tuple(reading["fork_count"])] += 1
                forks = ", ".join(f"{count} x{n}"
                                  for count, n in sorted(counts.items()))
                seeds = ", ".join(map(str, tripped)) or "none"
                print(f"{workload}: {len(tripped)}/{len(HASH_SEEDS)} hash "
                      f"seeds ran a full collection during set-up "
                      f"(PYTHONHASHSEED {seeds}); gc.get_count() at the "
                      f"fork point: {forks}", flush=True)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
