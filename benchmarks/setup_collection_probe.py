"""Count the fedbench serves whose set-up runs a full garbage collection.

From the root of a repository checkout::

    python benchmarks/setup_collection_probe.py [WORKLOAD ...]

``fedbench/run.py`` imports the program and then forks one child per
serve.  When the parent has run no full (generation-2) collection by
the fork, the child's first generation-1 collection becomes a full one,
inside that serve's set-up: ``setup_s`` grows by tens of milliseconds
while every simulated metric stays the same.  A change that shrinks,
grows or reorders what the parent imports moves that point.

The probe builds a temporary tree that holds copies of this checkout's
``src/`` and ``fedbench/`` without their bytecode caches, links its
``BENCHMARK.json``, and replaces the copied ``fedbench/run.py`` with
one that prints ``gc.get_count()`` and the generation-2 collection
count just before ``in_child`` forks, then exits.  For each workload
(default: every workload of ``BENCHMARK.json``) and each
``PYTHONHASHSEED`` 0-19 it runs that copy as a script, as the
benchmark runs ``run.py`` (``--seed 1 --seconds 1``).  A hash seed
*trips* when the parent has run no full collection by the fork.  The
probe prints, per workload, how many and which hash seeds tripped and
the fork-point readings.  To see a trip on the
benchmark itself, rerun a listed seed, e.g. ``PYTHONHASHSEED=3 python3
fedbench/run.py --workload hotspot_M --seed 1 --seconds 1``: its
``setup_s_unscaled`` reads tens of milliseconds above the other seeds'.

Every process runs with the caller's environment and ``-B``, so it
writes no cache; its results file and working directory are in the
temporary tree, and the probe writes nothing under the checkout.
Whether caches exist moves the reading (a process that compiles every
module from source allocates differently during import from one that
loads caches), so the copies leave every cache behind: each process
compiles every module from source, as on the bench host, where
``PYTHONDONTWRITEBYTECODE=1`` is set, and the reading is the same
whether or not the checkout holds caches.  The exit status is 2 when
``fedbench/run.py`` does not hold the fork line exactly once, 1 when a
probe process fails, 3 when any hash seed tripped on any workload and
0 otherwise.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = range(20)

#: Exit status of a probe in which some hash seed tripped.
TRIPPED = 3

#: Left out of the copies: the bytecode caches.
NO_CACHES = shutil.ignore_patterns("__pycache__", "*.pyc")

#: The line of ``in_child`` the reading is taken before.
ANCHOR = "    pid = os.fork()\n"

#: Inserted before :data:`ANCHOR`: the fork-point counters, read before
#: anything else allocates, then an exit instead of the fork.
READING = """\
    gc = __import__("gc")
    reading = {"fork_count": gc.get_count(),
               "full_collections": gc.get_stats()[2]["collections"]}
    sys.stdout.write(json.dumps(reading) + "\\n")
    sys.stdout.flush()
    os._exit(0)
"""


def instrument(source: str) -> str:
    """*source* of ``run.py`` with :data:`READING` before its fork."""
    found = source.count(ANCHOR)
    if found != 1:
        raise ValueError(f"fedbench/run.py holds the fork line "
                         f"{ANCHOR.strip()!r} {found} times, not once")
    return source.replace(ANCHOR, READING + ANCHOR)


def build_tree(tree: Path, run_source: str) -> Path:
    """Copy the checkout's ``src/`` and ``fedbench/`` into *tree*
    without bytecode caches, with the instrumented ``run.py``; returns
    the copy's path."""
    shutil.copytree(ROOT / "src", tree / "src", ignore=NO_CACHES)
    shutil.copytree(ROOT / "fedbench", tree / "fedbench", ignore=NO_CACHES)
    (tree / "BENCHMARK.json").symlink_to(ROOT / "BENCHMARK.json")
    script = tree / "fedbench" / "run.py"
    script.write_text(run_source, encoding="utf-8")
    return script


def probe(script: Path, workload: str, hash_seed: int) -> dict:
    """One fresh interpreter's fork-point counters."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    tree = script.parent.parent
    done = subprocess.run(
        [sys.executable, "-B", str(script), "--workload", workload,
         "--seed", "1", "--seconds", "1",
         "--results", str(tree / "results.jsonl")],
        env=env, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"probe process failed (exit {done.returncode}):"
                           f"\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    try:
        run_source = instrument(
            (ROOT / "fedbench" / "run.py").read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"setup_collection_probe: {exc}", file=sys.stderr)
        return 2
    workloads = argv or [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]

    any_tripped = False
    with tempfile.TemporaryDirectory(prefix="setup-probe-") as workdir:
        script = build_tree(Path(workdir), run_source)
        try:
            for workload in workloads:
                tripped: list[int] = []
                counts: collections.Counter = collections.Counter()
                for seed in HASH_SEEDS:
                    reading = probe(script, workload, seed)
                    if not reading["full_collections"]:
                        tripped.append(seed)
                    counts[(tuple(reading["fork_count"]),
                            reading["full_collections"])] += 1
                forks = ", ".join(
                    f"{count} x{n} after {full} full"
                    for (count, full), n in sorted(counts.items()))
                any_tripped |= bool(tripped)
                seeds = ", ".join(map(str, tripped)) or "none"
                print(f"{workload}: {len(tripped)}/{len(HASH_SEEDS)} hash "
                      f"seeds forked with no full collection run "
                      f"(PYTHONHASHSEED {seeds}); gc.get_count() at the "
                      f"fork point: {forks}", flush=True)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    return TRIPPED if any_tripped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
