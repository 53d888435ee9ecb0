"""Bench: parallel federation — worker sweep + critical-path speedup.

Runs the full ``parallel_scaling`` driver (the same code path that
emits ``BENCH_parallel.json``): the fixed 4-pod trace on the serial
direct controller, the in-process reference fleet, and 1/2/4 worker
processes.  Asserts the PR's two claims:

* **determinism** — every parallel cell fingerprints identically to
  the ``workers=0`` reference (the driver itself raises on divergence;
  re-asserted here so the bench report shows it), and
* **the structural speedup** — the critical-path decomposition of the
  reference run clears the floor below the 2.5x target.  The
  *measured* wall-clock column is recorded but not asserted: it is
  core-count-bound, and a 1-core runner can only time-slice four
  workers (the checked-in JSON carries the host's core count so
  readers can tell which regime produced it).

The structural assert uses a deliberately conservative floor — the
checked-in trajectory documents ~2.8x on a quiet machine against the
2.5x target; a loaded runner inflates the non-decomposed overhead
term and shaves the ratio.
"""

from __future__ import annotations

from repro.experiments.parallel_scaling import (
    DEFAULT_WORKER_AXIS,
    run_parallel_scaling,
)

#: Conservative floor for the structural speedup assert, below the
#: 2.5x target the checked-in ``BENCH_parallel.json`` clears (quiet-
#: machine trajectory: ~2.8x).  The decomposition subtracts measured
#: busy time from measured wall, so a noisy shared runner inflates
#: the "other" term and deflates the ratio — the floor absorbs that
#: without letting a real structural regression through.
SPEEDUP_FLOOR = 2.0


def test_bench_parallel(benchmark, host_artifact_writer):
    result = benchmark.pedantic(run_parallel_scaling, rounds=1,
                                iterations=1)
    host_artifact_writer("parallel", result.render())
    print(result.render())

    # One serial-direct context row plus every worker count.
    assert [cell.workers for cell in result.cells] == [
        None, *DEFAULT_WORKER_AXIS]

    # Determinism: identical observable state at every worker count.
    reference = result.cell(0)
    assert reference.admitted > 0
    for workers in DEFAULT_WORKER_AXIS[1:]:
        cell = result.cell(workers)
        assert cell.fingerprint == reference.fingerprint
        assert cell.events == reference.events
        assert cell.rounds == reference.rounds
        assert cell.admitted == reference.admitted
        assert cell.spills == reference.spills

    # The decomposition is sane: total busy bounds the critical path,
    # the pipelined hub really overlapped work, every round counted.
    assert reference.lp_busy_s >= reference.lp_critical_s > 0
    assert reference.critical_path_s >= reference.lp_critical_s
    assert reference.hub_overlapped_s > 0
    assert reference.rounds > 0

    # The tentpole: the 4-pod decomposition clears the floor (the
    # checked-in JSON clears the full 2.5x target).
    assert result.critical_path_speedup() >= SPEEDUP_FLOOR
