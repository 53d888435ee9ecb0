"""Bench: kernel events/sec across workload shapes.

Runs the full ``kernel_bench`` trajectory (the same code path that
emits ``BENCH_kernel.json``) and asserts what holds on any host: every
shape measured, real work retired, and the final state identical in
every round (``run_kernel_bench`` raises on a divergent round).
Throughput is recorded in ``output/host/kernel.txt`` but not asserted:
on a shared machine it measures the neighbours as much as the kernel.
"""

from __future__ import annotations

from repro.experiments.kernel_bench import SHAPES, run_kernel_bench

#: Rounds per shape: two, so the fingerprint is checked across rounds.
BENCH_REPS = 2


def test_bench_kernel(benchmark, host_artifact_writer):
    result = benchmark.pedantic(run_kernel_bench, rounds=1, iterations=1,
                                kwargs={"reps": BENCH_REPS})
    host_artifact_writer("kernel", result.render())
    print(result.render())

    assert result.shapes() == list(SHAPES)
    for cell in result.cells:
        assert cell.events > 0
        assert cell.best_s > 0
        assert cell.peak_queue > 0
        assert cell.fingerprint
