"""The checked-in kernel trajectory still describes the kernel.

``BENCH_kernel.json`` records, per shape, the events one round
processes, its peak pending-event count and its final-state
fingerprint.  Those are simulated facts, not host timings, so a fresh
round must reproduce them: a change that moves one re-records the file
with ``run_kernel_bench(reps=5).to_json()``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.kernel_bench import run_kernel_bench

RECORD = Path(__file__).resolve().parents[2] / "BENCH_kernel.json"


def test_recorded_shapes_match_a_fresh_round():
    recorded = {entry["shape"]: entry
                for entry in json.loads(RECORD.read_text())["shapes"]}
    result = run_kernel_bench(
        shapes=("admission_70rps", "federation_3pod"), reps=1)
    for cell in result.cells:
        entry = recorded[cell.shape]
        assert (cell.events, cell.peak_queue, cell.fingerprint) == (
            entry["events"], entry["peak_queue"], entry["fingerprint"])
