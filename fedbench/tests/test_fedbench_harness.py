"""Fast checks of the federation serve benchmark's harness.

Tiny traces only: each test serves tens of tenants, so the module runs
in seconds and never touches the checkout (results go to ``tmp_path``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from fedbench import run as bench  # noqa: E402
from fedbench.compare import verdict  # noqa: E402
from fedbench.tracer import LAYERS, Tracer  # noqa: E402
from fedbench.workloads import (  # noqa: E402
    WORKLOADS,
    AuditError,
    FederationRun,
    make_inputs,
    outcome,
)

TINY = 40
#: Directories a run or a test session may write (or that git ignores).
VOLATILE = {".git", ".fedbench", "__pycache__", ".pytest_cache",
            ".hypothesis", ".ruff_cache"}


def serve(name: str, seed: int, tenants: int = TINY,
          tracer: Tracer | None = None):
    """Serve part 0 of a tiny trace; returns ``(run, stats, outcome)``."""
    workload = dataclasses.replace(WORKLOADS[name], tenants=tenants)
    inputs = make_inputs(workload, seed, 0)
    run = FederationRun(workload, inputs)
    if tracer is not None:
        tracer.reset()
    stats = run.serve()
    return run, stats, outcome(stats, inputs.trace)


@pytest.mark.parametrize("name,tenants", [("steady_L", TINY),
                                          ("ops_M", 100)])
def test_tracing_leaves_the_fingerprint_unchanged(name, tenants):
    from repro.sim.engine import Process
    original_resume = Process._resume
    _, _, plain = serve(name, 3, tenants)
    with Tracer() as tracer:
        _, _, traced = serve(name, 3, tenants, tracer)
    assert Process._resume is original_resume  # uninstalled
    assert tracer.missing == []
    assert tracer.calls("federation", "GlobalPlacer.place") == tenants
    assert traced["fingerprint"] == plain["fingerprint"]
    # Self times tile the root span: nothing is counted twice.
    self_s = tracer.layer_self_s()
    assert set(self_s) == set(LAYERS) | {"unattributed"}
    assert sum(self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9)


def test_a_failed_depart_is_counted_as_a_leak():
    run, stats, result = serve("steady_L", 1)
    run.settle()
    leaked = run.audit(stats)
    failed_departs = {r.tenant_id for r in stats.records("depart")
                      if not r.ok}
    assert leaked and set(leaked) == failed_departs
    assert result["failed_requests"] >= len(leaked)
    assert result["served"] <= TINY - len(leaked)
    assert run.leaked_bytes() > 0


def test_the_audit_trips_on_a_corrupted_allocator():
    run, stats, _ = serve("hotspot_M", 2)
    run.settle()
    run.audit(stats)  # consistent before the corruption
    pod = run.federation.pods["pod0"]
    entry = pod.system.sdm.registry.memory_entries[0]
    entry.allocator.allocate(entry.allocator.alignment)  # no segment owns it
    with pytest.raises(AuditError, match="allocators hold"):
        run.audit(stats)


def _snapshot(root: Path) -> dict[str, str]:
    digests = {}
    for directory, subdirectories, files in os.walk(root):
        subdirectories[:] = [d for d in subdirectories if d not in VOLATILE]
        for name in files:
            path = Path(directory, name)
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_a_benchmark_run_leaves_every_tracked_file_unchanged(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "hotspot_M", dataclasses.replace(
        WORKLOADS["hotspot_M"], tenants=TINY, pool=1))
    before = _snapshot(ROOT)
    results = tmp_path / "results.jsonl"
    for trace in ("0", "1"):
        status = bench.main(
            ["--workload", "hotspot_M", "--seed", "5", "--seconds", "1",
             "--trace", trace, "--results", str(results)])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert status == 0
        assert last["correct"] and last["failed"] == 0
        assert last["metrics"]
    assert _snapshot(ROOT) == before
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert [r["trace"] for r in records] == [0, 1]
    # The traced run's parts fingerprint like the untraced run's.
    assert records[1]["fingerprints"].items() <= records[0][
        "fingerprints"].items()


@pytest.mark.parametrize("parent,change,won,expected", [
    ([100, 101, 99, 100], [120, 121, 119, 120], 1.0, "better"),
    ([100, 101, 99, 100], [60, 61, 59, 60], 0.0, "worse"),
    ([100, 160, 60, 100], [100, 150, 70, 95], 0.5, "unresolved"),
    ([100, 101, 99, 100], [98, 99, 97, 98], 0.0, "same"),
])
def test_compare_verdicts(parent, change, won, expected):
    metric = {"name": "tenants_per_s", "better": "higher", "bound": 0.25}
    assert verdict(metric, parent, change, won) == expected
