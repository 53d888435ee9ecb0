"""Non-gating CI smoke for the controller path (sharded vs single).

A reduced `cluster_scale` run — one pod size, one (high) arrival rate,
a small request count, 1 shard vs per-rack shards — so a regression on
the SDM-C reservation path (lock scope growing, two-phase overhead,
offload breaking) surfaces in PRs in seconds instead of the full
sweep's minutes.  Runs in the non-gating ``benchmarks`` CI job with
the other smokes; see `.github/workflows/ci.yml`.
"""

from __future__ import annotations

from repro.experiments.cluster_scale import run_cluster_scale

#: Reduced scale: enough traffic to saturate a single reservation
#: domain at 70/s, small enough to finish in seconds.
SMOKE_ALLOCATIONS = 150


def test_controller_sharding_smoke():
    result = run_cluster_scale(
        rack_counts=(2,), arrival_rates_hz=(70,),
        allocation_count=SMOKE_ALLOCATIONS)

    single = result.cell(2, 70, "per-request", shards=1)
    sharded = result.cell(2, 70, "per-request", shards=2)

    # All traffic served in both configurations.
    for cell in (single, sharded):
        assert cell.completed == SMOKE_ALLOCATIONS
        assert cell.rejected == 0

    # The single domain is past saturation at this rate; per-rack
    # shards keep the tail at least 2x lower even at smoke scale.
    assert sharded.p99_ms * 2 <= single.p99_ms
    assert sharded.mean_queue_depth < single.mean_queue_depth
