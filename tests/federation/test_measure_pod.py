"""``measure_pod`` against the snapshot-walk formula it replaced.

The one-pass ``ResourceRegistry.pod_load`` must give the placer and the
rebalancer exactly the numbers the availability snapshots gave: free
bytes and cores from non-failed, placeable bricks only; utilization and
fragmentation from every non-failed memory brick, placeable or not.
"""

from __future__ import annotations

from repro.cluster.trace import poisson_trace
from repro.federation import build_federation
from repro.federation.messages import PodStatus, measure_pod
from repro.orchestration.lifecycle import BrickState
from repro.units import gib


def free_list_fragmentation(allocator) -> float:
    """``1 - largest/free`` recomputed from the free list itself."""
    sizes = [span.size for span in allocator.free_spans()]
    free = sum(sizes)
    return 1.0 - max(sizes) / free if free else 0.0


def reference_status(pod) -> PodStatus:
    """The load measurement written out over availability snapshots."""
    registry = pod.system.sdm.registry
    entries = [e for e in registry.memory_entries if not e.failed]
    fragmentation = (
        sum(free_list_fragmentation(e.allocator) for e in entries)
        / len(entries) if entries else 0.0)
    allocated = sum(e.allocator.allocated_bytes for e in entries)
    free = sum(e.allocator.free_bytes for e in entries)
    plane = pod.plane
    return PodStatus(
        free_memory_bytes=sum(
            a.free_bytes for a in registry.memory_availability()),
        free_cores=sum(c.free_cores
                       for c in registry.compute_availability()),
        queue_depth=(plane.admission.size
                     + plane.ctx.total_reservation_queue_depth),
        fragmentation=fragmentation,
        utilization=(allocated / (allocated + free)
                     if allocated + free else 0.0),
        idle=plane.is_idle(),
        alive=pod.alive,
    )


def test_measure_pod_matches_the_snapshot_formula_mid_serve():
    fed = build_federation(2, racks_per_pod=2)
    pod = fed.pods["pod0"]
    registry = pod.system.sdm.registry
    # Maintenance brick: out of placement, still in the memory pool.
    serviced = registry.memory_entries[-1]
    for state in (BrickState.DRAINING, BrickState.CLEANING,
                  BrickState.MAINTENANCE):
        registry.transition_memory(serviced.brick.brick_id, state)
    observed: list[PodStatus] = []
    failed: dict[str, int] = {}

    def probe():
        yield fed.sim.timeout(3.0)
        # Fail the busiest memory brick and a compute brick hosting VMs
        # while their tenants are still running.
        busiest = max(registry.memory_entries,
                      key=lambda e: e.allocator.allocated_bytes)
        failed["memory_bytes"] = busiest.allocator.allocated_bytes
        pod.plane.handle_memory_brick_failure(busiest.brick.brick_id)
        hosting = [e for e in registry.compute_entries
                   if e.hypervisor.vm_count]
        failed["compute_vms"] = len(hosting)
        registry.mark_compute_failed(hosting[0].brick.brick_id)
        for _ in range(40):
            for each in fed.pods.values():
                status = measure_pod(each.system, each.plane, each.alive)
                assert status == reference_status(each)
                observed.append(status)
            yield fed.sim.timeout(0.2)

    fed.sim.process(probe())
    trace = poisson_trace(160, 20.0, vcpus=2, ram_bytes=gib(3),
                          mean_lifetime_s=3.0, scale_fraction=0.5,
                          seed=5, name="measure")
    fed.serve_trace(trace, home_of=lambda spec: "pod0")

    assert failed["memory_bytes"] > 0 and failed["compute_vms"] > 0
    assert len(observed) == 80
    assert any(not status.idle for status in observed)
    assert any(0.0 < status.fragmentation for status in observed)
    # The split is exercised: the serviced brick's free bytes count in
    # utilization's pool but never as placeable free memory.
    assert serviced.allocator.free_bytes > 0
    pool_free = sum(e.allocator.free_bytes for e in registry.memory_entries
                    if not e.failed)
    assert measure_pod(pod.system, pod.plane).free_memory_bytes < pool_free
