"""Integration: the control plane drives a 2-rack pod under load.

Boot / scale / migrate / depart traffic over a :class:`PodFabric`
(circuits may span the inter-rack switch tier), served by the batched
event-driven control plane of a one-pod federation with background
defragmentation — the whole pod stack in one test.
"""

from __future__ import annotations

from repro.cluster.defrag import DefragmentationTask
from repro.cluster.trace import poisson_trace
from repro.core.builder import PodBuilder
from repro.federation.controller import FederationController
from repro.units import gib


def build_pod():
    return (PodBuilder("itg")
            .with_racks(2)
            .with_compute_bricks(2, cores=16, local_memory=gib(2))
            .with_memory_bricks(2, modules=2, module_size=gib(8))
            .build())


def test_two_rack_pod_under_load():
    system = build_pod()
    trace = poisson_trace(
        30, arrival_rate_hz=15.0, vcpus=2, ram_bytes=gib(3),
        mean_lifetime_s=1.5, scale_fraction=0.5, scale_bytes=gib(1),
        migrate_fraction=0.3, seed=7)
    task = DefragmentationTask(system, interval_s=0.2,
                               max_relocations_per_pass=2)
    federation = FederationController([system])
    (pod,) = federation.pods.values()
    task.install(pod.plane.ctx, idle_probe=pod.plane.is_idle)
    (stats,) = federation.serve_trace(trace).pod_stats.values()

    # The pod served real multi-tenant load end to end.
    boots = stats.completed("boot")
    assert len(boots) >= 20
    assert stats.completed("depart")
    assert stats.completed("scale_up")
    assert len(stats.completed("migrate")) >= 1

    # VM RAM (3 GiB) exceeds local DRAM (2 GiB): every boot attached
    # disaggregated memory, some of it across the pod switch.
    assert all(request.latency_s > 0 for request in boots)

    # Every departed tenant cleaned up; only still-living tenants (if
    # any were rejected mid-lifecycle) could remain.
    departed = {r.tenant_id for r in stats.completed("depart")}
    for vm in system.vms:
        assert vm.vm_id not in departed

    # Pool accounting is consistent: live segments exactly match what
    # the allocators think is carved out.
    live_bytes = sum(s.size for s in system.sdm.live_segments)
    allocated = sum(e.allocator.allocated_bytes
                    for e in system.sdm.registry.memory_entries)
    assert live_bytes == allocated

    # Contention was really modeled: requests queued at least once.
    assert stats.max_queue_depth >= 1
    assert stats.busy_s > 0


def test_cross_rack_circuits_were_used():
    system = build_pod()
    trace = poisson_trace(
        16, arrival_rate_hz=30.0, vcpus=2, ram_bytes=gib(6),
        mean_lifetime_s=5.0, scale_fraction=0.0, seed=11)
    federation = FederationController([system])

    crossings = []

    def probe():
        yield federation.sim.timeout(4.0)
        for segment in system.sdm.live_segments:
            record = system.sdm.segment_record(segment.segment_id)
            hop_path = record.circuit.hop_path
            if hop_path is not None and hop_path.crosses_racks:
                crossings.append(segment.segment_id)

    federation.sim.process(probe())
    federation.serve_trace(trace)
    # Demand (16 x 6 GiB > one rack's 32 GiB pool) forced the SDM-C to
    # place segments behind the second switch tier.
    assert crossings
