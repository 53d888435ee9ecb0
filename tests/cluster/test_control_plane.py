"""Unit tests for the event-driven control plane."""

from __future__ import annotations

import pytest

from repro.cluster.control_plane import ControlPlane
from repro.cluster.trace import ScaleEvent, TenantSpec, TenantTrace
from repro.core.builder import RackBuilder
from repro.errors import OrchestrationError
from repro.federation.controller import FederationController
from repro.units import gib, mib


def build_system(compute=2, memory=2):
    return (RackBuilder("cp")
            .with_compute_bricks(compute, cores=16, local_memory=gib(4))
            .with_memory_bricks(memory, modules=4, module_size=gib(8))
            .build())


def serve(federation, specs):
    """Serve *specs* through a one-pod federation; returns the pod
    plane's stats."""
    stats = federation.serve_trace(TenantTrace("unit", specs))
    (plane_stats,) = stats.pod_stats.values()
    return plane_stats


def boot_vm(plane, vm_id="vm-0", vcpus=2, ram=gib(1)):
    from repro.orchestration.requests import VmAllocationRequest
    request = plane.submit("boot", vm_id, request=VmAllocationRequest(
        vm_id=vm_id, vcpus=vcpus, ram_bytes=ram))
    return request


class TestAdmission:
    def test_unknown_kind_rejected(self):
        plane = ControlPlane(build_system())
        with pytest.raises(OrchestrationError, match="unknown request kind"):
            plane.submit("reboot", "t0")

    def test_boot_served_and_latency_accounted(self):
        plane = ControlPlane(build_system())
        request = boot_vm(plane)
        stats = plane.drain()
        assert request.record.ok
        record = stats.completed("boot")[0]
        # Boot service (hypervisor spawn alone is 900 ms) is charged on
        # the simulated clock end to end.
        assert record.latency_s > 0.9
        assert record.latency_s == pytest.approx(
            request.result.latency_s, rel=0.1)
        assert plane.system.vms[0].vm_id == "vm-0"

    def test_rejected_boot_recorded_not_raised(self):
        plane = ControlPlane(build_system())
        request = boot_vm(plane, vcpus=99)
        stats = plane.drain()
        assert not request.record.ok
        assert "PlacementError" in request.record.note
        assert len(stats.rejected("boot")) == 1

    def test_queue_depth_sampled_at_submit(self):
        plane = ControlPlane(build_system(), workers=1)
        for index in range(4):
            boot_vm(plane, f"vm-{index}", vcpus=1)
        plane.drain()
        depths = [s.value for s in plane.stats.queue_depth_samples]
        # All four submitted at t=0 with one worker: backlog visible.
        assert max(depths) >= 2


class TestBatching:
    def _scale_traffic(self, plane, count):
        boot = boot_vm(plane, "vm-0", vcpus=2, ram=mib(512))
        requests = []

        def driver():
            yield boot.done
            for _ in range(count):
                request = plane.submit("scale_up", "vm-0",
                                       size_bytes=mib(256))
                requests.append(request)
            yield plane.sim.all_of([r.done for r in requests])

        plane.sim.process(driver())
        plane.drain()
        return requests

    def test_batch_amortizes_config_generation(self):
        config_s = None
        total = {}
        for max_batch in (1, 8):
            plane = ControlPlane(build_system(), max_batch=max_batch,
                                 workers=1)
            config_s = plane.system.sdm.timings.config_generation_s
            requests = self._scale_traffic(plane, 8)
            assert all(r.record.ok for r in requests)
            total[max_batch] = max(r.record.completed_s
                                   for r in requests)
        # The batched plane pushes one configuration instead of eight:
        # the makespan shrinks by at least a few config times (the
        # batch also overlaps brick-side work, which only helps more).
        assert total[8] < total[1] - 3 * config_s

    def test_per_request_mode_charges_config_each_time(self):
        plane = ControlPlane(build_system(), max_batch=1, workers=1)
        requests = self._scale_traffic(plane, 3)
        sdm_steps = [r.result.steps["sdm"] for r in requests]
        config_s = plane.system.sdm.timings.config_generation_s
        for step in sdm_steps:
            assert step >= config_s

    def test_batched_ticket_excludes_config_share(self):
        sdm_steps = {}
        for max_batch in (1, 8):
            plane = ControlPlane(build_system(), max_batch=max_batch,
                                 workers=1)
            requests = self._scale_traffic(plane, 4)
            sdm_steps[max_batch] = [r.result.steps["sdm"]
                                    for r in requests]
            config_s = plane.system.sdm.timings.config_generation_s
        # Identical traffic: the batched tickets bill exactly one
        # config-generation less per request (it is amortized).
        for per_request, batched in zip(sdm_steps[1], sdm_steps[8]):
            assert batched == pytest.approx(per_request - config_s)


class TestCompletionOffload:
    def _scale_pair(self):
        """Two tenants' scale-ups through a single-worker plane."""
        system = build_system()
        for index in range(2):
            from repro.orchestration.requests import VmAllocationRequest
            system.boot_vm(VmAllocationRequest(
                vm_id=f"vm-{index}", vcpus=2, ram_bytes=mib(512)))
        plane = ControlPlane(system, workers=1)
        requests = [plane.submit("scale_up", f"vm-{index}",
                                 size_bytes=mib(256))
                    for index in range(2)]
        plane.drain()
        assert all(r.record.ok for r in requests)
        return requests

    def test_worker_freed_at_commit_overlaps_brick_side(self):
        # The only worker is freed once the first reservation commits,
        # so the second request starts while the first's brick-side
        # phase (its detached acknowledgement) is still running.
        first, second = self._scale_pair()
        assert second.record.started_s < first.record.completed_s

    def test_done_still_fires_at_full_completion(self):
        requests = self._scale_pair()
        for request in requests:
            # committed (reservation) strictly precedes the brick-side
            # acknowledgement that completes the request...
            assert request.committed.triggered
            # ...and the reported latency covers the whole pipeline,
            # not just the controller part.
            assert request.record.latency_s >= \
                request.result.total_latency_s

    def test_release_last_kind_commits_at_execution(self):
        system = build_system()
        plane = ControlPlane(system, workers=1)
        boot = boot_vm(plane, "vm-0", vcpus=2, ram=mib(512))

        def driver():
            yield boot.done
            depart = plane.submit("depart", "vm-0")
            yield depart.done
            assert depart.committed.triggered

        plane.sim.process(driver())
        plane.drain()
        assert plane.system.vms == []


class TestLifecycles:
    def test_full_lifecycle_trace(self):
        system = build_system()
        spec = TenantSpec(
            tenant_id="tenant-0", arrival_s=0.0, vcpus=2,
            ram_bytes=gib(1), lifetime_s=3.0,
            scale_events=(ScaleEvent(0.5, "up", gib(1)),
                          ScaleEvent(1.5, "down", gib(1))),
            migrate_at_s=2.0)
        stats = serve(FederationController([system]), [spec])
        kinds = {r.kind for r in stats.completed()}
        assert kinds == {"boot", "scale_up", "scale_down",
                         "migrate", "depart"}
        # Everything wound down: no VMs, no segments, no leaks.
        assert system.vms == []
        assert system.sdm.live_segments == []

    def test_migration_moved_the_vm(self):
        system = build_system(compute=2)
        federation = FederationController([system])
        spec = TenantSpec(
            tenant_id="tenant-0", arrival_s=0.0, vcpus=2,
            ram_bytes=gib(1), lifetime_s=2.0, migrate_at_s=0.5)
        bricks = []

        def spy():
            yield federation.sim.timeout(1.2)
            bricks.append(system.hosting("tenant-0").brick_id)

        federation.sim.process(spy())
        stats = serve(federation, [spec])
        migrations = stats.completed("migrate")
        assert len(migrations) == 1
        report = next(r for r in stats.records
                      if r.kind == "migrate")
        assert report.ok

    def test_rejected_tenant_stops_its_lifecycle(self):
        specs = [TenantSpec(f"t{i}", 0.0, vcpus=99, ram_bytes=gib(1),
                            lifetime_s=1.0) for i in range(3)]
        stats = serve(FederationController([build_system()]), specs)
        assert len(stats.rejected("boot")) == 3
        assert stats.completed("depart") == []


class TestUtilizationAndFragmentation:
    def test_stats_populated(self):
        spec = TenantSpec("tenant-0", 0.0, vcpus=2, ram_bytes=gib(6),
                          lifetime_s=1.0)
        stats = serve(FederationController([build_system()]), [spec])
        assert stats.duration_s > 0
        assert 0 < stats.utilization <= 1
        assert stats.fragmentation_samples
        assert stats.latency_percentile(99, "boot") >= \
            stats.latency_percentile(50, "boot") > 0
