"""Federation controller: topology, routing, spill, traces, rebalancer."""

from __future__ import annotations

import pytest

from repro.cluster.trace import TenantSpec, TenantTrace, poisson_trace
from repro.errors import FederationError
from repro.federation import (
    FederationController,
    FederationRebalancer,
    build_federation,
)
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sharding import ShardedSdmController
from repro.units import gib


def build_fed(pods=2, **kwargs):
    kwargs.setdefault("racks_per_pod", 1)
    return build_federation(pods, **kwargs)


def boot_tenant(fed, tenant_id, pod_id, ram_bytes=gib(2), vcpus=1):
    """Boot a tenant directly on *pod_id* (test shortcut around the
    placer) and run the shared simulator until it lands."""
    request = fed.pods[pod_id].plane.submit(
        "boot", tenant_id,
        request=VmAllocationRequest(vm_id=tenant_id, vcpus=vcpus,
                                    ram_bytes=ram_bytes))
    fed._tenant_pod[tenant_id] = pod_id
    fed.sim.run()
    assert request.record.ok, request.record.note
    return request


class TestConstruction:
    def test_pods_share_one_clock_but_not_contexts(self):
        fed = build_fed(2)
        planes = [pod.plane for pod in fed.pods.values()]
        assert planes[0].sim is planes[1].sim is fed.sim
        assert planes[0].ctx is not planes[1].ctx

    def test_each_pod_keeps_its_sharded_controller(self):
        fed = build_fed(2, racks_per_pod=2)
        for pod in fed.pods.values():
            assert isinstance(pod.system.sdm, ShardedSdmController)
            assert pod.system.sdm.shard_count == 2

    def test_pod_ids_from_builders(self):
        fed = build_fed(3)
        assert sorted(fed.pods) == ["pod0", "pod1", "pod2"]

    def test_empty_or_duplicate_pods_rejected(self):
        with pytest.raises(FederationError):
            FederationController([])
        system = build_fed(1).pods["pod0"].system
        with pytest.raises(FederationError):
            FederationController([system, system])


class TestRouting:
    def test_submit_routes_to_current_pod(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod1")
        request = fed.submit("depart", "t0")
        fed.sim.run()
        assert request.record.ok
        assert any(r.tenant_id == "t0" and r.kind == "depart"
                   for r in fed.pods["pod1"].plane.stats.records)

    def test_depart_deregisters_the_tenant(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        fed.submit("depart", "t0")
        fed.sim.run()
        # Routing tables hold no departed tenants: a later lookup (or a
        # rebalancer planning pass) must not see a ghost registration.
        with pytest.raises(FederationError):
            fed.pod_of("t0")
        assert fed.tenants_on("pod0") == []

    def test_unknown_tenant_rejected(self):
        fed = build_fed(2)
        with pytest.raises(FederationError):
            fed.submit("depart", "ghost")
        with pytest.raises(FederationError):
            fed.pod_of("ghost")

    def test_tenants_on_lists_by_pod(self):
        fed = build_fed(2)
        boot_tenant(fed, "a", "pod0")
        boot_tenant(fed, "b", "pod1")
        assert fed.tenants_on("pod0") == ["a"]
        assert fed.tenants_on("pod1") == ["b"]
        with pytest.raises(FederationError):
            fed.tenants_on("pod9")


class TestSpillOnExhaustion:
    def _exhausting_trace(self, count=10):
        """Tenants of 4 GiB arriving back to back: 10 x 4 = 40 GiB
        against one 16 GiB home pod."""
        return TenantTrace("spill", [
            TenantSpec(f"t{i:02d}", arrival_s=0.05 * i, vcpus=1,
                       ram_bytes=gib(4), lifetime_s=30.0)
            for i in range(count)])

    def test_pinned_placement_rejects_overflow(self):
        fed = build_fed(2, spill_policy="never")
        stats = fed.serve_trace(self._exhausting_trace(),
                                home_of=lambda spec: "pod0")
        assert stats.spills == 0
        assert stats.boots_rejected > 0
        # The second pod sat idle the whole time.
        assert fed.pods["pod1"].system.vms == []

    def test_spill_places_overflow_on_the_other_pod(self):
        fed = build_fed(2, spill_policy="least-loaded")
        stats = fed.serve_trace(self._exhausting_trace(),
                                home_of=lambda spec: "pod0")
        assert stats.spills > 0
        # The overflow really booted on the other pod's plane.
        assert fed.pods["pod1"].plane.stats.completed("boot")
        pinned = build_fed(2, spill_policy="never")
        pinned_stats = pinned.serve_trace(self._exhausting_trace(),
                                          home_of=lambda spec: "pod0")
        assert stats.boots_admitted > pinned_stats.boots_admitted

    def test_claims_ledger_clean_after_trace(self):
        fed = build_fed(2)
        fed.serve_trace(self._exhausting_trace(),
                        home_of=lambda spec: "pod0")
        assert fed.placer.pending_claims == []


class TestServeTrace:
    def test_full_lifecycle_across_pods(self):
        fed = build_fed(2)
        trace = poisson_trace(
            20, arrival_rate_hz=10.0, vcpus=1, ram_bytes=gib(2),
            mean_lifetime_s=0.8, scale_fraction=0.5, scale_bytes=gib(1),
            seed=11, name="fedtrace")
        stats = fed.serve_trace(trace)
        assert stats.boots_admitted == 20
        assert stats.duration_s > 0
        assert len(stats.admission_records) == 20
        # Per-pod stats are attached and cover all request kinds.
        assert set(stats.pod_stats) == {"pod0", "pod1"}
        assert len(stats.records("boot")) == 20
        assert stats.records("scale_up")
        # Every pool drained: no leaked segments anywhere.
        for pod in fed.pods.values():
            live = sum(s.size for s in pod.system.sdm.live_segments)
            allocated = sum(
                e.allocator.allocated_bytes
                for e in pod.system.sdm.registry.memory_entries)
            assert live == allocated
        assert fed.placer.pending_claims == []

    def test_drain_guard_with_rebalancer(self):
        fed = build_fed(2, rebalancer=FederationRebalancer())
        with pytest.raises(FederationError):
            fed.drain()


class TestRebalancer:
    def test_drains_overloaded_pod_in_idle_window(self):
        rebalancer = FederationRebalancer(interval_s=0.1,
                                          imbalance_threshold=0.2)
        fed = build_fed(2, rebalancer=rebalancer)
        # Load pod0 heavily, pod1 not at all, then go idle long enough
        # for the rebalancer to notice.
        trace = TenantTrace("skew", [
            TenantSpec(f"t{i}", arrival_s=0.01 * i, vcpus=1,
                       ram_bytes=gib(4), lifetime_s=8.0)
            for i in range(3)])
        stats = fed.serve_trace(trace, home_of=lambda spec: "pod0")
        assert stats.boots_admitted == 3
        assert rebalancer.report.passes > 0
        assert rebalancer.report.migrations >= 1
        assert rebalancer.report.bytes_drained >= gib(4)
        # The drained tenant really re-booted on the cold pod's plane.
        assert fed.pods["pod1"].plane.stats.completed("boot")
        assert fed.stats.migrations == rebalancer.report.migrations

    def test_one_pass_moves_at_most_one_tenant(self):
        fed = build_fed(2)
        for tenant_id in ("t0", "t1", "t2"):
            boot_tenant(fed, tenant_id, "pod0", ram_bytes=gib(4))
        # A timer that never fires in this test: passes run by hand.
        rebalancer = FederationRebalancer(interval_s=1e6)
        rebalancer.install(fed)

        def one_pass():
            fed.sim.run(until=fed.sim.process(rebalancer.pass_process()))
            return rebalancer.report.migrations

        assert one_pass() == 1
        assert len(fed.tenants_on("pod0")) == 2
        # The pods are still imbalanced: the next pass moves another.
        assert one_pass() == 2
        assert len(fed.tenants_on("pod1")) == 2

    def test_balanced_pods_left_alone(self):
        rebalancer = FederationRebalancer(interval_s=0.1,
                                          imbalance_threshold=0.25)
        fed = build_fed(2, rebalancer=rebalancer)
        trace = TenantTrace("even", [
            TenantSpec(f"t{i}", arrival_s=0.01 * i, vcpus=1,
                       ram_bytes=gib(2), lifetime_s=2.0)
            for i in range(4)])
        fed.serve_trace(
            trace, home_of=lambda spec: f"pod{int(spec.tenant_id[1]) % 2}")
        assert rebalancer.report.migrations == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(FederationError):
            FederationRebalancer(interval_s=0)
        with pytest.raises(FederationError):
            FederationRebalancer(imbalance_threshold=0.0)
