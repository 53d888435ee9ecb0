"""Inter-pod migration: commit, rollback, conservation, FIFO.

Mirrors the cross-shard suite (``tests/cluster/test_sharding.py``) one
tier up: the two-phase reserve must never strand or double-book
capacity on either pod, whatever interleaving the shared clock deals —
including the hypothesis conservation property over concurrent
migrations — and per-tenant FIFO must survive pod reassignment.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import PodBuilder
from repro.errors import FederationError
from repro.federation import FederationController, build_federation
from repro.orchestration.requests import VmAllocationRequest
from repro.units import gib, mib


def build_fed(pods=2, **kwargs):
    kwargs.setdefault("racks_per_pod", 1)
    return build_federation(pods, **kwargs)


def boot_tenant(fed, tenant_id, pod_id, ram_bytes=gib(2), vcpus=1):
    request = fed.pods[pod_id].plane.submit(
        "boot", tenant_id,
        request=VmAllocationRequest(vm_id=tenant_id, vcpus=vcpus,
                                    ram_bytes=ram_bytes))
    fed._tenant_pod[tenant_id] = pod_id
    fed.sim.run()
    assert request.record.ok, request.record.note
    return request


def run_migration(fed, tenant_id, target_pod_id):
    """Drive one migration process to completion; returns the outcome."""
    holder = {}

    def driver():
        outcome = yield from fed.migrator.migrate_process(
            tenant_id, target_pod_id)
        holder["outcome"] = outcome

    fed.sim.process(driver())
    fed.sim.run()
    return holder["outcome"]


def pool_consistent(fed):
    """Allocated bytes == live segment bytes on every pod; no claims."""
    for pod in fed.pods.values():
        entries = pod.system.sdm.registry.memory_entries
        allocated = sum(e.allocator.allocated_bytes for e in entries)
        live = sum(s.size for s in pod.system.sdm.live_segments)
        assert allocated == live, pod.pod_id
        for entry in entries:
            entry.allocator.check_invariants()
        holds = getattr(pod.system.sdm, "pending_holds", [])
        assert holds == []
    assert fed.placer.pending_claims == []


class TestCommit:
    def test_tenant_moves_and_source_is_released(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        outcome = run_migration(fed, "t0", "pod1")
        assert outcome.committed
        assert outcome.bytes_copied == gib(2)
        assert outcome.latency_s > 0
        assert fed.pod_of("t0") == "pod1"
        assert fed.pods["pod0"].system.vms == []
        assert [v.vm_id for v in fed.pods["pod1"].system.vms] == ["t0"]
        # Source pool fully reclaimed, target holds the footprint.
        assert all(e.allocator.allocated_bytes == 0
                   for e in fed.pods["pod0"].system.sdm.registry
                   .memory_entries)
        pool_consistent(fed)
        assert fed.stats.migrations == 1
        assert fed.stats.bytes_migrated == gib(2)

    def test_runtime_growth_travels_with_the_tenant(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        grow = fed.submit("scale_up", "t0", size_bytes=gib(1))
        fed.sim.run()
        assert grow.record.ok
        assert fed.tenant_footprint("t0") == gib(3)
        outcome = run_migration(fed, "t0", "pod1")
        assert outcome.committed
        assert outcome.bytes_copied == gib(3)
        # The re-homed guest keeps its grown footprint.
        assert fed.tenant_footprint("t0") == gib(3)
        pool_consistent(fed)

    def test_claim_committed_at_boot_not_held_through_copy(self):
        # A slow inter-pod link stretches the copy window; during it
        # the target's registry already carries the footprint, so the
        # ledger claim must be gone — otherwise concurrent placements
        # would count the bytes twice and spill spuriously.
        fed = build_federation(2, racks_per_pod=1,
                               interpod_link_bps=gib(2) * 8 / 10.0)
        boot_tenant(fed, "t0", "pod0")
        probes = {}

        def prober():
            while "t0" not in fed._moving:
                yield fed.sim.timeout(0.05)
            # Deep inside the move (the copy alone takes ~10 s).
            yield fed.sim.timeout(5.0)
            assert "t0" in fed._moving
            probes["claims"] = list(fed.placer.pending_claims)
            probes["target_claimed"] = fed.placer.snapshot(
                "pod1").claimed_bytes

        fed.sim.process(prober())
        outcome = run_migration(fed, "t0", "pod1")
        assert outcome.committed
        assert probes["claims"] == []
        assert probes["target_claimed"] == 0
        pool_consistent(fed)

    def test_migration_waits_for_inflight_tenant_work(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        # Submit work and immediately start the migration: the move
        # must not copy until the scale-up has executed.
        grow = fed.submit("scale_up", "t0", size_bytes=gib(1))
        outcome = run_migration(fed, "t0", "pod1")
        assert grow.record.ok
        assert outcome.committed
        assert outcome.bytes_copied == gib(3)  # includes the scale-up
        pool_consistent(fed)


class TestRollback:
    def _asymmetric_fed(self):
        """pod0 roomy, pod1 too small to take a 2 GiB tenant."""
        big = (PodBuilder("pod0").with_racks(1)
               .with_compute_bricks(2, cores=16, local_memory=gib(1))
               .with_memory_bricks(2, modules=2, module_size=gib(4))
               .with_section_size(mib(256))
               .with_controller_shards(None).build())
        small = (PodBuilder("pod1").with_racks(1)
                 .with_compute_bricks(1, cores=16, local_memory=mib(256))
                 .with_memory_bricks(1, modules=1, module_size=mib(512))
                 .with_section_size(mib(256))
                 .with_controller_shards(None).build())
        return FederationController([big, small])

    def test_target_rejection_rolls_back(self):
        fed = self._asymmetric_fed()
        boot_tenant(fed, "t0", "pod0")
        source_allocated = sum(
            e.allocator.allocated_bytes
            for e in fed.pods["pod0"].system.sdm.registry.memory_entries)
        outcome = run_migration(fed, "t0", "pod1")
        assert not outcome.committed
        assert "rejected" in outcome.note
        # The tenant never moved and nothing was stranded anywhere.
        assert fed.pod_of("t0") == "pod0"
        assert fed.pods["pod1"].system.vms == []
        assert sum(
            e.allocator.allocated_bytes
            for e in fed.pods["pod0"].system.sdm.registry.memory_entries
        ) == source_allocated
        assert all(e.allocator.allocated_bytes == 0
                   for e in fed.pods["pod1"].system.sdm.registry
                   .memory_entries)
        pool_consistent(fed)
        assert fed.stats.migration_rollbacks == 1
        assert fed.stats.migrations == 0

    def test_departed_tenant_is_a_noop(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        depart = fed.submit("depart", "t0")
        # Start the migration in the same scheduling round as the
        # depart: by the time the move drains the tenant's tail, the
        # VM is gone and the move must back off without touching pod1.
        outcome = run_migration(fed, "t0", "pod1")
        assert depart.record.ok
        assert not outcome.committed
        assert "departed" in outcome.note
        assert fed.stats.migration_rollbacks == 0
        pool_consistent(fed)

    def test_invalid_targets_rejected(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")

        def bad(target):
            def driver():
                yield from fed.migrator.migrate_process("t0", target)
            fed.sim.process(driver())
            with pytest.raises(FederationError):
                fed.sim.run()

        bad("pod9")   # unknown pod
        bad("pod0")   # already home


class TestFifoAcrossReassignment:
    def test_requests_around_a_move_execute_in_order(self):
        fed = build_fed(2)
        boot_tenant(fed, "t0", "pod0")
        order = []

        def client():
            first = yield from fed.submit_process(
                "scale_up", "t0", size_bytes=gib(1))
            yield first.done
            order.append(("first", fed.pod_of("t0"), first.record.ok))
            # A move is racing us; this submission must wait it out and
            # land on the tenant's *final* pod, after the first op.
            second = yield from fed.submit_process(
                "scale_up", "t0", size_bytes=gib(1))
            yield second.done
            order.append(("second", fed.pod_of("t0"), second.record.ok))

        def mover():
            yield fed.sim.timeout(0.001)
            yield from fed.migrator.migrate_process("t0", "pod1")

        fed.sim.process(client())
        fed.sim.process(mover())
        fed.sim.run()
        assert [(label, ok) for label, _pod, ok in order] == [
            ("first", True), ("second", True)]
        # The move happened between the two operations: the second one
        # executed on the new pod, after re-homing.
        assert fed.pod_of("t0") == "pod1"
        assert order[1][1] == "pod1"
        assert any(r.kind == "scale_up" and r.ok
                   for r in fed.pods["pod1"].plane.stats.records)
        # Same-tenant FIFO at the record level: the second scale_up
        # started only after the first executed.
        records = [r for pod in fed.pods.values()
                   for r in pod.plane.stats.records
                   if r.kind == "scale_up"]
        assert len(records) == 2
        first, second = sorted(records, key=lambda r: r.submitted_s)
        assert second.started_s >= first.started_s
        pool_consistent(fed)


class TestConservationProperty:
    """Concurrent inter-pod migrations conserve allocated bytes."""

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=1),   # home pod
                  st.sampled_from([gib(1), gib(2), gib(3)]),  # footprint
                  st.booleans()),                          # migrate it?
        min_size=1, max_size=6))
    def test_total_allocated_bytes_conserved(self, tenants):
        fed = build_fed(2)
        for index, (home, size, _move) in enumerate(tenants):
            boot_tenant(fed, f"t{index}", f"pod{home}", ram_bytes=size)
        footprint_before = sum(
            fed.tenant_footprint(f"t{index}")
            for index in range(len(tenants)))
        assert footprint_before == sum(size for _h, size, _m in tenants)

        # Fire every requested migration concurrently on one clock;
        # some will roll back (target full) — that must conserve too.
        for index, (home, _size, move) in enumerate(tenants):
            if move:
                def driver(tenant=f"t{index}", target=f"pod{1 - home}"):
                    yield from fed.migrator.migrate_process(tenant, target)
                fed.sim.process(driver())
        fed.sim.run()

        # Inter-pod migration leaves total allocated bytes conserved.
        footprint_after = sum(
            fed.tenant_footprint(f"t{index}")
            for index in range(len(tenants)))
        assert footprint_after == footprint_before
        assert len(fed._tenant_pod) == len(tenants)
        pool_consistent(fed)
        assert fed.stats.migrations + fed.stats.migration_rollbacks == sum(
            1 for _h, _s, move in tenants if move)
