"""Tests for background defragmentation / consolidation."""

from __future__ import annotations

import pytest

from repro.cluster.defrag import DefragmentationTask
from repro.cluster.trace import TenantSpec, TenantTrace
from repro.core.builder import RackBuilder
from repro.errors import ReproError
from repro.federation.controller import FederationController
from repro.units import gib


def build_system(memory=3):
    return (RackBuilder("defrag")
            .with_compute_bricks(2, cores=32, local_memory=gib(8))
            .with_memory_bricks(memory, modules=2, module_size=gib(8))
            .build())


def spread_segments(system, per_brick=2):
    """Force segments onto every memory brick (spread by hand)."""
    from repro.orchestration.placement import SpreadPolicy
    system.sdm.policy = SpreadPolicy()
    results = []
    brick_count = len(system.sdm.registry.memory_entries)
    system.boot_vm(__vm_request("spread-vm"))
    for index in range(per_brick * brick_count):
        results.append(system.scale_up("spread-vm", gib(1)))
    return results


def __vm_request(vm_id):
    from repro.orchestration.requests import VmAllocationRequest
    return VmAllocationRequest(vm_id=vm_id, vcpus=2, ram_bytes=gib(1))


class TestPassMechanics:
    def test_consolidates_onto_fewer_bricks(self):
        system = build_system()
        spread_segments(system, per_brick=2)
        occupied_before = sum(
            1 for e in system.sdm.registry.memory_entries
            if e.allocator.allocation_count > 0)
        assert occupied_before == 3

        task = DefragmentationTask(system, max_relocations_per_pass=16)
        report = task.run_pass()
        occupied_after = sum(
            1 for e in system.sdm.registry.memory_entries
            if e.allocator.allocation_count > 0)
        assert report.relocations > 0
        assert report.bytes_moved >= report.relocations * gib(1)
        assert occupied_after < occupied_before

    def test_emptied_brick_powered_off(self):
        system = build_system()
        spread_segments(system, per_brick=1)
        task = DefragmentationTask(system, max_relocations_per_pass=16)
        report = task.run_pass()
        assert report.bricks_emptied >= 1
        powered = [e.brick.is_powered
                   for e in system.sdm.registry.memory_entries]
        assert not all(powered)

    def test_segments_stay_consistent_after_relocation(self):
        system = build_system()
        results = spread_segments(system, per_brick=2)
        task = DefragmentationTask(system, max_relocations_per_pass=16)
        task.run_pass()
        # Every runtime segment still resolves: records point at the
        # brick that now really holds the allocation.
        for result in results:
            record = system.sdm.segment_record(
                result.segment.segment_id)
            entry = system.sdm.registry.memory(
                record.segment.memory_brick_id)
            spans = {span.base
                     for span in entry.allocator.allocated_spans()}
            assert record.segment.offset in spans
            assert record.entry.remote_brick_id == \
                record.segment.memory_brick_id
        # And the owning VM can still scale everything back down.
        for result in results:
            system.scale_down("spread-vm", result.segment.segment_id)
        assert system.sdm.live_segments == []
        brick_id = system.hosting("spread-vm").brick_id
        assert system.stack(brick_id).scaleup.attached_segments() == []

    def test_feeds_placement_policy(self):
        system = build_system()
        spread_segments(system, per_brick=2)
        from repro.orchestration.placement import PowerAwarePackingPolicy
        system.sdm.policy = PowerAwarePackingPolicy()
        task = DefragmentationTask(system, max_relocations_per_pass=4)
        task.run_pass()
        assert system.sdm.policy.hot_bricks  # consolidation targets

    def test_nothing_to_do_is_a_noop(self):
        system = build_system()
        task = DefragmentationTask(system)
        report = task.run_pass()
        assert report.relocations == 0
        assert report.passes == 1

    def test_invalid_configuration_rejected(self):
        system = build_system()
        with pytest.raises(ReproError):
            DefragmentationTask(system, interval_s=0)
        with pytest.raises(ReproError):
            DefragmentationTask(system, max_relocations_per_pass=0)
        with pytest.raises(ReproError):
            DefragmentationTask(system, planner="tetris")


class _PinnedPolicy:
    """Scripted placement: each allocation lands on the queued brick."""

    def __init__(self, queue):
        self.queue = list(queue)

    def select_memory_brick(self, candidates, size_bytes,
                            origin_rack_id=None):
        target = self.queue.pop(0)
        assert any(c.brick_id == target for c in candidates), target
        return target

    def select_compute_brick(self, candidates, vcpus, ram_bytes=0,
                             origin_rack_id=None):
        return candidates[0].brick_id if candidates else None


class TestPlannerComparison:
    """Best-fit-decreasing vs greedy on a fixed fragmented fixture.

    The fixture is built so the greedy planner wastes the pool's one
    large free span on a small segment (it packs onto the *fullest*
    brick first) and strands the source brick half-drained, while BFD
    places the large segment first into the tightest sufficient span
    and fully empties — and powers off — the source brick.
    """

    MIB_512 = gib(1) // 2

    def _fixture(self):
        """3 memory bricks of 4 GiB:

        * ``mbS`` (source): segments [1 GiB, 512 MiB] — emptiest;
        * ``mbA``: 3 GiB allocated, one contiguous 1 GiB hole;
        * ``mbB``: 2 GiB allocated, four fragmented 512 MiB holes.
        """
        system = (RackBuilder("planner")
                  .with_compute_bricks(1, cores=8, local_memory=gib(2))
                  .with_memory_bricks(3, modules=2, module_size=gib(2))
                  .with_section_size(self.MIB_512)
                  .build())
        from repro.orchestration.requests import VmAllocationRequest
        system.boot_vm(VmAllocationRequest(
            vm_id="planner-vm", vcpus=2, ram_bytes=gib(1)))
        mb = [f"planner.mb{i}" for i in range(3)]
        plan = ([mb[1]] * 4          # fill mbA with 4 x 1 GiB
                + [mb[2]] * 8        # fill mbB with 8 x 512 MiB
                + [mb[0], mb[0]])    # the source's two segments
        system.sdm.policy = _PinnedPolicy(plan)
        a_fill = [system.scale_up("planner-vm", gib(1)) for _ in range(4)]
        b_fill = [system.scale_up("planner-vm", self.MIB_512)
                  for _ in range(8)]
        system.scale_up("planner-vm", gib(1))
        system.scale_up("planner-vm", self.MIB_512)
        # Punch the holes: one 1 GiB hole in mbA, alternating 512 MiB
        # holes in mbB.
        system.scale_down("planner-vm", a_fill[1].segment.segment_id)
        for index in (1, 3, 5, 7):
            system.scale_down("planner-vm",
                              b_fill[index].segment.segment_id)
        layout = {e.brick.brick_id:
                  (e.allocator.allocated_bytes,
                   e.allocator.largest_free_span)
                  for e in system.sdm.registry.memory_entries}
        assert layout[mb[0]] == (gib(1) + self.MIB_512, gib(2) + self.MIB_512)
        assert layout[mb[1]] == (3 * gib(1), gib(1))
        assert layout[mb[2]] == (2 * gib(1), self.MIB_512)
        return system

    def _power_off_fraction(self, planner):
        system = self._fixture()
        task = DefragmentationTask(system, planner=planner,
                                   max_relocations_per_pass=8)
        report = task.run_pass()
        bricks = system.sdm.registry.memory_entries
        # Whatever the planner did, nothing leaked or double-booked.
        live = sum(s.size for s in system.sdm.live_segments)
        allocated = sum(e.allocator.allocated_bytes for e in bricks)
        assert live == allocated
        return report.bricks_emptied / len(bricks), report

    def test_best_fit_decreasing_beats_greedy_on_power_off(self):
        greedy_fraction, greedy_report = self._power_off_fraction("greedy")
        bfd_fraction, bfd_report = self._power_off_fraction(
            "best-fit-decreasing")
        # Greedy burns mbA's 1 GiB hole on the 512 MiB segment, then
        # cannot place the 1 GiB one anywhere: source stays occupied.
        assert greedy_report.bricks_emptied == 0
        # BFD places largest-first into the tightest span and drains
        # the source completely.
        assert bfd_report.bricks_emptied == 1
        assert bfd_fraction > greedy_fraction
        assert bfd_report.relocations == 2


class TestInControlPlane:
    def test_defrag_runs_in_idle_windows(self):
        system = build_system()
        task = DefragmentationTask(system, interval_s=0.1,
                                   max_relocations_per_pass=4)
        federation = FederationController([system])
        (pod,) = federation.pods.values()
        task.install(pod.plane.ctx, idle_probe=pod.plane.is_idle)
        # Two tenants spread over the pool, then a long idle tail.
        specs = [
            TenantSpec(f"tenant-{i}", arrival_s=0.1 * i, vcpus=2,
                       ram_bytes=gib(10), lifetime_s=3.0)
            for i in range(2)]
        federation.serve_trace(TenantTrace("defrag", specs))
        assert task.report.passes > 0
