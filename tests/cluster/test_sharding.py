"""Sharding invariants of the sharded SDM controller.

Three families of guarantees:

* **facade compatibility** — the sharded controller is the one every
  builder makes, so its synchronous wrappers, ``*_process`` generators
  and per-brick segment index serve the whole SDM-C API;
* **parallelism shape** — same-shard reservations serialize on their
  shard's critical section while different-shard reservations proceed
  in parallel (and ``shard_count=1`` restores full serialization);
* **two-phase safety** — concurrent cross-shard placements never
  double-reserve capacity (conservation across shards, the hypothesis
  property), and a phase-2 rejection rolls the phase-1 hold back.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import PodBuilder
from repro.errors import PlacementError, ReproError, ReservationError
from repro.orchestration.sharding import ShardedSdmController
from repro.sim.control import ControlContext
from repro.units import gib, mib


def build_pod(racks=2, shard_count=None, memory_bricks=2,
              module_size=gib(2)):
    return (PodBuilder("shard")
            .with_racks(racks)
            .with_compute_bricks(2, cores=16, local_memory=gib(4))
            .with_memory_bricks(memory_bricks, modules=2,
                                module_size=module_size)
            .with_section_size(mib(128))
            .with_controller_shards(shard_count)
            .build())


def fill_rack0(sdm, chunk=gib(1)):
    """Exhaust every rack0 memory brick so rack0 requesters must spill."""
    while True:
        fits = [a for a in sdm.registry.memory_availability()
                if a.rack_id == "shard.rack0"
                and a.largest_span_bytes >= chunk]
        if not fits:
            break
        sdm.allocate("shard.rack0.cb0", "filler", chunk)


class TestShardTopology:
    def test_one_shard_per_rack_by_default(self):
        sdm = build_pod(racks=3).sdm
        assert isinstance(sdm, ShardedSdmController)
        assert sdm.shard_count == 3
        members = sdm.shard_members()
        assert all(len(racks) == 1 for racks in members.values())

    def test_explicit_count_groups_racks_round_robin(self):
        sdm = build_pod(racks=4, shard_count=2).sdm
        assert sdm.shard_count == 2
        members = sdm.shard_members()
        assert sorted(len(r) for r in members.values()) == [2, 2]
        # Canonical: sorted racks assigned in order, so the mapping is
        # independent of registration order.
        assert members["shard0"] == ["shard.rack0", "shard.rack2"]

    def test_bricks_map_to_their_racks_shard(self):
        sdm = build_pod(racks=2).sdm
        assert (sdm.shard_of_brick("shard.rack0.cb0")
                == sdm.shard_of_brick("shard.rack0.mb1"))
        assert (sdm.shard_of_brick("shard.rack0.cb0")
                != sdm.shard_of_brick("shard.rack1.mb0"))

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ReproError):
            build_pod(shard_count=0)


class TestFacadeCompatibility:
    def test_synchronous_api_unchanged(self):
        sdm = build_pod().sdm
        from repro.memory.segments import SegmentState
        ticket = sdm.allocate("shard.rack0.cb0", "vm-0", mib(256))
        assert ticket.segment.state is SegmentState.RESERVED
        assert ticket.control_latency_s >= sdm.timings.reservation_s
        assert sdm.segments_on(ticket.segment.memory_brick_id)
        latency = sdm.release(ticket.segment.segment_id)
        assert latency > 0
        assert sdm.live_segments == []

    def test_locality_first_prefers_home_rack(self):
        sdm = build_pod().sdm
        ticket = sdm.allocate("shard.rack1.cb0", "vm-0", mib(256))
        assert ticket.segment.memory_brick_id.startswith("shard.rack1.")

    def test_release_of_unknown_segment_raises(self):
        sdm = build_pod().sdm
        with pytest.raises(ReservationError):
            sdm.release("ghost")


class TestParallelismShape:
    def _timed_pair(self, sdm, brick_a, brick_b):
        ctx = ControlContext()
        completions = {}

        def request(brick, vm_id):
            yield from sdm.allocate_process(ctx, brick, vm_id, mib(256))
            completions[vm_id] = ctx.sim.now

        ctx.sim.process(request(brick_a, "vm-a"))
        ctx.sim.process(request(brick_b, "vm-b"))
        ctx.sim.run()
        return completions

    def test_different_shards_proceed_in_parallel(self):
        sdm = build_pod().sdm
        done = self._timed_pair(sdm, "shard.rack0.cb0", "shard.rack1.cb0")
        # Both entered at t=0 and neither queued behind the other.
        assert done["vm-a"] == pytest.approx(done["vm-b"])

    def test_same_shard_still_serializes(self):
        sdm = build_pod().sdm
        done = self._timed_pair(sdm, "shard.rack0.cb0", "shard.rack0.cb1")
        assert done["vm-b"] > done["vm-a"]

    def test_single_shard_count_restores_full_serialization(self):
        sdm = build_pod(shard_count=1).sdm
        done = self._timed_pair(sdm, "shard.rack0.cb0", "shard.rack1.cb0")
        assert done["vm-b"] > done["vm-a"]


class TestTwoPhaseCrossShard:
    def test_spill_allocates_on_remote_shard(self):
        system = build_pod()
        fill_rack0(system.sdm)
        ticket = system.sdm.allocate("shard.rack0.cb0", "vm-x", mib(256))
        assert ticket.segment.memory_brick_id.startswith("shard.rack1.")
        assert system.sdm.pending_holds == []

    def test_unreachable_target_rolls_back_hold(self, monkeypatch):
        """Second shard rejects (no light path) -> the tentative hold
        on the first (memory) shard is rolled back."""
        system = build_pod()
        sdm = system.sdm
        fill_rack0(sdm)
        remote = [e for e in sdm.registry.memory_entries
                  if e.rack_id == "shard.rack1"]
        free_before = [e.allocator.free_bytes for e in remote]
        versions_before = [e.allocator.version for e in remote]
        live_before = len(sdm.live_segments)

        monkeypatch.setattr(sdm, "_circuit_feasible",
                            lambda compute, memory: False)
        with pytest.raises(PlacementError):
            sdm.allocate("shard.rack0.cb0", "vm-x", mib(256))

        assert sdm.pending_holds == []
        assert [e.allocator.free_bytes for e in remote] == free_before
        # The holds really were taken and aborted (capacity moved and
        # moved back), not silently skipped.
        assert [e.allocator.version for e in remote] != versions_before
        assert len(sdm.live_segments) == live_before
        for entry in remote:
            entry.allocator.check_invariants()

    def test_phase2_failure_propagates_after_rollback(self, monkeypatch):
        """A hard compute-side failure mid-pipeline aborts the hold and
        re-raises — capacity is never stranded."""
        system = build_pod()
        sdm = system.sdm
        fill_rack0(sdm)
        remote = [e for e in sdm.registry.memory_entries
                  if e.rack_id == "shard.rack1"]
        free_before = [e.allocator.free_bytes for e in remote]

        def boom(*args, **kwargs):
            raise ReservationError("window programming rejected")

        monkeypatch.setattr(sdm, "_finish_allocation", boom)
        with pytest.raises(ReservationError):
            sdm.allocate("shard.rack0.cb0", "vm-x", mib(256))
        assert sdm.pending_holds == []
        assert [e.allocator.free_bytes for e in remote] == free_before

    def test_cross_shard_relocation_two_phase(self):
        system = build_pod()
        sdm = system.sdm
        ticket = sdm.allocate("shard.rack0.cb0", "vm-0", mib(256))
        source = ticket.segment.memory_brick_id
        target = "shard.rack1.mb0"
        ctx = ControlContext()

        def move():
            entry, latency = yield from sdm.relocate_segment_process(
                ctx, ticket.segment.segment_id, target)
            return entry, latency

        process = ctx.sim.process(move())
        ctx.sim.run()
        entry, _latency = process.value
        assert entry.remote_brick_id == target
        assert ticket.segment.memory_brick_id == target
        assert sdm.pending_holds == []
        assert sdm.segments_on(source) == []
        assert [s.segment_id for s in sdm.segments_on(target)] == [
            ticket.segment.segment_id]


class TestStableScope:
    def test_scope_follows_segment_relocated_while_queued(self):
        """A release queued on the segment's old shard re-acquires the
        scope when a concurrent relocation moved the segment to a
        different shard — the critical work never runs outside the
        locks covering the segment's *current* bricks."""
        system = build_pod()
        sdm = system.sdm
        ticket = sdm.allocate("shard.rack0.cb0", "vm-0", mib(256))
        segment_id = ticket.segment.segment_id
        ctx = ControlContext()
        order = []

        def blocker():
            grant = yield from ctx.enter_domain("sdm.shard0", "blocker")
            # While the release below queues on shard0, move the
            # segment onto the other shard behind its back.
            sdm.relocate_segment(segment_id, "shard.rack1.mb0")
            order.append("relocated")
            yield ctx.sim.timeout(0.01)
            ctx.domain("sdm.shard0").release(grant)

        def releaser():
            yield ctx.sim.timeout(0.001)  # blocker holds shard0 first
            yield from sdm.release_process(ctx, segment_id)
            order.append("released")

        ctx.sim.process(blocker())
        ctx.sim.process(releaser())
        ctx.sim.run()
        assert order == ["relocated", "released"]
        assert sdm.live_segments == []
        assert all(e.allocator.allocated_bytes == 0
                   for e in sdm.registry.memory_entries)

    def test_scope_covers_checks_shard_membership(self):
        sdm = build_pod().sdm
        token = (("shard0", None, None),)
        assert sdm.scope_covers(token, ("shard.rack0.mb0",))
        assert not sdm.scope_covers(token, ("shard.rack1.mb0",))


class TestConservationProperty:
    """Concurrent cross-shard placements never double-reserve capacity."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=1),   # origin rack
                  st.sampled_from([mib(128), mib(256), mib(384)])),
        min_size=2, max_size=10))
    def test_capacity_conserved_across_shards(self, requests):
        system = build_pod(memory_bricks=1, module_size=gib(1))
        sdm = system.sdm
        # Rack0 starts nearly full, so its requesters must cross
        # shards while rack1's stay local — concurrent single-shard
        # and two-phase paths interleave on one shared context.
        fill_rack0(sdm, chunk=mib(512))
        ctx = ControlContext()
        tickets = []

        def client(index, rack, size):
            try:
                ticket = yield from sdm.allocate_process(
                    ctx, f"shard.rack{rack}.cb{index % 2}",
                    f"vm-{index}", size)
                tickets.append(ticket)
            except PlacementError:
                pass  # pool exhausted: rejection must also conserve

        for index, (rack, size) in enumerate(requests):
            ctx.sim.process(client(index, rack, size))
        ctx.sim.run()

        entries = sdm.registry.memory_entries
        reserved = sum(e.allocator.allocated_bytes for e in entries)
        live = sum(s.size for s in sdm.live_segments)
        assert reserved == live          # no double-reservation, no leak
        assert sdm.pending_holds == []   # every hold committed/aborted
        for entry in entries:
            entry.allocator.check_invariants()

        # And the pool drains cleanly back to empty.
        for ticket in tickets:
            if ticket.segment.vm_id != "filler":
                sdm.release(ticket.segment.segment_id)
