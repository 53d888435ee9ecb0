"""Unit tests for the SDM controller."""

from __future__ import annotations

import pytest

from repro.errors import PlacementError, ReservationError
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.network.optical.switch import OpticalCircuitSwitch
from repro.network.optical.topology import OpticalFabric
from repro.orchestration.registry import ResourceRegistry
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sharding import ShardedSdmController
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.software.pages import DEFAULT_SECTION_BYTES
from repro.units import gib, mib


def build_controller(compute_count=1, memory_count=2, cbn_ports=8):
    switch = OpticalCircuitSwitch("sw", port_count=128)
    fabric = OpticalFabric(switch)
    registry = ResourceRegistry()
    for index in range(compute_count):
        brick = ComputeBrick(f"cb{index}", core_count=8,
                             local_memory_bytes=gib(4), cbn_ports=cbn_ports)
        kernel = BaremetalKernel(brick)
        registry.register_compute(brick, Hypervisor(kernel), SdmAgent(kernel))
        fabric.attach_brick(brick)
    for index in range(memory_count):
        brick = MemoryBrick(f"mb{index}", module_count=2,
                            module_bytes=gib(16), cbn_ports=cbn_ports)
        registry.register_memory(brick)
        fabric.attach_brick(brick)
    return ShardedSdmController(registry, fabric)


class TestAllocate:
    def test_ticket_is_complete(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(2))
        assert ticket.segment.size == gib(2)
        assert ticket.segment.compute_brick_id == "cb0"
        assert ticket.rmst_entry.size == gib(2)
        assert ticket.rmst_entry.remote_brick_id == \
            ticket.segment.memory_brick_id
        assert ticket.control_latency_s > 0

    def test_size_padded_to_alignment(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", mib(100))
        assert ticket.segment.size == DEFAULT_SECTION_BYTES

    def test_circuit_established_and_reused(self):
        controller = build_controller()
        first = controller.allocate("cb0", "vm-0", gib(1))
        circuits_after_first = len(controller.fabric.active_circuits)
        second = controller.allocate("cb0", "vm-0", gib(1))
        assert len(controller.fabric.active_circuits) == circuits_after_first
        # Reuse is visible in the latency: no switching time on the 2nd.
        assert second.control_latency_s < first.control_latency_s

    def test_rmst_entry_window_matches_kernel_attach(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        agent = controller.registry.compute("cb0").agent
        agent.program_segment(ticket.rmst_entry)
        record, _latency = agent.kernel.attach_segment(ticket.segment)
        assert record.window_base == ticket.rmst_entry.base
        assert record.window_size == ticket.rmst_entry.size

    def test_capacity_exhaustion(self):
        controller = build_controller(memory_count=1)
        controller.allocate("cb0", "vm-0", gib(32))
        with pytest.raises(PlacementError):
            controller.allocate("cb0", "vm-0", gib(8))

    def test_power_on_adds_latency(self):
        controller = build_controller(memory_count=1)
        controller.registry.memory("mb0").brick.power_off()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        assert ticket.control_latency_s >= controller.timings.power_on_s

    def test_port_exhaustion_falls_back_to_other_brick(self):
        # One CBN port per brick: the first allocation claims mb0's only
        # port via cb0; a second compute brick must land on mb1.
        controller = build_controller(compute_count=2, memory_count=2,
                                      cbn_ports=1)
        first = controller.allocate("cb0", "vm-0", gib(1))
        second = controller.allocate("cb1", "vm-1", gib(1))
        assert second.segment.memory_brick_id != \
            first.segment.memory_brick_id

    def test_unreachable_everything_raises(self):
        controller = build_controller(compute_count=2, memory_count=1,
                                      cbn_ports=1)
        controller.allocate("cb0", "vm-0", gib(1))
        with pytest.raises(PlacementError, match="reachable"):
            controller.allocate("cb1", "vm-1", gib(1))

    def test_allocations_counted(self):
        controller = build_controller()
        controller.allocate("cb0", "vm-0", gib(1))
        assert controller.allocations == 1


class TestRelease:
    def test_release_returns_capacity(self):
        controller = build_controller(memory_count=1)
        ticket = controller.allocate("cb0", "vm-0", gib(32))
        controller.release(ticket.segment.segment_id)
        # All capacity is back.
        controller.allocate("cb0", "vm-1", gib(32))

    def test_release_tears_down_unreferenced_circuit(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        assert len(controller.fabric.active_circuits) == 1
        controller.release(ticket.segment.segment_id)
        assert controller.fabric.active_circuits == []

    def test_release_keeps_shared_circuit(self):
        controller = build_controller()
        first = controller.allocate("cb0", "vm-0", gib(1))
        controller.allocate("cb0", "vm-0", gib(1))
        controller.release(first.segment.segment_id)
        assert len(controller.fabric.active_circuits) == 1

    def test_release_unknown_rejected(self):
        with pytest.raises(ReservationError):
            build_controller().release("ghost")


class TestPlaceVm:
    def test_place_returns_brick_and_latency(self):
        controller = build_controller(compute_count=2)
        brick_id, latency = controller.place_vm(
            VmAllocationRequest("vm-0", vcpus=4, ram_bytes=gib(8)))
        assert brick_id in ("cb0", "cb1")
        assert latency >= controller.timings.reservation_s

    def test_no_cores_anywhere_raises(self):
        controller = build_controller(compute_count=1)
        with pytest.raises(PlacementError, match="free cores"):
            controller.place_vm(
                VmAllocationRequest("vm-0", vcpus=99, ram_bytes=gib(1)))

    def test_wakes_sleeping_brick(self):
        controller = build_controller(compute_count=1)
        controller.registry.compute("cb0").brick.power_off()
        _brick, latency = controller.place_vm(
            VmAllocationRequest("vm-0", vcpus=1, ram_bytes=gib(1)))
        assert latency >= controller.timings.power_on_s
        assert controller.registry.compute("cb0").brick.is_powered


class TestIntrospection:
    def test_live_segments_and_per_brick(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        assert controller.live_segments == [ticket.segment]
        on_brick = controller.segments_on(ticket.segment.memory_brick_id)
        assert on_brick == [ticket.segment]
        assert controller.segments_on("ghost") == []

    def test_circuit_utilization(self):
        controller = build_controller()
        controller.allocate("cb0", "vm-0", gib(1))
        controller.allocate("cb0", "vm-0", gib(1))
        (refs,) = controller.circuit_utilization().values()
        assert refs == 2

    def test_segment_record_lookup(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        record = controller.segment_record(ticket.segment.segment_id)
        assert record.segment is ticket.segment
        with pytest.raises(ReservationError):
            controller.segment_record("ghost")


class TestSegmentIndex:
    """The per-brick segment index stays in lockstep with the live
    segment table through allocate / release / relocate."""

    def _scan(self, controller, brick_id):
        """Brute-force reference: scan every live segment."""
        return [s.segment_id for s in controller.live_segments
                if s.memory_brick_id == brick_id]

    def _assert_index_matches(self, controller):
        bricks = {e.brick.brick_id
                  for e in controller.registry.memory_entries}
        for brick_id in bricks:
            indexed = [s.segment_id
                       for s in controller.segments_on(brick_id)]
            assert sorted(indexed) == sorted(
                self._scan(controller, brick_id))

    def test_index_tracks_allocate_release_relocate(self):
        controller = build_controller(memory_count=2)
        tickets = [controller.allocate("cb0", f"vm-{i}", gib(1))
                   for i in range(3)]
        self._assert_index_matches(controller)

        moved = tickets[0].segment
        target = "mb1" if moved.memory_brick_id == "mb0" else "mb0"
        controller.relocate_segment(moved.segment_id, target)
        self._assert_index_matches(controller)
        assert moved.segment_id in {
            s.segment_id for s in controller.segments_on(target)}

        controller.release(tickets[1].segment.segment_id)
        self._assert_index_matches(controller)

        for ticket in (tickets[0], tickets[2]):
            controller.release(ticket.segment.segment_id)
        assert controller.segments_on("mb0") == []
        assert controller.segments_on("mb1") == []

    def test_impacted_by_memory_brick_uses_index(self):
        controller = build_controller(memory_count=2)
        tickets = [controller.allocate("cb0", f"vm-{i}", gib(1))
                   for i in range(2)]
        brick = tickets[0].segment.memory_brick_id
        impacted = controller.segments_on(brick)
        assert {s.segment_id for s in impacted} == {
            t.segment.segment_id for t in tickets
            if t.segment.memory_brick_id == brick}


class TestCriticalSectionSerialization:
    """Regression for the old docstring/behaviour mismatch: concurrent
    DES requests really do serialize on the reservation critical
    section, with queueing delay accounted on the simulated clock."""

    def test_concurrent_requests_serialize_with_queueing_delay(self):
        from repro.sim.control import ControlContext

        controller = build_controller()
        ctx = ControlContext()
        completions: dict[str, float] = {}

        def request(vm_id: str):
            ticket = yield from controller.allocate_process(
                ctx, "cb0", vm_id, gib(1))
            completions[vm_id] = ctx.sim.now
            return ticket

        first = ctx.sim.process(request("vm-a"))
        second = ctx.sim.process(request("vm-b"))
        ctx.sim.run()
        assert first.ok and second.ok

        # Both requests were submitted at t=0; the second could not
        # even start its reservation until the first finished, so it
        # completes a full service time later.
        service = first.value.control_latency_s
        assert completions["vm-a"] == pytest.approx(service)
        assert completions["vm-b"] == pytest.approx(
            completions["vm-a"] + second.value.control_latency_s)

        # The queueing delay is visible in the trace: the first waited
        # zero, the second waited one full service time.
        waits = {record.label: record.data
                 for record in ctx.tracer.records
                 if record.category == "sdm.reserve.wait"}
        assert waits["sdm.shard0:vm-a"] == pytest.approx(0.0)
        assert waits["sdm.shard0:vm-b"] == pytest.approx(service)

    def test_sync_wrapper_is_zero_contention(self):
        """The synchronous API runs on a private context: back-to-back
        calls report pure service time, never queueing delay."""
        controller = build_controller()
        first = controller.allocate("cb0", "vm-a", gib(1))
        second = controller.allocate("cb0", "vm-b", gib(1))
        # The second call reuses the first's circuit, so it is not
        # slower than the first — no contention surcharge exists.
        assert second.control_latency_s <= first.control_latency_s

    def test_release_process_also_serializes(self):
        from repro.sim.control import ControlContext

        controller = build_controller()
        ticket_a = controller.allocate("cb0", "vm-a", gib(1))
        ticket_b = controller.allocate("cb0", "vm-b", gib(1))
        ctx = ControlContext()
        done: list[tuple[str, float]] = []

        def release(segment_id: str):
            latency = yield from controller.release_process(ctx, segment_id)
            done.append((segment_id, ctx.sim.now))
            return latency

        ctx.sim.process(release(ticket_a.segment.segment_id))
        ctx.sim.process(release(ticket_b.segment.segment_id))
        ctx.sim.run()
        assert len(done) == 2
        # Strictly ordered, never overlapping: the second finishes a
        # full release after the first.
        assert done[1][1] > done[0][1]


class TestRelocateSegment:
    def test_relocation_moves_backing_bytes(self):
        controller = build_controller(memory_count=2)
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        segment = ticket.segment
        source = segment.memory_brick_id
        target = "mb1" if source == "mb0" else "mb0"
        source_allocated = (
            controller.registry.memory(source).allocator.allocated_bytes)

        entry, latency = controller.relocate_segment(
            segment.segment_id, target)

        assert segment.memory_brick_id == target
        assert entry.remote_brick_id == target
        # The local window is untouched (no hotplug needed).
        assert entry.base == ticket.rmst_entry.base
        # Source space was freed, target space claimed.
        assert (controller.registry.memory(source).allocator.allocated_bytes
                == source_allocated - segment.size)
        assert (controller.registry.memory(target).allocator.allocated_bytes
                == segment.size)
        # The copy is the dominant cost: strictly more than control work.
        assert latency > controller.timings.reservation_s

    def test_relocation_reprograms_glue(self):
        controller = build_controller(memory_count=2)
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        controller.registry.compute("cb0").agent.program_segment(
            ticket.rmst_entry)
        segment = ticket.segment
        target = "mb1" if segment.memory_brick_id == "mb0" else "mb0"
        rmst = controller.registry.compute("cb0").brick.rmst
        controller.relocate_segment(segment.segment_id, target)
        assert rmst.lookup(ticket.rmst_entry.base
                           ).remote_brick_id == target

    def test_relocate_to_same_brick_rejected(self):
        controller = build_controller()
        ticket = controller.allocate("cb0", "vm-0", gib(1))
        with pytest.raises(ReservationError, match="already lives"):
            controller.relocate_segment(
                ticket.segment.segment_id, ticket.segment.memory_brick_id)

    def test_relocate_unknown_segment_rejected(self):
        controller = build_controller()
        with pytest.raises(ReservationError, match="unknown segment"):
            controller.relocate_segment("ghost", "mb0")


class TestEvacuate:
    def test_moves_onto_kept_bricks_and_strands_the_rest(self):
        from repro.sim.control import run_sync
        controller = build_controller(memory_count=3)
        tickets = [controller.allocate("cb0", f"vm-{i}", gib(1))
                   for i in range(2)]
        source = tickets[0].segment.memory_brick_id
        segments = controller.segments_on(source)
        assert len(segments) == 2

        def keep(candidate, segment):
            return candidate.brick_id not in (source, "mb2")
        assert controller.relocation_target(segments[0], keep) == "mb1"
        moved, stranded = run_sync(lambda ctx: controller.evacuate_process(
            ctx, segments[:1], keep))
        assert (moved, stranded) == ([segments[0].segment_id], [])
        assert segments[0].memory_brick_id == "mb1"

        moved, stranded = run_sync(lambda ctx: controller.evacuate_process(
            ctx, segments[1:], lambda candidate, segment: False))
        assert (moved, stranded) == ([], [segments[1].segment_id])
        assert segments[1].memory_brick_id == source
