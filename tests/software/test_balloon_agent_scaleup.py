"""Unit tests for the balloon driver, SDM agent and scale-up controller."""

from __future__ import annotations

import pytest

from repro.errors import BalloonError, OrchestrationError, SegmentTableError
from repro.hardware.bricks import ComputeBrick
from repro.hardware.rmst import SegmentEntry
from repro.memory.segments import RemoteSegment, SegmentState
from repro.software.agent import SdmAgent
from repro.software.balloon import BalloonDriver
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.software.scaleup import (
    AttachTicket,
    ScaleUpController,
    ScaleUpRequest,
)
from repro.software.vm import VirtualMachine
from repro.units import gib, mib


class TestBalloon:
    @pytest.fixture
    def vm(self):
        vm = VirtualMachine("vm-0", 2, gib(4))
        vm.start()
        return vm

    def test_inflate_reduces_visible_ram(self, vm):
        balloon = BalloonDriver(vm)
        latency = balloon.inflate(gib(1))
        assert latency > 0
        assert vm.ram_bytes == gib(3)
        assert balloon.inflated_bytes == gib(1)

    def test_guaranteed_floor_enforced(self, vm):
        balloon = BalloonDriver(vm)  # floor defaults to 2 GiB
        with pytest.raises(BalloonError, match="guaranteed"):
            balloon.inflate(gib(3))

    def test_deflate_returns_memory(self, vm):
        balloon = BalloonDriver(vm)
        balloon.inflate(gib(1))
        latency = balloon.deflate(gib(1))
        assert latency > 0
        assert vm.ram_bytes == gib(4)

    def test_deflate_more_than_inflated_rejected(self, vm):
        balloon = BalloonDriver(vm)
        balloon.inflate(mib(512))
        with pytest.raises(BalloonError):
            balloon.deflate(gib(1))

    def test_available_for_inflation(self, vm):
        balloon = BalloonDriver(vm, guaranteed_bytes=gib(1))
        assert balloon.available_for_inflation() == gib(3)
        balloon.inflate(gib(3))
        assert balloon.available_for_inflation() == 0

    def test_inflate_faster_to_deflate(self, vm):
        balloon = BalloonDriver(vm)
        inflate_latency = balloon.inflate(gib(1))
        deflate_latency = balloon.deflate(gib(1))
        assert deflate_latency < inflate_latency

    def test_non_positive_rejected(self, vm):
        balloon = BalloonDriver(vm)
        with pytest.raises(BalloonError):
            balloon.inflate(0)
        with pytest.raises(BalloonError):
            balloon.deflate(0)


class TestSdmAgent:
    @pytest.fixture
    def agent(self):
        kernel = BaremetalKernel(ComputeBrick("cb0"))
        return SdmAgent(kernel)

    def entry(self, agent):
        return SegmentEntry(
            "seg0", base=agent.kernel.brick.local_memory_bytes,
            size=gib(1), remote_brick_id="mb0", remote_offset=0,
            egress_port_id="cb0.cbn0")

    def test_program_and_unprogram(self, agent):
        latency = agent.program_segment(self.entry(agent))
        assert latency > 0
        assert len(agent.kernel.brick.rmst) == 1
        agent.unprogram_segment("seg0")
        assert len(agent.kernel.brick.rmst) == 0
        assert agent.configs_applied == 2

    def test_program_duplicate_propagates(self, agent):
        agent.program_segment(self.entry(agent))
        with pytest.raises(SegmentTableError):
            agent.program_segment(self.entry(agent))

    def test_attach_wrong_brick_rejected(self, agent):
        segment = RemoteSegment("s", "mb0", 0, gib(1),
                                compute_brick_id="other-brick")
        with pytest.raises(OrchestrationError, match="agent runs on"):
            agent.attach_segment(segment)

    def test_attach_detach_roundtrip(self, agent):
        segment = RemoteSegment("s", "mb0", 0, gib(1),
                                compute_brick_id="cb0")
        attach_latency = agent.attach_segment(segment)
        assert attach_latency > agent.timings.rpc_latency_s
        detach_latency = agent.detach_segment("s")
        assert detach_latency > 0


class _StubAllocator:
    """Deterministic MemoryAllocator for controller tests: each process
    charges its fixed latency as one timeout."""

    def __init__(self, kernel: BaremetalKernel) -> None:
        self.kernel = kernel
        self.released: list[str] = []
        self._count = 0

    def allocate_process(self, ctx, compute_brick_id, vm_id, size_bytes, *,
                         charge_config=True):
        segment = RemoteSegment(
            f"seg-{self._count}", "mb0", offset=self._count * size_bytes,
            size=size_bytes, compute_brick_id=compute_brick_id, vm_id=vm_id)
        window = self.kernel.address_map.reserve_window(
            segment.segment_id, size_bytes)
        entry = SegmentEntry(
            segment.segment_id, base=window.base, size=window.size,
            remote_brick_id="mb0", remote_offset=segment.offset,
            egress_port_id=f"{compute_brick_id}.cbn0")
        self._count += 1
        ticket = AttachTicket(segment, entry, control_latency_s=0.01)
        yield ctx.sim.timeout(ticket.control_latency_s)
        return ticket

    def release_process(self, ctx, segment_id):
        self.released.append(segment_id)
        yield ctx.sim.timeout(0.005)
        return 0.005


class TestScaleUpController:
    @pytest.fixture
    def controller(self):
        kernel = BaremetalKernel(
            ComputeBrick("cb0", core_count=8, local_memory_bytes=gib(4)))
        hypervisor = Hypervisor(kernel)
        hypervisor.spawn_vm("vm-0", 2, gib(2))
        agent = SdmAgent(kernel)
        return ScaleUpController(hypervisor, agent, _StubAllocator(kernel))

    def test_scale_up_pipeline_steps(self, controller):
        result = controller.scale_up(ScaleUpRequest("vm-0", gib(1)))
        assert set(result.steps) == {
            "controller", "sdm", "glue_config", "kernel_attach", "hypervisor"}
        assert result.total_latency_s > 0
        assert result.segment.state is SegmentState.ACTIVE
        assert controller.hypervisor.vm("vm-0").ram_bytes == gib(3)

    def test_scale_up_grows_kernel_ram(self, controller):
        controller.scale_up(ScaleUpRequest("vm-0", gib(1)))
        assert controller.agent.kernel.total_ram_bytes == gib(5)

    def test_scale_down_reverses(self, controller):
        result = controller.scale_up(ScaleUpRequest("vm-0", gib(1)))
        steps = controller.scale_down("vm-0", result.segment.segment_id)
        assert set(steps) == {
            "controller", "hypervisor", "kernel_detach", "glue_config", "sdm"}
        assert result.segment.state is SegmentState.RELEASED
        assert controller.attached_segments() == []
        assert controller.allocator.released == [result.segment.segment_id]

    def test_scale_down_unknown_segment(self, controller):
        with pytest.raises(OrchestrationError, match="not attached"):
            controller.scale_down("vm-0", "ghost")

    def test_unknown_vm_rejected(self, controller):
        with pytest.raises(Exception):
            controller.scale_up(ScaleUpRequest("ghost", gib(1)))

    def test_requests_counter(self, controller):
        result = controller.scale_up(ScaleUpRequest("vm-0", gib(1)))
        controller.scale_down("vm-0", result.segment.segment_id)
        assert controller.requests_served == 2

    def test_zero_size_request_rejected(self):
        with pytest.raises(OrchestrationError):
            ScaleUpRequest("vm-0", 0)
