"""The Scale-up API and controller (§IV).

The paper's control flow for dynamic memory expansion:

    "An appropriately designed Scale-up API triggers the memory
    attachment process.  The application notifies the Scaleup controller
    which in turn relays the request to the Software Defined Memory (SDM)
    Controller that manages the remote memory resources.  Subsequently,
    the destination dCOMPUBRICK h/w glue logic is configured and the
    baremetal OS attaches remote memory and makes it available.  Then
    control is handed back to the Scale-up controller which configures
    the hypervisor to dynamically expand the physical memory that it
    provides to the hosted VM."

:class:`ScaleUpController` implements exactly that pipeline.  The SDM
controller itself lives a layer up (:mod:`repro.orchestration`); it is
injected here through the :class:`MemoryAllocator` protocol so the
software layer stays below the orchestration layer.

Like the SDM controller, every pipeline exists in two forms: a
``*_process`` DES generator that charges each step on a shared
:class:`~repro.sim.control.ControlContext` clock (queueing on the SDM-C
reservation domains), and the historical synchronous method, now a
zero-contention wrapper that runs the process alone on a private
one-shot simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import OrchestrationError, ReproError
from repro.hardware.rmst import SegmentEntry
from repro.memory.segments import RemoteSegment
from repro.sim.control import ControlContext, run_sync
from repro.sim.engine import ProcessGenerator
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.units import milliseconds

#: Scale-up controller processing time per request (API handling,
#: bookkeeping) before/after the heavy steps.
CONTROLLER_OVERHEAD_S = milliseconds(1.0)


@dataclass(frozen=True)
class AttachTicket:
    """What the SDM controller returns for a granted allocation.

    Attributes:
        segment: The reserved remote segment (state ``RESERVED``).
        rmst_entry: The RMST row the agent must program.
        control_latency_s: Orchestration-side latency: reservation,
            placement, circuit setup, configuration generation.
    """

    segment: RemoteSegment
    rmst_entry: SegmentEntry
    control_latency_s: float


class MemoryAllocator(Protocol):
    """The slice of the SDM controller the scale-up path consumes."""

    def allocate_process(self, ctx: ControlContext, compute_brick_id: str,
                         vm_id: str, size_bytes: int, *,
                         charge_config: bool = True) -> ProcessGenerator:
        """DES process: reserve remote memory + circuit for a compute
        brick; returns the :class:`AttachTicket`."""
        ...

    def release_process(self, ctx: ControlContext,
                        segment_id: str) -> ProcessGenerator:
        """DES process: release a segment; returns the orchestration
        latency."""
        ...


@dataclass(frozen=True)
class ScaleUpRequest:
    """One application request for more memory."""

    vm_id: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise OrchestrationError(
                f"scale-up size must be positive, got {self.size_bytes}")


@dataclass
class ScaleUpResult:
    """Outcome of a scale-up: the segment and the per-step latencies."""

    request: ScaleUpRequest
    segment: RemoteSegment
    steps: dict[str, float] = field(default_factory=dict)

    @property
    def total_latency_s(self) -> float:
        return sum(self.steps.values())


class ScaleUpController:
    """Coordinates the end-to-end scale-up pipeline on one brick."""

    def __init__(self, hypervisor: Hypervisor, agent: SdmAgent,
                 allocator: MemoryAllocator) -> None:
        self.hypervisor = hypervisor
        self.agent = agent
        self.allocator = allocator
        self.requests_served = 0
        #: segment_id -> (segment, dimm_id) for scale-down.
        self._attached: dict[str, tuple[RemoteSegment, str]] = {}

    @property
    def brick_id(self) -> str:
        return self.hypervisor.brick_id

    def scale_up(self, request: ScaleUpRequest) -> ScaleUpResult:
        """Run the full §IV pipeline; returns the per-step latency ledger.

        Zero-contention synchronous wrapper around
        :meth:`scale_up_process`.  Steps (keys of ``result.steps``):

        * ``controller`` — scale-up API processing.
        * ``sdm`` — SDM-C reservation, placement and circuit setup.
        * ``glue_config`` — agent programming the RMST/glue.
        * ``kernel_attach`` — baremetal hotplug add+online.
        * ``hypervisor`` — QEMU DIMM attach + guest onlining.
        """
        return run_sync(lambda ctx: self.scale_up_process(ctx, request))

    def scale_up_process(self, ctx: ControlContext, request: ScaleUpRequest,
                         *, charge_config: bool = True,
                         on_commit=None) -> ProcessGenerator:
        """DES process form of :meth:`scale_up`.

        Each pipeline step is charged on the shared clock; the SDM
        reservation queues on the controller's shard domains of *ctx*.
        ``charge_config`` is forwarded to the allocator so a batching
        control plane can amortize configuration generation across a
        batch.  ``on_commit`` (when given) is invoked the moment the
        SDM-side reservation has committed — everything after it is
        brick-side work (glue, kernel, hypervisor), which a
        completion-offloading control plane runs without holding a
        dispatcher slot.
        """
        vm = self.hypervisor.vm(request.vm_id)
        yield ctx.sim.timeout(CONTROLLER_OVERHEAD_S)
        ticket = yield from self.allocator.allocate_process(
            ctx, self.brick_id, request.vm_id, request.size_bytes,
            charge_config=charge_config)
        if on_commit is not None:
            on_commit()
        segment = ticket.segment

        steps: dict[str, float] = {"controller": CONTROLLER_OVERHEAD_S}
        steps["sdm"] = ticket.control_latency_s
        programmed = attached = False
        try:
            steps["glue_config"] = self.agent.program_segment(
                ticket.rmst_entry)
            programmed = True
            steps["kernel_attach"] = self.agent.attach_segment(segment)
            attached = True
            yield ctx.sim.timeout(steps["glue_config"]
                                  + steps["kernel_attach"])
            segment.activate()
            dimm, hyp_latency = self.hypervisor.hotplug_dimm(
                vm.vm_id, request.size_bytes, segment_id=segment.segment_id)
        except ReproError:
            # Roll the pipeline back (open-loop control planes keep
            # running after a rejection): a DIMM-slot or RAM shortage
            # at the hypervisor step must not strand the segment as
            # reserved-and-attached with no owner to release it.
            rollback_s = 0.0
            if attached:
                rollback_s += self.agent.detach_segment(segment.segment_id)
            if programmed:
                rollback_s += self.agent.unprogram_segment(
                    segment.segment_id)
            yield ctx.sim.timeout(rollback_s)
            yield from self.allocator.release_process(ctx,
                                                      segment.segment_id)
            segment.release()
            raise
        steps["hypervisor"] = hyp_latency
        yield ctx.sim.timeout(hyp_latency)

        self._attached[segment.segment_id] = (segment, dimm.dimm_id)
        self.requests_served += 1
        return ScaleUpResult(request=request, segment=segment, steps=steps)

    def scale_down(self, vm_id: str, segment_id: str) -> dict[str, float]:
        """Reverse pipeline: DIMM unplug, kernel detach, glue unprogram,
        SDM release.  Zero-contention synchronous wrapper around
        :meth:`scale_down_process`; returns the per-step latency ledger."""
        return run_sync(
            lambda ctx: self.scale_down_process(ctx, vm_id, segment_id))

    def scale_down_process(self, ctx: ControlContext, vm_id: str,
                           segment_id: str) -> ProcessGenerator:
        """DES process form of :meth:`scale_down`."""
        if segment_id not in self._attached:
            raise OrchestrationError(
                f"segment {segment_id!r} is not attached via this controller")
        segment, dimm_id = self._attached[segment_id]
        steps = {"controller": CONTROLLER_OVERHEAD_S}
        yield ctx.sim.timeout(CONTROLLER_OVERHEAD_S)
        steps["hypervisor"] = self.hypervisor.unplug_dimm(vm_id, dimm_id)
        steps["kernel_detach"] = self.agent.detach_segment(segment_id)
        steps["glue_config"] = self.agent.unprogram_segment(segment_id)
        yield ctx.sim.timeout(steps["hypervisor"] + steps["kernel_detach"]
                              + steps["glue_config"])
        steps["sdm"] = yield from self.allocator.release_process(
            ctx, segment_id)
        segment.release()
        del self._attached[segment_id]
        self.requests_served += 1
        return steps

    def attached_segments(self) -> list[RemoteSegment]:
        return [segment for segment, _dimm in self._attached.values()]

    # -- migration hand-off -----------------------------------------------------

    def disown(self, segment_id: str) -> tuple[RemoteSegment, str]:
        """Release bookkeeping of a segment that migrates away.

        Returns ``(segment, dimm_id)`` so the destination brick's
        controller can :meth:`adopt` it.  No hardware is touched — the
        migration flow drives the actual detach/re-attach.
        """
        if segment_id not in self._attached:
            raise OrchestrationError(
                f"segment {segment_id!r} is not attached via this controller")
        return self._attached.pop(segment_id)

    def adopt(self, segment: RemoteSegment, dimm_id: str) -> None:
        """Register a segment that migrated onto this brick."""
        if segment.segment_id in self._attached:
            raise OrchestrationError(
                f"segment {segment.segment_id!r} already tracked here")
        self._attached[segment.segment_id] = (segment, dimm_id)
