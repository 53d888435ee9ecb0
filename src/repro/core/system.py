"""The assembled disaggregated system (one rack, or a pod of racks).

:class:`DisaggregatedSystem` is the user-facing system object: racks of
bricks, the optical fabric (rack-local or pod-wide), the per-brick
software stacks and the SDM controller, with the paper's end-to-end
operations as methods — boot a VM whose memory may exceed any single
brick, scale a VM's memory up and down at runtime, migrate VMs (within
or across racks), and power-manage unutilized bricks.
:data:`DisaggregatedRack` remains as the single-rack-era alias.

Every lifecycle operation is exposed twice: as the historical
synchronous method (a zero-contention wrapper running a private
one-event simulation, so results and latency ledgers are unchanged) and
as a ``*_process`` DES generator for event-driven control planes
(:mod:`repro.cluster`), where concurrent operations queue on the SDM-C
reservation critical section of a shared
:class:`~repro.sim.control.ControlContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import (
    FabricError,
    OrchestrationError,
    ReproError,
    SlotError,
)
from repro.hardware.bricks import AcceleratorBrick, ComputeBrick, MemoryBrick
from repro.hardware.rack import Rack

from repro.memory.segments import RemoteSegment
from repro.network.optical.topology import OpticalFabric
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sdm_controller import SdmController
from repro.sim.control import ControlContext, run_sync
from repro.sim.engine import ProcessGenerator
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.software.scaleup import (
    ScaleUpController,
    ScaleUpRequest,
    ScaleUpResult,
)
from repro.software.vm import VirtualMachine
from repro.units import gib

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.datamover.mover import DataMover, MoverConfig
    from repro.fabric.pod import Pod

#: Largest single segment requested per allocation when assembling large
#: boot memories; bigger demands are satisfied with multiple segments
#: (possibly on different dMEMBRICKs).
MAX_SEGMENT_BYTES = gib(16)


@dataclass
class BrickStack:
    """The software stack living on one compute brick."""

    brick: ComputeBrick
    kernel: BaremetalKernel
    hypervisor: Hypervisor
    agent: SdmAgent
    scaleup: ScaleUpController
    #: The brick's remote-memory data mover, once one is attached.
    data_mover: Optional["DataMover"] = None


@dataclass
class HostedVm:
    """Rack-level record of a running VM."""

    vm: VirtualMachine
    brick_id: str
    boot_segments: list[RemoteSegment] = field(default_factory=list)


@dataclass
class BootInfo:
    """Outcome of booting a VM on the rack."""

    vm: VirtualMachine
    brick_id: str
    latency_s: float
    boot_segments: list[RemoteSegment]


@dataclass
class FailureImpact:
    """Blast radius of a memory-brick failure."""

    brick_id: str
    segment_ids: list[str] = field(default_factory=list)
    vm_ids: list[str] = field(default_factory=list)
    teardown_latency_s: float = 0.0


class DisaggregatedSystem:
    """The full-stack system object (built by
    :class:`~repro.core.builder.RackBuilder` or
    :class:`~repro.core.builder.PodBuilder`)."""

    def __init__(self, rack: Union[Rack, Sequence[Rack]],
                 fabric: OpticalFabric,
                 sdm: SdmController,
                 stacks: dict[str, BrickStack],
                 pod: Optional["Pod"] = None) -> None:
        self.racks: list[Rack] = ([rack] if isinstance(rack, Rack)
                                  else list(rack))
        if not self.racks:
            raise OrchestrationError("a system needs at least one rack")
        self.fabric = fabric
        self.sdm = sdm
        self.pod = pod
        self._stacks = stacks
        self._vms: dict[str, HostedVm] = {}

    # -- inventory ------------------------------------------------------------

    @property
    def rack(self) -> Rack:
        """The (first) rack — the whole system in single-rack setups."""
        return self.racks[0]

    def rack_of_brick(self, brick_id: str) -> Rack:
        """The rack physically holding *brick_id*."""
        try:
            if self.pod is not None:
                return self.pod.rack_of_brick_id(brick_id)
            self.rack.brick(brick_id)
            return self.rack
        except (FabricError, SlotError):
            raise OrchestrationError(
                f"no brick {brick_id!r} in this system") from None

    @property
    def compute_bricks(self) -> list[ComputeBrick]:
        return [s.brick for s in self._stacks.values()]

    @property
    def memory_bricks(self) -> list[MemoryBrick]:
        return [e.brick for e in self.sdm.registry.memory_entries]

    @property
    def accelerator_bricks(self) -> list[AcceleratorBrick]:
        return [b for rack in self.racks for b in rack.bricks()
                if isinstance(b, AcceleratorBrick)]

    def stack(self, brick_id: str) -> BrickStack:
        try:
            return self._stacks[brick_id]
        except KeyError:
            raise OrchestrationError(
                f"no compute stack on brick {brick_id!r}") from None

    @property
    def stacks(self) -> list[BrickStack]:
        return list(self._stacks.values())

    # -- VM lifecycle ------------------------------------------------------------

    @property
    def vms(self) -> list[VirtualMachine]:
        return [h.vm for h in self._vms.values()]

    def hosting(self, vm_id: str) -> HostedVm:
        try:
            return self._vms[vm_id]
        except KeyError:
            raise OrchestrationError(f"no VM {vm_id!r} on this rack") from None

    def boot_vm(self, request: VmAllocationRequest) -> BootInfo:
        """Boot a VM, attaching remote boot memory when the chosen brick's
        local DRAM cannot cover the request (the core disaggregation win:
        "resource allocation ... no longer bounded by the mainboard").

        Zero-contention synchronous wrapper around
        :meth:`boot_vm_process`.
        """
        return run_sync(lambda ctx: self.boot_vm_process(ctx, request))

    def boot_vm_process(self, ctx: ControlContext,
                        request: VmAllocationRequest, *,
                        charge_config: bool = True,
                        on_commit=None) -> ProcessGenerator:
        """DES process form of :meth:`boot_vm`.

        Placement and each boot-segment reservation queue on the SDM-C
        critical section of *ctx*; agent programming, kernel attach and
        the hypervisor spawn are charged on the shared clock.
        ``on_commit`` (when given) fires once every SDM-side
        reservation has committed — the remaining hypervisor spawn is
        brick-side work a completion-offloading control plane detaches
        from its dispatcher slot.
        """
        if request.vm_id in self._vms:
            raise OrchestrationError(f"VM id {request.vm_id!r} already in use")
        brick_id, latency = yield from self.sdm.place_vm_process(ctx, request)
        stack = self.stack(brick_id)

        boot_segments: list[RemoteSegment] = []
        try:
            shortfall = request.ram_bytes - stack.kernel.available_bytes
            while shortfall > 0:
                chunk = min(shortfall, MAX_SEGMENT_BYTES)
                ticket = yield from self.sdm.allocate_process(
                    ctx, brick_id, request.vm_id, chunk,
                    charge_config=charge_config)
                latency += ticket.control_latency_s
                programmed = False
                try:
                    software_s = stack.agent.program_segment(
                        ticket.rmst_entry)
                    programmed = True
                    software_s += stack.agent.attach_segment(ticket.segment)
                except ReproError:
                    # The in-flight ticket is not in boot_segments yet;
                    # unwind it here before the outer cleanup runs.
                    if programmed:
                        yield ctx.sim.timeout(stack.agent.unprogram_segment(
                            ticket.segment.segment_id))
                    stack.kernel.address_map.cancel_reservation(
                        ticket.segment.segment_id)
                    yield from self.sdm.release_process(
                        ctx, ticket.segment.segment_id)
                    ticket.segment.release()
                    raise
                yield ctx.sim.timeout(software_s)
                latency += software_s
                ticket.segment.activate()
                boot_segments.append(ticket.segment)
                shortfall = request.ram_bytes - stack.kernel.available_bytes
            if on_commit is not None:
                on_commit()
            # The spawn can also fail (cores or RAM consumed by a
            # concurrent boot/scale-up since placement), so it lives
            # inside the cleanup scope.
            vm, spawn_latency = stack.hypervisor.spawn_vm(
                request.vm_id, request.vcpus, request.ram_bytes)
        except ReproError:
            # A rejected boot must not leak partially attached memory:
            # an open-loop control plane keeps running after the
            # rejection, so return every segment to the pool.
            for segment in boot_segments:
                software_s = stack.agent.detach_segment(segment.segment_id)
                software_s += stack.agent.unprogram_segment(
                    segment.segment_id)
                yield ctx.sim.timeout(software_s)
                yield from self.sdm.release_process(ctx, segment.segment_id)
                segment.release()
            raise
        yield ctx.sim.timeout(spawn_latency)
        latency += spawn_latency
        self._vms[request.vm_id] = HostedVm(vm, brick_id, boot_segments)
        return BootInfo(vm=vm, brick_id=brick_id, latency_s=latency,
                        boot_segments=boot_segments)

    def terminate_vm(self, vm_id: str) -> float:
        """Tear a VM down, detach its boot segments, release resources.

        Zero-contention synchronous wrapper around
        :meth:`terminate_vm_process`; returns the teardown latency.
        """
        return run_sync(lambda ctx: self.terminate_vm_process(ctx, vm_id))

    def terminate_vm_process(self, ctx: ControlContext,
                             vm_id: str) -> ProcessGenerator:
        """DES process form of :meth:`terminate_vm`."""
        hosted = self.hosting(vm_id)
        stack = self.stack(hosted.brick_id)
        latency = 0.0
        # Scale-down any runtime segments still attached through the
        # scale-up controller.
        for segment in list(stack.scaleup.attached_segments()):
            if segment.vm_id == vm_id:
                steps = yield from stack.scaleup.scale_down_process(
                    ctx, vm_id, segment.segment_id)
                latency += sum(steps.values())
        stack.hypervisor.terminate_vm(vm_id)
        for segment in hosted.boot_segments:
            software_s = stack.agent.detach_segment(segment.segment_id)
            software_s += stack.agent.unprogram_segment(segment.segment_id)
            yield ctx.sim.timeout(software_s)
            latency += software_s
            latency += yield from self.sdm.release_process(
                ctx, segment.segment_id)
            segment.release()
        del self._vms[vm_id]
        return latency

    # -- the remote data path -----------------------------------------------------

    def attach_data_mover(self, brick_id: str,
                          config: Optional["MoverConfig"] = None
                          ) -> "DataMover":
        """Install a :class:`~repro.datamover.mover.DataMover` on a brick.

        The mover resolves access paths at call time through the SDM
        registry and the fabric, so circuits swung by migration or
        repair are picked up transparently.  Already-attached segments
        are registered immediately; re-attaching replaces the brick's
        mover with a fresh, cold cache — after flushing the old mover's
        dirty blocks, so no pending write-back is silently dropped.
        """
        from repro.datamover.mover import DataMover, MoverConfig
        from repro.memory.path import CircuitAccessPath

        stack = self.stack(brick_id)
        if stack.data_mover is not None:
            for segment_id in stack.data_mover.registered_segments():
                stack.data_mover.flush_segment(segment_id)

        def resolve_path(memory_brick_id: str) -> CircuitAccessPath:
            memory = self.sdm.registry.memory(memory_brick_id).brick
            circuit = self.fabric.circuit_between(stack.brick, memory)
            if circuit is None:
                raise FabricError(
                    f"no live circuit between {brick_id} and "
                    f"{memory_brick_id}")
            return CircuitAccessPath(stack.brick, memory, circuit)

        mover = DataMover(stack.brick, resolve_path,
                          config or MoverConfig())
        stack.kernel.bind_data_mover(mover)
        stack.data_mover = mover
        return mover

    def note_hot_placement(self, min_accesses: int = 1024) -> set[str]:
        """Feed mover heat statistics into the placement policy.

        Collects each attached mover's hot dMEMBRICKs and, when the SDM
        policy supports co-location (see
        :class:`~repro.orchestration.placement.PowerAwarePackingPolicy`),
        records them so future segments pack onto the same bricks.
        Returns the hot brick ids found.
        """
        hot: set[str] = set()
        for stack in self._stacks.values():
            if stack.data_mover is not None:
                hot |= stack.data_mover.hot_memory_bricks(min_accesses)
        note = getattr(self.sdm.policy, "note_hot_brick", None)
        if note is not None:
            for brick_id in sorted(hot):
                note(brick_id)
        return hot

    # -- runtime elasticity ------------------------------------------------------------

    def scale_up(self, vm_id: str, size_bytes: int) -> ScaleUpResult:
        """Grow a running VM's memory via the full §IV pipeline."""
        hosted = self.hosting(vm_id)
        stack = self.stack(hosted.brick_id)
        return stack.scaleup.scale_up(ScaleUpRequest(vm_id, size_bytes))

    def scale_up_process(self, ctx: ControlContext, vm_id: str,
                         size_bytes: int, *,
                         charge_config: bool = True,
                         on_commit=None) -> ProcessGenerator:
        """DES process form of :meth:`scale_up`."""
        hosted = self.hosting(vm_id)
        stack = self.stack(hosted.brick_id)
        result = yield from stack.scaleup.scale_up_process(
            ctx, ScaleUpRequest(vm_id, size_bytes),
            charge_config=charge_config, on_commit=on_commit)
        return result

    def scale_down(self, vm_id: str, segment_id: str) -> dict[str, float]:
        """Return a previously scaled-up segment."""
        hosted = self.hosting(vm_id)
        stack = self.stack(hosted.brick_id)
        return stack.scaleup.scale_down(vm_id, segment_id)

    def scale_down_process(self, ctx: ControlContext, vm_id: str,
                           segment_id: str) -> ProcessGenerator:
        """DES process form of :meth:`scale_down`."""
        hosted = self.hosting(vm_id)
        stack = self.stack(hosted.brick_id)
        steps = yield from stack.scaleup.scale_down_process(
            ctx, vm_id, segment_id)
        return steps

    def migrate_vm(self, vm_id: str, target_brick_id: str):
        """Migrate a running VM to another compute brick.

        Disaggregation's migration advantage: remote segments are
        re-pointed (circuit + RMST swing) instead of copied.  Returns a
        :class:`~repro.core.migration.MigrationReport`.
        """
        from repro.core.migration import MigrationFlow
        return MigrationFlow(self).migrate(vm_id, target_brick_id)

    def migrate_vm_process(self, ctx: ControlContext, vm_id: str,
                           target_brick_id: str, *,
                           on_commit=None) -> ProcessGenerator:
        """DES process form of :meth:`migrate_vm`.

        The SDM-side work (power-on pre-flight plus the per-segment
        circuit/RMST swing) holds the reservation scope covering the
        source brick, the target brick and every involved memory brick
        (the single critical section on a plain controller; the
        affected shards, in canonical order, on a sharded one).  The
        pause/copy/resume phases are charged after it is released, so
        other control traffic only queues behind the controller part;
        ``on_commit`` fires at that hand-off point.
        """
        from repro.core.migration import MigrationFlow

        def brick_ids() -> tuple:
            # Re-derived at (re-)grant time: a concurrent relocation or
            # scale event may move the VM's segments while we queue, and
            # the scope must cover where they live *now*.
            hosted = self.hosting(vm_id)
            stack = self.stack(hosted.brick_id)
            ids = [hosted.brick_id, target_brick_id]
            ids += [s.memory_brick_id for s in hosted.boot_segments]
            ids += [s.memory_brick_id
                    for s in stack.scaleup.attached_segments()
                    if s.vm_id == vm_id]
            return tuple(ids)

        token = yield from self.sdm.reserve_scope_stable(
            ctx, vm_id, brick_ids)
        try:
            report = MigrationFlow(self).migrate(vm_id, target_brick_id)
            critical_s = (report.steps.get("segment_repoint", 0.0)
                          + report.steps.get("target_power_on", 0.0))
            yield ctx.sim.timeout(critical_s)
        finally:
            self.sdm.release_scope(token)
        if on_commit is not None:
            on_commit()
        yield ctx.sim.timeout(report.total_s - critical_s)
        return report

    # -- failure handling ---------------------------------------------------------------

    def handle_memory_brick_failure(self, brick_id: str) -> "FailureImpact":
        """React to the loss of a dMEMBRICK.

        Disaggregation's blast radius: every VM holding a segment on the
        failed brick loses memory content and must be terminated (memory
        is not replicated in the prototype).  The brick is excluded from
        future placement.  Returns the impact report.
        """
        impacted_segments = self.sdm.segments_on(brick_id)
        impacted_vms = sorted({s.vm_id for s in impacted_segments if s.vm_id})
        impact = FailureImpact(
            brick_id=brick_id,
            segment_ids=[s.segment_id for s in impacted_segments],
            vm_ids=impacted_vms,
        )
        for vm_id in impacted_vms:
            if vm_id in self._vms:
                impact.teardown_latency_s += self.terminate_vm(vm_id)
        self.sdm.registry.mark_memory_failed(brick_id)
        return impact

    def audit_circuits(self, target_ber: float = 1e-12) -> float:
        """Scan for degraded circuits and repair them; returns the total
        repair latency (0.0 when everything is healthy)."""
        latency = 0.0
        for circuit in self.sdm.scan_unhealthy_circuits(target_ber):
            latency += self.sdm.repair_circuit(circuit.circuit_id)
        return latency

    # -- power management ---------------------------------------------------------------

    def power_off_idle(self) -> list[str]:
        """Power down every brick with no allocation (the TCO lever)."""
        return self.sdm.registry.power_off_idle_bricks()

    def total_power_w(self) -> float:
        """Bricks plus optical switch draw (all tiers)."""
        return (sum(rack.total_power_draw_w() for rack in self.racks)
                + self.fabric.power_draw_w)

    def __repr__(self) -> str:
        scope = (f"{len(self.racks)} racks, " if len(self.racks) > 1 else "")
        return (f"DisaggregatedSystem({scope}{len(self._stacks)} compute, "
                f"{len(self.memory_bricks)} memory, "
                f"{len(self.accelerator_bricks)} accel bricks, "
                f"{len(self._vms)} VMs)")


#: Single-rack-era name; a pod-capable system is the same object.
DisaggregatedRack = DisaggregatedSystem
