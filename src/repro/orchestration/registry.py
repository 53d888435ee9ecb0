"""System-wide resource inventory and availability accounting.

The registry is the SDM controller's world model: which bricks exist,
their capacities, which rack holds them, and what is currently reserved.
Memory bricks carry a :class:`~repro.memory.allocator.SegmentAllocator`;
compute bricks are tracked through their kernels/hypervisors.  Entries
record their rack so placement can score interconnect distance at pod
scale; single-rack deployments may leave ``rack_id`` empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import OrchestrationError
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.hardware.power import PowerState
from repro.memory.allocator import SegmentAllocator
from repro.orchestration.lifecycle import BrickLifecycle, BrickState
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.pages import DEFAULT_SECTION_BYTES


@dataclass
class ComputeEntry:
    """Registry record of one compute brick."""

    brick: ComputeBrick
    hypervisor: Hypervisor
    agent: SdmAgent
    #: Rack holding the brick ("" in single-rack deployments that never
    #: told the registry about topology).
    rack_id: str = ""
    #: Set when the brick (or its rack's uplink) has failed; failed
    #: bricks are excluded from placement until repaired.
    failed: bool = False
    #: Ironic-style provisioning state; only ``active`` bricks receive
    #: new placements.  Registration walks it straight to active so the
    #: default flow is unchanged.
    lifecycle: BrickLifecycle = field(default=None)  # type: ignore[assignment]


@dataclass
class MemoryEntry:
    """Registry record of one memory brick."""

    brick: MemoryBrick
    allocator: SegmentAllocator
    #: Set when the brick has failed; failed bricks never host segments.
    failed: bool = False
    rack_id: str = ""
    #: Ironic-style provisioning state (see :mod:`repro.orchestration.
    #: lifecycle`); the allocator's ``accepting`` gate shadows it.
    lifecycle: BrickLifecycle = field(default=None)  # type: ignore[assignment]
    #: ``(allocator.version, brick.is_powered, snapshot)`` of the last
    #: :meth:`ResourceRegistry.memory_availability` read of this brick.
    availability: tuple[int, bool, MemoryAvailability] | None = field(
        default=None, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ComputeAvailability:
    """Snapshot of a compute brick's free capacity."""

    brick_id: str
    free_cores: int
    free_ram_bytes: int
    powered: bool
    hosts_vms: bool
    rack_id: str = ""


@dataclass(frozen=True, slots=True)
class MemoryAvailability:
    """Snapshot of a memory brick's free capacity."""

    brick_id: str
    free_bytes: int
    largest_span_bytes: int
    utilization: float
    powered: bool
    rack_id: str = ""


class PodLoad(NamedTuple):
    """Free bytes and cores of the placeable bricks; allocated fraction
    and mean fragmentation of every non-failed memory brick."""

    free_bytes: int
    free_cores: int
    utilization: float
    fragmentation: float


class ResourceRegistry:
    """Inventory of every brick the SDM controller manages."""

    def __init__(self, segment_alignment: int = DEFAULT_SECTION_BYTES) -> None:
        self.segment_alignment = segment_alignment
        self._compute: dict[str, ComputeEntry] = {}
        self._memory: dict[str, MemoryEntry] = {}

    # -- registration -------------------------------------------------------------

    def register_compute(self, brick: ComputeBrick, hypervisor: Hypervisor,
                         agent: SdmAgent, rack_id: str = "") -> ComputeEntry:
        if brick.brick_id in self._compute:
            raise OrchestrationError(
                f"compute brick {brick.brick_id} already registered")
        entry = ComputeEntry(brick, hypervisor, agent, rack_id=rack_id)
        entry.lifecycle = BrickLifecycle(brick.brick_id)
        entry.lifecycle.activate()
        self._compute[brick.brick_id] = entry
        return entry

    def register_memory(self, brick: MemoryBrick,
                        rack_id: str = "") -> MemoryEntry:
        if brick.brick_id in self._memory:
            raise OrchestrationError(
                f"memory brick {brick.brick_id} already registered")
        allocator = SegmentAllocator(
            brick.capacity_bytes, alignment=self.segment_alignment)
        entry = MemoryEntry(brick, allocator, rack_id=rack_id)
        entry.lifecycle = BrickLifecycle(brick.brick_id)
        entry.lifecycle.activate()
        self._memory[brick.brick_id] = entry
        return entry

    # -- lookups ----------------------------------------------------------------------

    def compute(self, brick_id: str) -> ComputeEntry:
        try:
            return self._compute[brick_id]
        except KeyError:
            raise OrchestrationError(
                f"unknown compute brick {brick_id!r}") from None

    def memory(self, brick_id: str) -> MemoryEntry:
        try:
            return self._memory[brick_id]
        except KeyError:
            raise OrchestrationError(
                f"unknown memory brick {brick_id!r}") from None

    def rack_of(self, brick_id: str) -> str:
        """Rack holding *brick_id* (compute or memory), "" if untagged."""
        entry = self._compute.get(brick_id) or self._memory.get(brick_id)
        if entry is None:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        return entry.rack_id

    @property
    def brick_count(self) -> int:
        """Registered bricks (compute + memory); registries only grow,
        so this doubles as a cheap change marker for derived caches."""
        return len(self._compute) + len(self._memory)

    @property
    def compute_entries(self) -> list[ComputeEntry]:
        return list(self._compute.values())

    @property
    def memory_entries(self) -> list[MemoryEntry]:
        return list(self._memory.values())

    # -- availability snapshots ---------------------------------------------------------

    def compute_availability(self) -> list[ComputeAvailability]:
        """Free capacity of every healthy compute brick."""
        snapshots = []
        for entry in self._compute.values():
            if entry.failed or not entry.lifecycle.placeable:
                continue
            hypervisor = entry.hypervisor
            snapshots.append(ComputeAvailability(
                brick_id=entry.brick.brick_id,
                free_cores=(entry.brick.core_count
                            - hypervisor.cores_in_use()),
                free_ram_bytes=hypervisor.kernel.available_bytes,
                powered=entry.brick.is_powered,
                hosts_vms=hypervisor.vm_count > 0,
                rack_id=entry.rack_id,
            ))
        return snapshots

    def memory_availability(self) -> list[MemoryAvailability]:
        """Free capacity of every healthy memory brick; a brick's
        snapshot is reused until its allocator or power state changes."""
        snapshots = []
        for entry in self._memory.values():
            if entry.failed or not entry.lifecycle.placeable:
                continue
            allocator = entry.allocator
            powered = entry.brick.is_powered
            memo = entry.availability
            if (memo is None or memo[0] != allocator.version
                    or memo[1] is not powered):
                memo = entry.availability = (
                    allocator.version, powered, MemoryAvailability(
                        brick_id=entry.brick.brick_id,
                        free_bytes=allocator.free_bytes,
                        largest_span_bytes=allocator.largest_free_span,
                        utilization=allocator.utilization,
                        powered=powered,
                        rack_id=entry.rack_id,
                    ))
            snapshots.append(memo[2])
        return snapshots

    def pod_load(self) -> PodLoad:
        """The pod's :class:`PodLoad`, read in one pass over the
        counters the availability snapshots are built from."""
        free_cores = sum(
            e.brick.core_count - e.hypervisor.cores_in_use()
            for e in self._compute.values()
            if not e.failed and e.lifecycle.placeable)
        placeable_free = allocated = free = 0
        fragmentations = []
        for entry in self._memory.values():
            if entry.failed:
                continue
            allocator = entry.allocator
            allocated += allocator.allocated_bytes
            free += allocator.free_bytes
            fragmentations.append(allocator.fragmentation)
            if entry.lifecycle.placeable:
                placeable_free += allocator.free_bytes
        return PodLoad(
            free_bytes=placeable_free,
            free_cores=free_cores,
            utilization=(allocated / (allocated + free)
                         if allocated + free else 0.0),
            # sum(), as the snapshot formula had it: Python >= 3.12
            # compensates float sums, so a running total could differ.
            fragmentation=(sum(fragmentations) / len(fragmentations)
                           if fragmentations else 0.0),
        )

    # -- lifecycle ------------------------------------------------------------------

    def transition_memory(self, brick_id: str,
                          state: BrickState) -> MemoryEntry:
        """Legal-checked lifecycle transition for a memory brick.

        Syncs the allocator's ``accepting`` gate with the new state and
        powers the brick down when it enters maintenance (the TCO lever:
        a serviced brick draws no power) and back up when it returns to
        the available pool.
        """
        entry = self.memory(brick_id)
        entry.lifecycle.transition(state)
        entry.allocator.accepting = entry.lifecycle.accepting
        if state is BrickState.MAINTENANCE:
            entry.brick.power_off()
        elif state is BrickState.AVAILABLE:
            entry.brick.power_on()
        return entry

    def transition_compute(self, brick_id: str,
                           state: BrickState) -> ComputeEntry:
        """Legal-checked lifecycle transition for a compute brick."""
        entry = self.compute(brick_id)
        entry.lifecycle.transition(state)
        return entry

    def lifecycle_of(self, brick_id: str) -> BrickLifecycle:
        """Lifecycle record for any registered brick."""
        entry = self._compute.get(brick_id) or self._memory.get(brick_id)
        if entry is None:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        return entry.lifecycle

    def mark_memory_failed(self, brick_id: str) -> MemoryEntry:
        """Exclude a failed memory brick from all future placement."""
        entry = self.memory(brick_id)
        entry.failed = True
        entry.brick.power_off()
        return entry

    def restore_memory(self, brick_id: str) -> MemoryEntry:
        """Return a repaired memory brick to the placement pool."""
        entry = self.memory(brick_id)
        entry.failed = False
        entry.brick.power_on()
        return entry

    def mark_compute_failed(self, brick_id: str) -> ComputeEntry:
        """Exclude a failed compute brick from all future placement.

        The brick keeps its registered state (hypervisor, VMs) — a
        repaired brick resumes serving its tenants where it stopped —
        but no new placement lands on it while failed.
        """
        entry = self.compute(brick_id)
        entry.failed = True
        return entry

    def restore_compute(self, brick_id: str) -> ComputeEntry:
        """Return a repaired compute brick to the placement pool."""
        entry = self.compute(brick_id)
        entry.failed = False
        return entry

    # -- power management ------------------------------------------------------------------

    def power_off_idle_bricks(self) -> list[str]:
        """Power down every brick with no allocation; returns their ids.

        This is the TCO lever of §VI: "evaluate the number of unutilized
        individually powered units that can be powered off".
        """
        powered_off: list[str] = []
        for entry in self._compute.values():
            if not entry.hypervisor.vm_count and entry.brick.is_powered:
                entry.brick.power_off()
                powered_off.append(entry.brick.brick_id)
        for entry in self._memory.values():
            if entry.allocator.allocation_count == 0 and entry.brick.is_powered:
                entry.brick.power_off()
                powered_off.append(entry.brick.brick_id)
        return powered_off

    def ensure_powered(self, brick_id: str) -> bool:
        """Power a brick on if needed; returns True when it was off."""
        if brick_id in self._compute:
            brick = self._compute[brick_id].brick
        elif brick_id in self._memory:
            brick = self._memory[brick_id].brick
        else:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        was_off = brick.power_state is PowerState.OFF
        brick.power_on()
        return was_off
