"""System-wide resource inventory and availability accounting.

The registry is the SDM controller's world model: which bricks exist,
their capacities, which rack holds them, and what is currently reserved.
Memory bricks carry a :class:`~repro.memory.allocator.SegmentAllocator`;
compute bricks are tracked through their kernels/hypervisors.  Entries
record their rack so placement can score interconnect distance at pod
scale; single-rack deployments may leave ``rack_id`` empty.

Pod status is kept from running counters rather than walks.  At
registration every brick's components (allocator, hypervisor, kernel,
the brick's power state) get one change callback that marks the brick
dirty; a read rebuilds only the dirty bricks' snapshots and adjusts
integer totals.  Rare changes -- registration, a failed flag, a
lifecycle transition -- mark the whole registry stale instead, and the
next read recounts every brick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
        #: Bricks whose change callback fired since the last read.
        #: Dicts, not sets: refreshes run in insertion order, never in
        #: hash order.
        self._dirty_compute: dict[str, ComputeEntry] = {}
        self._dirty_memory: dict[str, MemoryEntry] = {}
        #: True when the next read must recount every brick.
        self._stale = True
        # What the reads serve, each in registration order with every
        # brick's position in it: snapshots of the placeable,
        # non-failed bricks; free bytes and fragmentation of every
        # non-failed memory brick (the pool).
        self._compute_view: list[ComputeAvailability] = []
        self._compute_slot: dict[str, int] = {}
        self._memory_view: list[MemoryAvailability] = []
        self._memory_slot: dict[str, int] = {}
        self._pool_slot: dict[str, int] = {}
        self._pool_free: list[int] = []
        self._fragmentations: list[float] = []
        self._free_cores = 0
        self._placeable_free_bytes = 0
        self._free_bytes = 0
        self._allocated_bytes = 0

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
        changed = partial(self._dirty_compute.__setitem__, brick.brick_id,
                          entry)
        brick.on_change = hypervisor.on_change = changed
        hypervisor.kernel.on_change = changed
        self._stale = True
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
        brick.on_change = allocator.on_change = partial(
            self._dirty_memory.__setitem__, brick.brick_id, entry)
        self._stale = True
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
        self._refresh()
        return list(self._compute_view)

    def memory_availability(self) -> list[MemoryAvailability]:
        """Free capacity of every healthy memory brick."""
        self._refresh()
        return list(self._memory_view)

    def fragmentations(self) -> list[float]:
        """Free-space fragmentation of every non-failed memory brick,
        placeable or not, in registration order."""
        self._refresh()
        return list(self._fragmentations)

    def pod_load(self) -> PodLoad:
        """The pod's :class:`PodLoad`, from the running totals."""
        self._refresh()
        allocated, free = self._allocated_bytes, self._free_bytes
        fragmentations = self._fragmentations
        return PodLoad(
            free_bytes=self._placeable_free_bytes,
            free_cores=self._free_cores,
            utilization=(allocated / (allocated + free)
                         if allocated + free else 0.0),
            # sum(), as the snapshot formula had it: Python >= 3.12
            # compensates float sums, so a running total could differ.
            fragmentation=(sum(fragmentations) / len(fragmentations)
                           if fragmentations else 0.0),
        )

    def _refresh(self) -> None:
        """Bring the views and totals up to date: recount everything
        when stale, else rebuild only the bricks reported dirty."""
        if self._stale:
            self._recount()
            return
        if self._dirty_compute:
            view, slots = self._compute_view, self._compute_slot
            for brick_id, entry in self._dirty_compute.items():
                slot = slots.get(brick_id)
                if slot is not None:
                    snapshot = _compute_snapshot(entry)
                    self._free_cores += (snapshot.free_cores
                                         - view[slot].free_cores)
                    view[slot] = snapshot
            self._dirty_compute.clear()
        if self._dirty_memory:
            pool_free = self._pool_free
            for brick_id, entry in self._dirty_memory.items():
                slot = self._pool_slot.get(brick_id)
                if slot is None:
                    continue  # failed: outside the pool
                allocator = entry.allocator
                delta = allocator.free_bytes - pool_free[slot]
                pool_free[slot] += delta
                self._free_bytes += delta
                self._allocated_bytes -= delta
                self._fragmentations[slot] = allocator.fragmentation
                view_slot = self._memory_slot.get(brick_id)
                if view_slot is not None:
                    self._placeable_free_bytes += delta
                    self._memory_view[view_slot] = _memory_snapshot(entry)
            self._dirty_memory.clear()

    def _recount(self) -> None:
        """Rebuild every view and total from the bricks themselves."""
        self._compute_view, self._compute_slot = [], {}
        for brick_id, entry in self._compute.items():
            if not entry.failed and entry.lifecycle.placeable:
                self._compute_slot[brick_id] = len(self._compute_view)
                self._compute_view.append(_compute_snapshot(entry))
        self._memory_view, self._memory_slot = [], {}
        self._pool_slot, self._pool_free, self._fragmentations = {}, [], []
        allocated = 0
        for brick_id, entry in self._memory.items():
            if entry.failed:
                continue
            allocator = entry.allocator
            self._pool_slot[brick_id] = len(self._pool_free)
            self._pool_free.append(allocator.free_bytes)
            self._fragmentations.append(allocator.fragmentation)
            allocated += allocator.allocated_bytes
            if entry.lifecycle.placeable:
                self._memory_slot[brick_id] = len(self._memory_view)
                self._memory_view.append(_memory_snapshot(entry))
        self._free_cores = sum(c.free_cores for c in self._compute_view)
        self._placeable_free_bytes = sum(
            m.free_bytes for m in self._memory_view)
        self._free_bytes = sum(self._pool_free)
        self._allocated_bytes = allocated
        self._dirty_compute.clear()
        self._dirty_memory.clear()
        self._stale = False

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
        self._stale = True
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
        self._stale = True
        return entry

    def lifecycle_of(self, brick_id: str) -> BrickLifecycle:
        """Lifecycle record for any registered brick."""
        entry = self._compute.get(brick_id) or self._memory.get(brick_id)
        if entry is None:
            raise OrchestrationError(f"unknown brick {brick_id!r}")
        return entry.lifecycle

    def set_memory_failed(self, brick_id: str, failed: bool) -> MemoryEntry:
        """Write a memory brick's failed flag and nothing else.

        The flag alone is the rack-uplink fault's path: the brick is
        healthy and keeps its content and power, it is only cut off.
        """
        entry = self.memory(brick_id)
        entry.failed = failed
        self._stale = True
        return entry

    def mark_memory_failed(self, brick_id: str) -> MemoryEntry:
        """Exclude a failed memory brick from all future placement."""
        entry = self.set_memory_failed(brick_id, True)
        entry.brick.power_off()
        return entry

    def restore_memory(self, brick_id: str) -> MemoryEntry:
        """Return a repaired memory brick to the placement pool."""
        entry = self.set_memory_failed(brick_id, False)
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
        self._stale = True
        return entry

    def restore_compute(self, brick_id: str) -> ComputeEntry:
        """Return a repaired compute brick to the placement pool."""
        entry = self.compute(brick_id)
        entry.failed = False
        self._stale = True
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


def _compute_snapshot(entry: ComputeEntry) -> ComputeAvailability:
    hypervisor = entry.hypervisor
    return ComputeAvailability(
        brick_id=entry.brick.brick_id,
        free_cores=entry.brick.core_count - hypervisor.cores_in_use(),
        free_ram_bytes=hypervisor.kernel.available_bytes,
        powered=entry.brick.is_powered,
        hosts_vms=hypervisor.vm_count > 0,
        rack_id=entry.rack_id,
    )


def _memory_snapshot(entry: MemoryEntry) -> MemoryAvailability:
    allocator = entry.allocator
    return MemoryAvailability(
        brick_id=entry.brick.brick_id,
        free_bytes=allocator.free_bytes,
        largest_span_bytes=allocator.largest_free_span,
        utilization=allocator.utilization,
        powered=entry.brick.is_powered,
        rack_id=entry.rack_id,
    )
