"""The baremetal kernel of a dCOMPUBRICK.

Owns the brick's physical address map and the hotplug machinery, and
exposes the two operations the disaggregation control plane needs
(§IV.A): attach a remote segment (map window -> add_memory -> online) and
detach it (offline -> remove -> unmap).  Also keeps simple RAM accounting
so the hypervisor can admission-check VM memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import HotplugError, HypervisorError, SoftwareError
from repro.hardware.bricks import ComputeBrick

from repro.memory.address import PhysicalAddressMap
from repro.memory.segments import RemoteSegment
from repro.software.hotplug import (
    DEFAULT_HOTPLUG_TIMINGS,
    HotplugTimings,
    MemoryHotplug,
)
from repro.software.pages import DEFAULT_SECTION_BYTES

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.datamover.mover import DataMover


@dataclass(frozen=True)
class AttachedSegment:
    """Kernel-side record of one attached remote segment."""

    segment: RemoteSegment
    window_base: int
    window_size: int


class BaremetalKernel:
    """Kernel state of one compute brick."""

    def __init__(self, brick: ComputeBrick,
                 section_bytes: int = DEFAULT_SECTION_BYTES,
                 hotplug_timings: HotplugTimings = DEFAULT_HOTPLUG_TIMINGS,
                 ) -> None:
        self.brick = brick
        self.address_map = PhysicalAddressMap(
            brick.local_memory_bytes, window_alignment=section_bytes)
        self.hotplug = MemoryHotplug(section_bytes, hotplug_timings)
        self._attached: dict[str, AttachedSegment] = {}
        #: RAM reserved by the hypervisor for running VMs.
        self._reserved_bytes = 0
        #: The brick's data mover, once one is bound.  Remote reads and
        #: writes route through it; attach/detach keep it coherent.
        self.data_mover: Optional["DataMover"] = None
        #: Called after every change to :attr:`available_bytes`
        #: (reserve, release, attach, detach); ``None`` when unwatched.
        self.on_change: Optional[Callable[[], None]] = None

    # -- RAM accounting ----------------------------------------------------------

    @property
    def total_ram_bytes(self) -> int:
        """Local DRAM plus all online remote memory."""
        return self.brick.local_memory_bytes + self.hotplug.online_bytes()

    @property
    def reserved_bytes(self) -> int:
        return self._reserved_bytes

    @property
    def available_bytes(self) -> int:
        return self.total_ram_bytes - self._reserved_bytes

    def reserve_ram(self, size: int) -> None:
        """Claim RAM for a VM; the hypervisor calls this on spawn/expand."""
        if size <= 0:
            raise HypervisorError(f"reservation must be positive, got {size}")
        if size > self.available_bytes:
            raise HypervisorError(
                f"cannot reserve {size} bytes; only {self.available_bytes} "
                f"available on {self.brick.brick_id}")
        self._reserved_bytes += size
        if self.on_change is not None:
            self.on_change()

    def release_ram(self, size: int) -> None:
        """Return RAM previously reserved."""
        if size <= 0:
            raise HypervisorError(f"release must be positive, got {size}")
        if size > self._reserved_bytes:
            raise HypervisorError(
                f"release of {size} bytes exceeds reservation "
                f"{self._reserved_bytes}")
        self._reserved_bytes -= size
        if self.on_change is not None:
            self.on_change()

    # -- segment attach/detach -----------------------------------------------------

    @property
    def attached_segments(self) -> list[AttachedSegment]:
        return list(self._attached.values())

    def attach_segment(self, segment: RemoteSegment) -> tuple[AttachedSegment, float]:
        """Attach *segment*: map a window, add and online its memory.

        Returns the kernel record and the total kernel-side latency.
        The paper's flow (§IV): "the baremetal OS attaches remote memory
        and makes it available".
        """
        if segment.segment_id in self._attached:
            raise HotplugError(
                f"segment {segment.segment_id} is already attached")
        window = self.address_map.map_window(segment.segment_id, segment.size)
        latency = self.hotplug.add_memory(window.base, window.size)
        latency += self.hotplug.online(window.base, window.size)
        record = AttachedSegment(segment, window.base, window.size)
        self._attached[segment.segment_id] = record
        if self.data_mover is not None:
            self.data_mover.register_segment(segment.segment_id,
                                             window.base, window.size)
        if self.on_change is not None:
            self.on_change()
        return record, latency

    def detach_segment(self, segment_id: str) -> float:
        """Detach a segment: offline, remove, unmap.  Returns latency.

        The guard compares *live* reservations against the post-detach
        headroom.  Reservations track guest-configured RAM (hypervisor
        DIMM accounting) — balloon-reclaimed pages stay configured and
        therefore still need backing, so they rightly count; a
        reservation that never touched this window only blocks the
        detach when the remaining memory genuinely cannot hold it.
        """
        record = self._attached.get(segment_id)
        if record is None:
            raise HotplugError(f"segment {segment_id} is not attached")
        in_use = self._reserved_bytes
        headroom = self.total_ram_bytes - record.window_size
        if in_use > headroom:
            raise HotplugError(
                f"cannot detach {segment_id} ({record.window_size} bytes): "
                f"{in_use} bytes of guest RAM reserved but only {headroom} "
                f"would remain on {self.brick.brick_id}")
        latency = 0.0
        if self.data_mover is not None:
            # Flush the mover's dirty blocks while the RMST entry and
            # circuit still exist — offlining first would strand them.
            latency += self.data_mover.flush_segment(segment_id)
        latency += self.hotplug.offline(record.window_base,
                                        record.window_size)
        latency += self.hotplug.remove_memory(record.window_base,
                                              record.window_size)
        self.address_map.unmap_window(segment_id)
        del self._attached[segment_id]
        if self.on_change is not None:
            self.on_change()
        return latency

    def window_of_segment(self, segment_id: str) -> Optional[AttachedSegment]:
        return self._attached.get(segment_id)

    # -- the remote data path ------------------------------------------------

    def bind_data_mover(self, mover: "DataMover") -> None:
        """Route this kernel's remote accesses through *mover*.

        Every already-attached segment is registered with the mover so
        detaches flush it correctly.
        """
        self.data_mover = mover
        for record in self._attached.values():
            mover.register_segment(record.segment.segment_id,
                                   record.window_base, record.window_size)

    def _require_mover(self) -> "DataMover":
        if self.data_mover is None:
            raise SoftwareError(
                f"no data mover bound on {self.brick.brick_id}; call "
                f"bind_data_mover (or DisaggregatedSystem."
                f"attach_data_mover) first")
        return self.data_mover

    def remote_read(self, address: int,
                    size_bytes: int = 64) -> "MoverAccessResult":
        """Read remote memory through the data mover."""
        return self._require_mover().read(address, size_bytes)

    def remote_write(self, address: int,
                     size_bytes: int = 64) -> "MoverAccessResult":
        """Write remote memory through the data mover (write-allocate)."""
        return self._require_mover().write(address, size_bytes)

    def __repr__(self) -> str:
        return (f"BaremetalKernel({self.brick.brick_id!r}, "
                f"ram={self.total_ram_bytes >> 30} GiB, "
                f"{len(self._attached)} remote segments)")
