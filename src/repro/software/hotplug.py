"""The memory-hotplug state machine with its latency model.

Mirrors the Linux flow the project upstreamed for arm64 (paper ref [12]):

* ``add_memory()`` — register a range as PRESENT: allocate the memmap
  (struct pages) and expand the page-table pool.
* ``online_pages()`` — hand a PRESENT range to the buddy allocator.
* ``offline_pages()`` / ``remove_memory()`` — the reverse path (offlining
  must migrate any used pages away, which makes it slower).

Latencies are charged per section; defaults are calibrated to published
hotplug measurements (a few ms per 128 MiB section to add, a similar
amount to online, substantially more to offline due to page migration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HotplugError
from repro.software.pages import DEFAULT_SECTION_BYTES, SectionState
from repro.units import milliseconds


@dataclass(frozen=True)
class HotplugTimings:
    """Per-section latency parameters of the hotplug operations."""

    #: add_memory(): memmap allocation + page-table pool expansion.
    add_per_section_s: float = milliseconds(1.5)
    #: online_pages(): init struct pages, release to buddy.
    online_per_section_s: float = milliseconds(4.0)
    #: offline_pages(): page migration + isolation (used pages hurt).
    offline_per_section_s: float = milliseconds(12.0)
    #: remove_memory(): tear down memmap and page tables.
    remove_per_section_s: float = milliseconds(1.0)
    #: Fixed syscall/ACPI/driver overhead per operation (not per section).
    operation_overhead_s: float = milliseconds(2.0)


DEFAULT_HOTPLUG_TIMINGS = HotplugTimings()


class MemoryHotplug:
    """Hotplug state of one kernel's added ranges, plus operation
    latencies.

    Every caller adds, onlines, offlines and removes whole windows, so
    the state is kept per added range, not per section: an operation
    acts on exactly one added range and refuses anything else.
    Latencies are still charged per section the range covers.
    """

    def __init__(self, section_bytes: int = DEFAULT_SECTION_BYTES,
                 timings: HotplugTimings = DEFAULT_HOTPLUG_TIMINGS) -> None:
        if section_bytes <= 0:
            raise HotplugError("section size must be positive")
        self.section_bytes = section_bytes
        self.timings = timings
        #: base -> (size, PRESENT or ONLINE) of every added range; a
        #: removed range is forgotten, so the map holds what is added
        #: now, not every range ever added.
        self._ranges: dict[int, tuple[int, SectionState]] = {}
        self.operations = 0
        self._online_bytes = 0
        self._present_bytes = 0

    # -- geometry ----------------------------------------------------------------

    def section_count(self, base: int, size: int) -> int:
        """Sections covering ``[base, base+size)``.

        Hotplug requires section alignment; misaligned ranges are the
        classic way to corrupt the memory map, so they are rejected.
        """
        if base % self.section_bytes or size % self.section_bytes:
            raise HotplugError(
                f"range [{base:#x}, +{size:#x}) is not aligned to the "
                f"{self.section_bytes >> 20} MiB section size")
        if size <= 0:
            raise HotplugError(f"size must be positive, got {size}")
        return size // self.section_bytes

    def _added(self, verb: str, base: int, size: int,
               state: SectionState) -> int:
        """Section count of the added range ``[base, base+size)``, which
        must be in *state*; raises for anything else."""
        sections = self.section_count(base, size)
        added = self._ranges.get(base)
        if added is None or added[0] != size:
            raise HotplugError(
                f"cannot {verb} [{base:#x}, +{size:#x}): not an added "
                f"range")
        if added[1] is not state:
            raise HotplugError(
                f"cannot {verb} [{base:#x}, +{size:#x}): it is "
                f"{added[1].value}"
                + (" (offline it first)" if verb == "remove" else ""))
        return sections

    # -- operations --------------------------------------------------------------------

    def add_memory(self, base: int, size: int) -> float:
        """Register ``[base, base+size)`` as PRESENT; returns latency.

        Refused, with nothing changed, when the range overlaps an added
        one.
        """
        sections = self.section_count(base, size)
        for other, (other_size, state) in self._ranges.items():
            if other < base + size and base < other + other_size:
                raise HotplugError(
                    f"range [{base:#x}, +{size:#x}) overlaps "
                    f"[{other:#x}, +{other_size:#x}), already "
                    f"{state.value}")
        self._ranges[base] = (size, SectionState.PRESENT)
        self._present_bytes += size
        self.operations += 1
        return (self.timings.operation_overhead_s
                + sections * self.timings.add_per_section_s)

    def online(self, base: int, size: int) -> float:
        """Online a PRESENT range; returns latency."""
        sections = self._added("online", base, size, SectionState.PRESENT)
        self._ranges[base] = (size, SectionState.ONLINE)
        self._online_bytes += size
        self.operations += 1
        return (self.timings.operation_overhead_s
                + sections * self.timings.online_per_section_s)

    def offline(self, base: int, size: int) -> float:
        """Offline an ONLINE range (page migration); returns latency."""
        sections = self._added("offline", base, size, SectionState.ONLINE)
        self._ranges[base] = (size, SectionState.PRESENT)
        self._online_bytes -= size
        self.operations += 1
        return (self.timings.operation_overhead_s
                + sections * self.timings.offline_per_section_s)

    def remove_memory(self, base: int, size: int) -> float:
        """Unregister a PRESENT range; returns latency."""
        sections = self._added("remove", base, size, SectionState.PRESENT)
        del self._ranges[base]
        self._present_bytes -= size
        self.operations += 1
        return (self.timings.operation_overhead_s
                + sections * self.timings.remove_per_section_s)

    # -- queries -------------------------------------------------------------------------

    def online_bytes(self) -> int:
        """Bytes currently usable by the buddy allocator."""
        return self._online_bytes

    def present_bytes(self) -> int:
        """Bytes registered (PRESENT or ONLINE)."""
        return self._present_bytes
