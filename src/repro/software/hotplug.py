"""The memory-hotplug state machine with its latency model.

Mirrors the Linux flow the project upstreamed for arm64 (paper ref [12]):

* ``add_memory()`` — register sections as PRESENT: allocate the memmap
  (struct pages) and expand the page-table pool.
* ``online_pages()`` — hand PRESENT sections to the buddy allocator.
* ``offline_pages()`` / ``remove_memory()`` — the reverse path (offlining
  must migrate any used pages away, which makes it slower).

Latencies are charged per section; defaults are calibrated to published
hotplug measurements (a few ms per 128 MiB section to add, a similar
amount to online, substantially more to offline due to page migration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HotplugError
from repro.software.pages import (
    DEFAULT_SECTION_BYTES,
    MemorySection,
    SectionState,
)
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
    """Section bookkeeping plus operation latencies for one kernel."""

    def __init__(self, section_bytes: int = DEFAULT_SECTION_BYTES,
                 timings: HotplugTimings = DEFAULT_HOTPLUG_TIMINGS) -> None:
        if section_bytes <= 0:
            raise HotplugError("section size must be positive")
        self.section_bytes = section_bytes
        self.timings = timings
        #: Sections that are PRESENT or ONLINE; an index missing here is
        #: ABSENT, so the map holds what is attached now, not every
        #: section ever attached.
        self._sections: dict[int, MemorySection] = {}
        self.operations = 0
        # Running state counters: sections only change state through the
        # four operations below, so ``online_bytes``/``present_bytes``
        # stay O(1) instead of rescanning every section per query (the
        # queries sit on the control plane's availability hot path).
        self._online_sections = 0
        self._present_sections = 0

    # -- geometry ----------------------------------------------------------------

    def section_span(self, base: int, size: int) -> range:
        """Section indices covering ``[base, base+size)``.

        Hotplug requires section alignment; misaligned ranges are the
        classic way to corrupt the memory map, so they are rejected.
        """
        if base % self.section_bytes or size % self.section_bytes:
            raise HotplugError(
                f"range [{base:#x}, +{size:#x}) is not aligned to the "
                f"{self.section_bytes >> 20} MiB section size")
        if size <= 0:
            raise HotplugError(f"size must be positive, got {size}")
        first = base // self.section_bytes
        return range(first, first + size // self.section_bytes)

    def section(self, index: int) -> MemorySection:
        """The section at *index*; an ABSENT index reads as a fresh
        ABSENT section, which is not stored."""
        section = self._sections.get(index)
        if section is None:
            return MemorySection(index, self.section_bytes)
        return section

    # -- operations --------------------------------------------------------------------

    def add_memory(self, base: int, size: int) -> float:
        """Register ``[base, base+size)`` as PRESENT; returns latency.

        All-or-nothing: if any covered section is already present the
        operation fails before touching anything.
        """
        span = self.section_span(base, size)
        sections = [self.section(i) for i in span]
        for sec in sections:
            if sec.state is not SectionState.ABSENT:
                raise HotplugError(
                    f"section {sec.index} is already {sec.state.value}")
        for sec in sections:
            sec.transition(SectionState.PRESENT)
            self._sections[sec.index] = sec
        self._present_sections += len(sections)
        self.operations += 1
        return (self.timings.operation_overhead_s
                + len(sections) * self.timings.add_per_section_s)

    def online(self, base: int, size: int) -> float:
        """Online PRESENT sections; returns latency."""
        span = self.section_span(base, size)
        sections = [self.section(i) for i in span]
        for sec in sections:
            if sec.state is not SectionState.PRESENT:
                raise HotplugError(
                    f"cannot online section {sec.index}: {sec.state.value}")
        for sec in sections:
            sec.transition(SectionState.ONLINE)
        self._online_sections += len(sections)
        self.operations += 1
        return (self.timings.operation_overhead_s
                + len(sections) * self.timings.online_per_section_s)

    def offline(self, base: int, size: int) -> float:
        """Offline ONLINE sections (page migration); returns latency."""
        span = self.section_span(base, size)
        sections = [self.section(i) for i in span]
        for sec in sections:
            if sec.state is not SectionState.ONLINE:
                raise HotplugError(
                    f"cannot offline section {sec.index}: {sec.state.value}")
        for sec in sections:
            sec.transition(SectionState.PRESENT)
        self._online_sections -= len(sections)
        self.operations += 1
        return (self.timings.operation_overhead_s
                + len(sections) * self.timings.offline_per_section_s)

    def remove_memory(self, base: int, size: int) -> float:
        """Unregister PRESENT sections back to ABSENT; returns latency."""
        span = self.section_span(base, size)
        sections = [self.section(i) for i in span]
        for sec in sections:
            if sec.state is not SectionState.PRESENT:
                raise HotplugError(
                    f"cannot remove section {sec.index}: {sec.state.value} "
                    f"(offline it first)")
        for sec in sections:
            sec.transition(SectionState.ABSENT)
            del self._sections[sec.index]
        self._present_sections -= len(sections)
        self.operations += 1
        return (self.timings.operation_overhead_s
                + len(sections) * self.timings.remove_per_section_s)

    # -- queries -------------------------------------------------------------------------

    def online_bytes(self) -> int:
        """Bytes currently usable by the buddy allocator."""
        return self._online_sections * self.section_bytes

    def present_bytes(self) -> int:
        """Bytes registered (PRESENT or ONLINE)."""
        return self._present_sections * self.section_bytes

    def sections_in_state(self, state: SectionState) -> list[MemorySection]:
        """Attached sections in *state*; ABSENT sections are not
        stored, so that state always reads empty."""
        return [s for s in self._sections.values() if s.state is state]
