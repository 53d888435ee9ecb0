"""First-fit segment allocation on a dMEMBRICK.

The dMEMBRICK provides "a large and flexible pool of memory resources that
can be partitioned and (re)distributed among all processing nodes" (§II).
The allocator is the partitioning mechanism: a classic first-fit free list
over the brick's byte range with immediate coalescing on free, plus the
occupancy/fragmentation statistics the orchestrator's placement policy
consumes.
"""

from __future__ import annotations

import bisect
import operator
from typing import Callable, Optional

from repro.errors import AllocationError
from repro.memory.address import AddressRange, align_up


class SegmentAllocator:
    """First-fit offset allocator with coalescing over ``[0, capacity)``."""

    def __init__(self, capacity_bytes: int, alignment: int = 1) -> None:
        if capacity_bytes <= 0:
            raise AllocationError(
                f"capacity must be positive, got {capacity_bytes}")
        if alignment <= 0:
            raise AllocationError(f"alignment must be positive, got {alignment}")
        self.capacity_bytes = capacity_bytes
        self.alignment = alignment
        #: Lifecycle gate: a brick in ``cleaning``/``maintenance`` sets
        #: this False and every grant raises, regardless of free space.
        #: Draining bricks stay accepting so rollbacks can restore
        #: evacuated segments to their original offsets.
        self.accepting = True
        #: Sorted, disjoint, coalesced free spans.
        self._free: list[AddressRange] = [AddressRange(0, capacity_bytes)]
        self._allocated: dict[int, AddressRange] = {}
        #: Running total of allocated span sizes, so the occupancy
        #: statistics the placement policies poll per decision are O(1)
        #: instead of rescanning every live allocation.
        self._allocated_bytes = 0
        #: Mutation counter, bumped by allocate/free, the only writers
        #: of the free list.  The largest free span below is cached
        #: against it.
        self.version = 0
        self._largest_span = (0, capacity_bytes)  # (version, size)
        #: Called after every allocate and free; the registry installs
        #: its brick's change callback here (``None`` when unwatched).
        self.on_change: Optional[Callable[[], None]] = None

    # -- allocation --------------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Claim *size* bytes (padded to alignment); returns the offset.

        Raises :class:`AllocationError` when no single free span fits —
        callers distinguishing exhaustion from fragmentation can compare
        :attr:`free_bytes` with the request.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        if not self.accepting:
            raise AllocationError(
                "allocator is not accepting grants (brick lifecycle is "
                "cleaning/maintenance)")
        padded = align_up(size, self.alignment)
        for index, span in enumerate(self._free):
            if span.size >= padded:
                offset = span.base
                remainder = span.size - padded
                if remainder:
                    self._free[index] = AddressRange(span.base + padded, remainder)
                else:
                    del self._free[index]
                self._allocated[offset] = AddressRange(offset, padded)
                self._allocated_bytes += padded
                self.version += 1
                if self.on_change is not None:
                    self.on_change()
                return offset
        if self.free_bytes >= padded:
            raise AllocationError(
                f"{padded} bytes free in total but fragmented; largest span "
                f"is {self.largest_free_span} bytes")
        raise AllocationError(
            f"out of capacity: requested {padded}, free {self.free_bytes}")

    def free(self, offset: int) -> int:
        """Return the span at *offset* to the pool; returns its size."""
        if offset not in self._allocated:
            raise AllocationError(f"offset {offset:#x} is not allocated")
        span = self._allocated.pop(offset)
        self._insert_coalesced(span)
        self._allocated_bytes -= span.size
        self.version += 1
        if self.on_change is not None:
            self.on_change()
        return span.size

    def _insert_coalesced(self, span: AddressRange) -> None:
        """Insert *span* into the sorted free list, merging neighbours.

        The free list is sorted and coalesced, so only the spans
        immediately before and after the insertion point can touch the
        new one: an O(log n) bisect finds them, then a single slice
        assignment splices the (possibly merged) span in.
        """
        base, end = span.base, span.end
        index = bisect.bisect_right(self._free, base,
                                    key=operator.attrgetter("base"))
        prev_span = self._free[index - 1] if index > 0 else None
        next_span = self._free[index] if index < len(self._free) else None
        if ((prev_span is not None and prev_span.end > base)
                or (next_span is not None and next_span.base < end)):
            bad = prev_span if (prev_span is not None
                                and prev_span.end > base) else next_span
            raise AllocationError(
                f"double free: [{span.base:#x},{span.end:#x}) intersects "
                f"free span [{bad.base:#x},{bad.end:#x})")
        start, stop = index, index
        if prev_span is not None and prev_span.end == base:
            base = prev_span.base
            start -= 1
        if next_span is not None and next_span.base == end:
            end = next_span.end
            stop += 1
        self._free[start:stop] = [AddressRange(base, end - base)]

    # -- statistics -------------------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._allocated_bytes

    @property
    def allocation_count(self) -> int:
        return len(self._allocated)

    @property
    def largest_free_span(self) -> int:
        """Size of the biggest contiguous free span (0 when full),
        rescanned only after the free list changed."""
        version, size = self._largest_span
        if version != self.version:
            size = max((span.size for span in self._free), default=0)
            self._largest_span = (self.version, size)
        return size

    @property
    def utilization(self) -> float:
        """Allocated fraction of capacity, in ``[0, 1]``."""
        return self.allocated_bytes / self.capacity_bytes

    @property
    def fragmentation(self) -> float:
        """``1 - largest_free/free`` — 0 when free space is contiguous."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - (self.largest_free_span / free)

    def free_spans(self) -> list[AddressRange]:
        """The free list (copy), sorted by base."""
        return list(self._free)

    def allocated_spans(self) -> list[AddressRange]:
        """All live allocations, sorted by base."""
        return sorted(self._allocated.values())

    def check_invariants(self) -> None:
        """Raise :class:`AllocationError` if internal state is corrupt.

        Verifies that free and allocated spans are disjoint, sorted and
        exactly tile the capacity.  Used by property-based tests.
        """
        spans = sorted(self._free + list(self._allocated.values()))
        cursor = 0
        for span in spans:
            if span.base < cursor:
                raise AllocationError(
                    f"overlapping spans at {span.base:#x} (cursor {cursor:#x})")
            cursor = span.end
        if cursor > self.capacity_bytes:
            raise AllocationError(
                f"spans exceed capacity: {cursor:#x} > {self.capacity_bytes:#x}")
        covered = sum(span.size for span in spans)
        if covered != self.capacity_bytes:
            raise AllocationError(
                f"spans cover {covered} of {self.capacity_bytes} bytes")
        # Free list must be coalesced: no two adjacent free spans.
        for left, right in zip(self._free, self._free[1:]):
            if left.end == right.base:
                raise AllocationError(
                    f"uncoalesced free spans at {left.end:#x}")
