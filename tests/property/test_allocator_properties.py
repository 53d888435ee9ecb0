"""Property-based tests for the segment allocator.

The allocator's invariant set (disjoint spans exactly tiling the
capacity, coalesced free list) must hold under *any* interleaving of
allocations and frees — exactly what hypothesis is for.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import AllocationError
from repro.memory.allocator import SegmentAllocator

CAPACITY = 1 << 20  # 1 MiB play-space keeps shrinking fast
ALIGNMENT = 1 << 12  # 4 KiB


@given(sizes=st.lists(st.integers(1, CAPACITY // 4), min_size=1,
                      max_size=20))
@settings(max_examples=200)
def test_allocations_never_overlap(sizes):
    allocator = SegmentAllocator(CAPACITY, alignment=ALIGNMENT)
    spans = []
    for size in sizes:
        try:
            offset = allocator.allocate(size)
        except AllocationError:
            break
        spans.append((offset, allocator.allocated_spans()))
    live = allocator.allocated_spans()
    for first, second in zip(live, live[1:]):
        assert first.end <= second.base
    allocator.check_invariants()


@given(sizes=st.lists(st.integers(1, CAPACITY // 8), min_size=1,
                      max_size=16))
@settings(max_examples=200)
def test_free_everything_restores_pristine_state(sizes):
    allocator = SegmentAllocator(CAPACITY, alignment=ALIGNMENT)
    offsets = []
    for size in sizes:
        try:
            offsets.append(allocator.allocate(size))
        except AllocationError:
            break
    for offset in offsets:
        allocator.free(offset)
    assert allocator.free_bytes == CAPACITY
    assert allocator.largest_free_span == CAPACITY
    assert allocator.fragmentation == 0.0
    allocator.check_invariants()


@given(data=st.data())
@settings(max_examples=100)
def test_conservation_of_bytes(data):
    allocator = SegmentAllocator(CAPACITY, alignment=ALIGNMENT)
    live = {}
    for _ in range(data.draw(st.integers(1, 30))):
        if live and data.draw(st.booleans()):
            offset = data.draw(st.sampled_from(sorted(live)))
            allocator.free(offset)
            del live[offset]
        else:
            size = data.draw(st.integers(1, CAPACITY // 8))
            try:
                offset = allocator.allocate(size)
            except AllocationError:
                continue
            live[offset] = size
        assert allocator.allocated_bytes + allocator.free_bytes == CAPACITY
    allocator.check_invariants()


@given(data=st.data())
@settings(max_examples=100)
def test_cached_span_statistics_match_the_free_list(data):
    """The largest span is cached against ``version``; after every step
    of a random tape it must equal a fresh scan of the free list."""
    allocator = SegmentAllocator(CAPACITY, alignment=ALIGNMENT)
    live = []
    for _ in range(data.draw(st.integers(1, 40))):
        if live and data.draw(st.booleans()):
            allocator.free(live.pop(data.draw(
                st.integers(0, len(live) - 1))))
        else:
            try:
                live.append(allocator.allocate(
                    data.draw(st.integers(1, CAPACITY // 4))))
            except AllocationError:
                pass
        sizes = [span.size for span in allocator.free_spans()]
        largest = max(sizes, default=0)
        free = sum(sizes)
        assert allocator.largest_free_span == largest
        assert allocator.fragmentation == (
            1.0 - largest / free if free else 0.0)


class AllocatorMachine(RuleBasedStateMachine):
    """Stateful exploration of allocate/free interleavings."""

    def __init__(self):
        super().__init__()
        self.allocator = SegmentAllocator(CAPACITY, alignment=ALIGNMENT)
        self.live: list[int] = []

    @rule(size=st.integers(1, CAPACITY // 4))
    def allocate(self, size):
        try:
            offset = self.allocator.allocate(size)
        except AllocationError:
            return
        assert offset not in self.live
        self.live.append(offset)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        index = data.draw(st.integers(0, len(self.live) - 1))
        offset = self.live.pop(index)
        self.allocator.free(offset)

    @invariant()
    def spans_tile_capacity(self):
        self.allocator.check_invariants()

    @invariant()
    def counts_agree(self):
        assert self.allocator.allocation_count == len(self.live)


TestAllocatorStateMachine = AllocatorMachine.TestCase
