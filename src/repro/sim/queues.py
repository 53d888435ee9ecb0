"""The DES kernel's pending-event queue.

The :class:`~repro.sim.engine.Simulator` pops pending events in
``(time, sequence)`` order.  That total order is unique
(sequence numbers never repeat), so the queue's internal layout can
never leak into a run: only the order it serves is observable.

:class:`HeapEventQueue` keeps the entries in a binary heap of tuples
(``heapq``): O(log n) per operation, insensitive to the event-time
distribution.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Event

#: An entry as stored in the queue: ``(time, seq, event)``.
#: Tuples compare left-to-right in C, and the unique sequence number
#: guarantees the event object itself is never compared.
Entry = "tuple[float, int, Event]"

_INF = float("inf")


class EventQueue:
    """Contract of the kernel's pending-event structure.

    Entries are pushed with a monotonically increasing *sequence*;
    ``pop()`` removes and returns the next entry in
    ``(time, sequence)`` order (``None`` when empty), and
    ``pop_until(horizon)`` does the same only if that entry's time is
    ``<= horizon``.  ``peek()`` is the time of the next entry (``inf``
    when empty), ``__len__`` counts pending entries and ``peak_size``
    is their high-water mark.  The engine guarantees pushed times never
    precede the time of the last popped entry (no scheduling into the
    past).
    """

    __slots__ = ()


class HeapEventQueue(EventQueue):
    """Binary heap of ``(time, sequence, event)`` tuples."""

    __slots__ = ("_heap", "peak_size")

    def __init__(self) -> None:
        self._heap: list = []
        #: High-water mark of pending entries (the bench's "peak heap").
        self.peak_size = 0

    def push(self, time: float, sequence: int, event: "Event") -> None:
        heap = self._heap
        heappush(heap, (time, sequence, event))
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)

    def pop(self) -> "Optional[Entry]":
        heap = self._heap
        return heappop(heap) if heap else None

    def pop_until(self, horizon: float) -> "Optional[Entry]":
        heap = self._heap
        if heap and heap[0][0] <= horizon:
            return heappop(heap)
        return None

    def peek(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else _INF

    def __len__(self) -> int:
        return len(self._heap)
