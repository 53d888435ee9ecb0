"""The DES kernel's pending-event queue.

The :class:`~repro.sim.engine.Simulator` pops pending events in
``(time, sequence)`` order.  That total order is unique
(sequence numbers never repeat), so the queue's internal layout can
never leak into a run: only the order it serves is observable.

:class:`HeapEventQueue` keeps the entries in a binary heap of tuples
(``heapq``): O(log n) per operation, insensitive to the event-time
distribution.

Cancellation (:meth:`~repro.sim.engine.Event.cancel`) is lazy: the
queue decrements its live count immediately and drops the entry when it
surfaces, so cancelled events are never processed and never hold up
``run()`` — but no O(n) structure surgery happens on the hot path.
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
    ``pop()`` removes and returns the next live entry in
    ``(time, sequence)`` order (``None`` when empty), and
    ``pop_until(horizon)`` does the same only if that entry's time is
    ``<= horizon``.  Entries whose event has been cancelled are
    discarded silently.  ``peek()`` is the time of the next live entry
    (``inf`` when empty), ``note_cancel(event)`` accounts for a
    cancellation, ``__len__`` counts live entries and ``peak_size`` is
    their high-water mark.  The engine guarantees pushed times never
    precede the time of the last popped entry (no scheduling into the
    past).
    """

    __slots__ = ()


class HeapEventQueue(EventQueue):
    """Binary heap of ``(time, sequence, event)`` tuples."""

    __slots__ = ("_heap", "_live", "peak_size")

    def __init__(self) -> None:
        self._heap: list = []
        self._live = 0
        #: High-water mark of live entries (the bench's "peak heap").
        self.peak_size = 0

    def push(self, time: float, sequence: int, event: "Event") -> None:
        heappush(self._heap, (time, sequence, event))
        live = self._live = self._live + 1
        if live > self.peak_size:
            self.peak_size = live

    def pop(self) -> "Optional[Entry]":
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[2]._cancelled:
                continue
            self._live -= 1
            return entry
        return None

    def pop_until(self, horizon: float) -> "Optional[Entry]":
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                continue
            if head[0] > horizon:
                return None
            self._live -= 1
            return heappop(heap)
        return None

    def peek(self) -> float:
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                heappop(heap)
                continue
            return head[0]
        return _INF

    def note_cancel(self, event: "Event") -> None:
        self._live -= 1

    def __len__(self) -> int:
        return self._live
