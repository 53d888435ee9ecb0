"""Contention primitives built on the DES engine.

Two primitives cover every queueing situation in the library:

* :class:`Resource` — a counted semaphore with a FIFO wait queue.  Used for
  serialized controllers (the SDM-C critical section), switch-port pools and
  memory-controller service slots.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.  Used
  for request queues between software components.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Yield the request to wait for the slot; pass it back to
    :meth:`Resource.release` when done.
    """

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource") -> None:
        super().__init__(sim)
        self.resource = resource


class Resource:
    """A counted resource with *capacity* slots and FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires, with no value, when
        the slot is granted.  Keep the request itself to release it."""
        req = Request(self.sim, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot, waking the next waiter."""
        if request not in self._users:
            raise SimulationError("release of a request that does not hold a slot")
        self._users.discard(request)
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def acquire(self) -> Generator[Event, Any, Request]:
        """Process-style helper: ``req = yield from resource.acquire()``."""
        req = self.request()
        yield req
        return req


class Store:
    """An unbounded FIFO store of items with blocking ``get``.

    ``put`` never blocks (the paper's request queues are unbounded software
    queues); ``get`` returns an event that fires with the next item.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def waiting(self) -> int:
        """Number of blocked ``get`` calls."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Deposit *item*, waking the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item (FIFO order)."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self) -> Optional[Any]:
        """The next item without removing it, or ``None`` when empty."""
        return self._items[0] if self._items else None
