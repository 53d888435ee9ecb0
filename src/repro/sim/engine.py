"""Core discrete-event simulation engine.

The engine follows the classic event-queue design: pending
``(time, sequence, event)`` entries are popped in order and
each popped event runs its callbacks.  Model code is written as
generator functions ("processes") that ``yield`` events; the
:class:`Process` wrapper resumes the generator whenever the yielded
event triggers.

The kernel is deliberately small but complete enough for the whole
library: timeouts, process joining, failure propagation, interrupts,
``AnyOf`` / ``AllOf`` condition events, and event cancellation.

Throughput machinery (the kernel is a product metric — see
``experiments/kernel_bench.py``):

* pending events live in one binary heap of entry tuples
  (:class:`~repro.sim.queues.HeapEventQueue`);
* ``run()`` drives a tight inlined loop instead of calling
  :meth:`Simulator.step` per event;
* processed :class:`Timeout`, :class:`Event`, :class:`AllOf` and
  :class:`AnyOf` objects are recycled through per-simulator free-list
  pools when nothing else references them (checked via
  ``sys.getrefcount``), so steady-state workloads allocate almost no
  event objects;
* :meth:`Event.cancel` drops an abandoned scheduled event from the
  queue without processing it, so e.g. losing timeout branches no
  longer ride the queue to end-of-run as tombstones.

Every behaviour above preserves determinism: the
``(time, sequence)`` total order is unique, so any pooling decision
produces bit-identical simulations.
"""

from __future__ import annotations

from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.queues import HeapEventQueue

#: Per-pool cap on recycled event objects (bounds idle pool memory).
POOL_LIMIT = 1024

_INF = float("inf")


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* once a value (or an
    exception) has been scheduled for it, and *processed* after its
    callbacks have run.  Callbacks receive the event itself.  A pending
    or triggered event can be *cancelled*, after which it never
    processes.

    Once processed (or cancelled), ``callbacks`` is ``None`` — late
    registration is a bug and fails loudly.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_cancelled")

    #: Sentinel distinguishing "no value yet" from an explicit ``None``.
    PENDING = object()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    def _reset(self) -> None:
        """Return to the freshly constructed state (pool reuse).

        Recycled events arrive with their (cleared) callbacks list
        still attached — reuse it rather than allocating a fresh one.
        """
        if self.callbacks is None:
            self.callbacks = []
        self._value = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a scheduled outcome."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event outcome; raises if the event is still pending."""
        if self._value is Event.PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to succeed with *value* after *delay*."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if self._cancelled:
            raise SimulationError(f"{self!r} has been cancelled")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fail with *exception* after *delay*."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if self._cancelled:
            raise SimulationError(f"{self!r} has been cancelled")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay=delay)
        return self

    def cancel(self) -> "Event":
        """Withdraw this event: it will never trigger nor process.

        A pending event becomes un-triggerable; a triggered (scheduled)
        event is dropped from the queue without running its callbacks,
        and its waiter references are released immediately instead of
        riding the queue to end-of-run as a tombstone.  Only cancel
        events nothing else is waiting on (e.g. the losing timeout of a
        race this code owns) — a stranded waiter never resumes.

        Cancelling a processed or already cancelled event is an error.
        """
        if self._processed:
            raise SimulationError(
                f"cannot cancel {self!r}: already processed")
        if self._cancelled:
            raise SimulationError(f"{self!r} is already cancelled")
        self._cancelled = True
        if self._triggered:
            self.sim._queue.note_cancel(self)
        self.callbacks = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled else
                 "processed" if self._processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    def __reduce__(self):
        # Events are process-local by construction: they reference their
        # simulator (whose queue references every other pending event)
        # and recycle through per-simulator free-list pools, so a
        # pickled event could neither be detached from its engine nor
        # safely resurrected in another process.  The parallel
        # federation's message protocol (repro.federation.messages)
        # carries plain dataclasses instead; anything trying to ship an
        # event across a process boundary is a bug — fail loudly.
        raise TypeError(
            f"{type(self).__name__} objects are process-local and "
            "cannot be pickled; cross-process protocols must carry "
            "plain messages (see repro.sim.parallel)")


class Timeout(Event):
    """An event that fires a fixed delay after its creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # ``not (delay >= 0)`` also catches NaN, which compares false
        # against everything and would corrupt the queue order.
        if not (delay >= 0) or delay == _INF:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim.schedule(self, delay=delay)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator coroutine; also an event (fires on completion).

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, its value is sent back into the generator; when it
    fails, the exception is thrown into the generator (and considered
    handled if the generator survives the throw).
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process requires a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the generator at the current simulation time
        # (sim.event() draws the carrier from the recycling pool).
        bootstrap = sim.event()
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if (target is not None and target.callbacks
                and self._resume in target.callbacks):
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        carrier = self.sim.event()
        carrier.callbacks.append(self._resume)
        carrier.fail(Interrupt(cause))

    # -- generator driving ----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of *trigger*."""
        self._waiting_on = None
        while True:
            try:
                if trigger._ok:
                    yielded = self._generator.send(
                        None if trigger._value is Event.PENDING else trigger._value)
                else:
                    yielded = self._generator.throw(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupt as exc:
                # An unhandled interrupt terminates the process as a failure.
                self.fail(exc)
                return
            except Exception as exc:
                self.fail(exc)
                return

            if not isinstance(yielded, Event):
                error = SimulationError(
                    f"process yielded {yielded!r}; processes must yield events")
                self._generator.close()
                self.fail(error)
                return
            if yielded.sim is not self.sim:
                error = SimulationError(
                    "process yielded an event bound to a different simulator")
                self._generator.close()
                self.fail(error)
                return

            if yielded._processed:
                # Already-processed events resume the generator immediately,
                # within this same callback, preserving causal time.
                trigger = yielded
                continue
            if yielded._cancelled:
                error = SimulationError(
                    "process yielded a cancelled event, which can never fire")
                self._generator.close()
                self.fail(error)
                return
            self._waiting_on = yielded
            yielded.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Base for events that aggregate the outcome of several events."""

    __slots__ = ("_events", "_outstanding")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._setup(events)

    def _setup(self, events: Iterable[Event]) -> None:
        """Bind to the constituent *events* (construction and pool reuse)."""
        self._events = list(events)
        sim = self.sim
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError(
                    "condition mixes events from different simulators")
            if event._cancelled:
                raise SimulationError(
                    "condition includes a cancelled event, "
                    "which can never fire")
        self._outstanding = len(self._events)
        if not self._events:
            self.succeed({})
            return
        observe = self._observe
        for event in self._events:
            if self._triggered:
                # Already decided (an early constituent had fired):
                # never register on the rest — registrations past this
                # point would be the exact leak _detach exists to plug.
                break
            if event._processed:
                observe(event)
            else:
                event.callbacks.append(observe)

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Unhook from constituents that have not fired.

        Called as soon as the condition's outcome is decided.  Without
        it, every still-pending constituent would keep a reference to
        this condition (and its collected values) until processed —
        losing events of an ``AnyOf`` race would drag the condition to
        end-of-run.
        """
        observe = self._observe
        for event in self._events:
            if not event._processed:
                callbacks = event.callbacks
                if callbacks is not None:
                    try:
                        callbacks.remove(observe)
                    except ValueError:
                        pass
        self._events = []

    def _collect(self) -> dict[Event, Any]:
        """Values of all constituents that have already *occurred*.

        Checks ``_processed`` (the event fired), not ``_triggered`` —
        timeouts are born triggered but have not happened yet.
        """
        return {
            event: event._value
            for event in self._events
            if event._processed and event._ok
        }


class AllOf(_Condition):
    """Succeeds when every constituent event has succeeded.

    Fails as soon as any constituent fails, with that event's exception.
    The success value is a dict mapping each event to its value.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect())
            self._detach()


class AnyOf(_Condition):
    """Succeeds when the first constituent event succeeds.

    Fails only if the *first* event to trigger fails.  The success value is
    a dict of all constituents that had succeeded by that moment.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        self.succeed(self._collect())
        self._detach()


class Simulator:
    """The event loop: owns the clock and the pending-event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = HeapEventQueue()
        self._sequence = 0
        self._events_processed = 0
        # Free lists of processed event objects, keyed by exact type
        # (subclasses like resources.Request are deliberately absent:
        # only types whose lifecycle the kernel fully owns recycle).
        self._pools: dict[type, list] = {
            Timeout: [], Event: [], AllOf: [], AnyOf: []}
        self._timeout_pool = self._pools[Timeout]
        self._event_pool = self._pools[Event]

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far (the bench's events/sec base)."""
        return self._events_processed

    @property
    def queue_peak_size(self) -> int:
        """High-water mark of pending events (the bench's peak queue)."""
        return self._queue.peak_size

    @property
    def queue_size(self) -> int:
        """Pending (live) events right now."""
        return len(self._queue)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered *event* to be processed after *delay*."""
        # ``not (delay >= 0)`` also catches NaN: NaN compares false
        # against everything, so the historical ``delay < 0`` check let
        # it through to silently corrupt the queue's total order.
        if not (delay >= 0):
            if delay != delay:
                raise SimulationError(
                    "cannot schedule at a NaN delay")
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        if delay == _INF:
            raise SimulationError("cannot schedule at an infinite delay")
        self._sequence = sequence = self._sequence + 1
        self._queue.push(self._now + delay, sequence, event)

    # -- event factories --------------------------------------------------------

    def event(self) -> Event:
        """Create a pending event bound to this simulator."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._reset()
            return event
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* seconds."""
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if not (delay >= 0) or delay == _INF:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay}")
        timeout = pool.pop()
        # A pooled Timeout needs no full _reset: it was recycled with a
        # cleared callbacks list attached, ``_triggered``/``_ok`` are
        # still True (a Timeout can neither fail nor recycle cancelled),
        # so only the per-use fields change.
        timeout._processed = False
        timeout._value = value
        timeout.delay = delay
        self._sequence = sequence = self._sequence + 1
        self._queue.push(self._now + delay, sequence, timeout)
        return timeout

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that fires, with *value*, at simulated time
        *when*, exactly.

        ``timeout(when - now)`` fires at the rounded sum
        ``now + (when - now)``, which can miss *when*: from
        ``now = 2**-53`` no delay lands on ``1 + 2**-52``.  Rejects a
        *when* that is NaN, infinite or earlier than now.
        """
        # ``not (when >= now)`` also catches NaN.
        if not (when >= self._now) or when == _INF:
            raise SimulationError(
                f"timeout_at needs a finite time no earlier than now "
                f"({self._now}), got {when}")
        event = self.event()
        event._triggered = True
        event._value = value
        self._sequence = sequence = self._sequence + 1
        self._queue.push(when, sequence, event)
        return event

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a process from *generator*; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of *events* have succeeded."""
        pool = self._pools[AllOf]
        if pool:
            condition = pool.pop()
            condition._reset()
            condition._setup(events)
            return condition
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* succeeds."""
        pool = self._pools[AnyOf]
        if pool:
            condition = pool.pop()
            condition._reset()
            condition._setup(events)
            return condition
        return AnyOf(self, events)

    # -- running ----------------------------------------------------------------

    # The event-processing body is deliberately inlined into step() and
    # each run() loop: one method call per event costs ~15% throughput
    # at kernel_bench scale.  Keep the four copies in sync.

    def step(self) -> None:
        """Process exactly one event from the queue."""
        entry = self._queue.pop()
        if entry is None:
            raise SimulationError("simulation queue is empty")
        self._now = entry[0]
        event = entry[2]
        entry = None  # release the entry tuple so recycling can trigger
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        self._events_processed += 1
        if not event._ok and not callbacks:
            # A failed event nobody waited on would silently swallow the
            # error; surface it instead (mirrors SimPy's behaviour).
            raise event._value
        if getrefcount(event) == 2:
            pool = self._pools.get(type(event))
            if pool is not None and len(pool) < POOL_LIMIT:
                # Hand the cleared callbacks list back to the event so
                # its next _reset (or the pooled-timeout fast path)
                # skips a list allocation.
                callbacks.clear()
                event.callbacks = callbacks
                pool.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue.peek()

    def run_window(self, horizon: float) -> int:
        """Process every event **strictly before** *horizon*.

        The conservative-synchronization primitive
        (:mod:`repro.sim.parallel`): a logical process granted a time
        window ``[now, horizon)`` executes exactly the events inside
        it — an event scheduled *at* the horizon stays pending, because
        a message from another process may still arrive there.  On
        return the clock rests at *horizon* (when finite; an infinite
        grant leaves it at the last processed event), so later
        cross-process deliveries — guaranteed to arrive at or after
        the horizon — can never be scheduled into this window's past.

        Returns the number of events processed.
        """
        if not (horizon >= self._now):
            raise SimulationError(
                f"cannot run a window to {horizon}; clock is already "
                f"at {self._now}")
        peek = self._queue.peek
        step = self.step
        count = self._events_processed
        while peek() < horizon:
            step()
        if horizon != _INF:
            self._now = horizon
        return self._events_processed - count

    def __reduce__(self):
        raise TypeError(
            "Simulator objects are process-local and cannot be "
            "pickled; build one per process instead (see "
            "repro.sim.parallel)")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until the clock reaches that time
          (events scheduled exactly at that time are processed).
        * ``until=<Event>`` — run until that event is processed and return
          its value (re-raising its exception if it failed).
        """
        pools = self._pools
        refcount = getrefcount
        count = 0

        if until is None:
            pop = self._queue.pop
            try:
                while True:
                    entry = pop()
                    if entry is None:
                        return None
                    self._now = entry[0]
                    event = entry[2]
                    entry = None
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    count += 1
                    if not event._ok and not callbacks:
                        raise event._value
                    if refcount(event) == 2:
                        pool = pools.get(type(event))
                        if pool is not None and len(pool) < POOL_LIMIT:
                            callbacks.clear()
                            event.callbacks = callbacks
                            pool.append(event)
            finally:
                self._events_processed += count

        if isinstance(until, Event):
            sentinel = until
            if sentinel.sim is not self:
                raise SimulationError("cannot run until a foreign event")
            pop = self._queue.pop
            try:
                while not sentinel._processed:
                    entry = pop()
                    if entry is None:
                        raise SimulationError(
                            "simulation ran out of events before the "
                            "target event fired")
                    self._now = entry[0]
                    event = entry[2]
                    entry = None
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    count += 1
                    if not event._ok and not callbacks:
                        raise event._value
                    if refcount(event) == 2:
                        pool = pools.get(type(event))
                        if pool is not None and len(pool) < POOL_LIMIT:
                            callbacks.clear()
                            event.callbacks = callbacks
                            pool.append(event)
            finally:
                self._events_processed += count
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        horizon = float(until)
        if not (horizon >= self._now):
            raise SimulationError(
                f"cannot run until {horizon}; clock is already at "
                f"{self._now}")
        pop_until = self._queue.pop_until
        try:
            while True:
                entry = pop_until(horizon)
                if entry is None:
                    break
                self._now = entry[0]
                event = entry[2]
                entry = None
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                count += 1
                if not event._ok and not callbacks:
                    raise event._value
                if refcount(event) == 2:
                    pool = pools.get(type(event))
                    if pool is not None and len(pool) < POOL_LIMIT:
                        callbacks.clear()
                        event.callbacks = callbacks
                        pool.append(event)
        finally:
            self._events_processed += count
        self._now = horizon
        return None
