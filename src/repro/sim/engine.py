"""Core discrete-event simulation engine.

The engine follows the classic event-queue design: pending
``(time, sequence, event)`` entries are popped in order and
each popped event runs its callbacks.  Model code is written as
generator functions ("processes") that ``yield`` events; the
:class:`Process` wrapper resumes the generator whenever the yielded
event triggers.

The kernel holds what the library uses: events, relative and
absolute timeouts, process joining, failure propagation and
:class:`AllOf` condition events.  Pending events live in one binary
heap of entry tuples (:class:`~repro.sim.queues.HeapEventQueue`).
``run()`` serves every form of ``until`` through one loop with the
per-event body inlined, and :meth:`Simulator.step` holds the only other
copy of that body (the kernel is a product metric — see
``experiments/kernel_bench.py``).

The ``(time, sequence)`` total order is unique, so a run is fully
determined by its inputs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.queues import HeapEventQueue

_INF = float("inf")


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* once a value (or an
    exception) has been scheduled for it, and *processed* after its
    callbacks have run.  Callbacks receive the event itself.

    Once processed, ``callbacks`` is ``None`` — late registration is a
    bug and fails loudly.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed")

    #: Sentinel distinguishing "no value yet" from an explicit ``None``.
    PENDING = object()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

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
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        if delay:
            sim.schedule(self, delay=delay)
        else:
            # The zero-delay fast path: what schedule() does once its
            # checks pass, which a zero delay always does.
            sim._sequence = sequence = sim._sequence + 1
            sim._queue.push(sim._now + delay, sequence, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fail with *exception* after *delay*."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay=delay)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("processed" if self._processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    def __reduce__(self):
        # Events are process-local by construction: they reference their
        # simulator (whose queue references every other pending event),
        # so a pickled event could neither be detached from its engine
        # nor resurrected in another process.  The parallel
        # federation's message protocol (repro.federation.messages)
        # carries plain dataclasses instead; anything trying to ship an
        # event across a process boundary is a bug — fail loudly.
        raise TypeError(
            f"{type(self).__name__} objects are process-local and "
            "cannot be pickled; cross-process protocols must carry "
            "plain messages (see repro.sim.parallel)")


class Timeout(Event):
    """An event that fires a fixed delay after its creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # ``not (delay >= 0)`` also catches NaN, which compares false
        # against everything and would corrupt the queue order.
        if not (delay >= 0) or delay == _INF:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay}")
        # Event.__init__ and schedule() inlined: the delay is checked
        # above, and timeouts are the kernel's most frequent event.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        sim._sequence = sequence = sim._sequence + 1
        sim._queue.push(sim._now + delay, sequence, self)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator coroutine; also an event (fires on completion).

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds, its value is sent back into the generator; when it
    fails, the exception is thrown into the generator (and considered
    handled if the generator survives the throw).
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process requires a generator, got {type(generator).__name__}")
        # Event.__init__ inlined (a process is started per request).
        self.sim = sim
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self._generator = generator
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- generator driving ----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of *trigger*."""
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
            yielded.callbacks.append(self._resume)
            return


class AllOf(Event):
    """Succeeds when every constituent event has succeeded.

    Fails as soon as any constituent fails, with that event's exception.
    The success value is a dict mapping each event to its value.
    """

    __slots__ = ("_events", "_outstanding")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError(
                    "condition mixes events from different simulators")
        self._outstanding = len(self._events)
        if not self._events:
            self.succeed({})
            return
        observe = self._observe
        for event in self._events:
            if self._triggered:
                # Already decided (an early constituent had failed):
                # never register on the rest — registrations past this
                # point would be the exact leak _detach exists to plug.
                break
            if event._processed:
                observe(event)
            else:
                event.callbacks.append(observe)

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

    def _detach(self) -> None:
        """Unhook from constituents that have not fired.

        Called as soon as the outcome is decided.  Without it, every
        still-pending constituent would keep a reference to this
        condition (and its collected values) until processed — the
        survivors of a failed ``AllOf`` would drag it to end-of-run.
        """
        observe = self._observe
        for event in self._events:
            if not event._processed:
                try:
                    event.callbacks.remove(observe)
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


class Simulator:
    """The event loop: owns the clock and the pending-event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = HeapEventQueue()
        self._sequence = 0
        self._events_processed = 0

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
        """Pending events right now."""
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
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* seconds."""
        return Timeout(self, delay, value)

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
        event = Event(self)
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
        return AllOf(self, events)

    # -- running ----------------------------------------------------------------

    # The event-processing body is inlined into step() and run() to
    # spare the hot loop a method call per event.  Keep the two copies
    # in sync.

    def step(self) -> None:
        """Process exactly one event from the queue."""
        entry = self._queue.pop()
        if entry is None:
            raise SimulationError("simulation queue is empty")
        self._now = entry[0]
        event = entry[2]
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

        One loop serves all three: it pops every event up to a horizon
        (``inf`` unless *until* is a time) and stops early once the
        sentinel event has been processed.  On return the clock rests at
        a finite horizon, or else at the last processed event.
        """
        if isinstance(until, Event):
            if until.sim is not self:
                raise SimulationError("cannot run until a foreign event")
            sentinel, horizon = until, _INF
        else:
            # A sentinel never scheduled: only the horizon stops the loop.
            sentinel = Event(self)
            horizon = _INF if until is None else float(until)
            if not (horizon >= self._now):
                raise SimulationError(
                    f"cannot run until {horizon}; clock is already at "
                    f"{self._now}")
        pop_until = self._queue.pop_until
        count = 0
        try:
            while not sentinel._processed:
                entry = pop_until(horizon)
                if entry is None:
                    break
                self._now = entry[0]
                event = entry[2]
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                count += 1
                if not event._ok and not callbacks:
                    raise event._value
        finally:
            self._events_processed += count
        if sentinel is until:
            if not sentinel._processed:
                raise SimulationError(
                    "simulation ran out of events before the target "
                    "event fired")
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value
        if horizon != _INF:
            self._now = horizon
        return None
