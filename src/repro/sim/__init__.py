"""Discrete-event simulation kernel.

The dReDBox paper evaluated its prototype on real hardware with wall-clock
instrumentation.  This package is the substitute substrate: a small,
deterministic discrete-event simulation (DES) kernel in the style of SimPy.

* :mod:`repro.sim.engine` — the event loop: :class:`Simulator`,
  generator-based :class:`Process` coroutines, timeouts, condition
  events, cancellation and event-object recycling.
* :mod:`repro.sim.queues` — the pending-event queue: a binary heap
  served in ``(time, sequence)`` order, with lazy cancellation.
* :mod:`repro.sim.resources` — contention primitives (:class:`Resource`,
  :class:`Store`) used to model serialized controllers and queues.
* :mod:`repro.sim.rng` — named, reproducible random-number streams.
* :mod:`repro.sim.trace` — structured event tracing and counters.
* :mod:`repro.sim.control` — control-plane execution contexts: the
  shared reservation critical section and the synchronous-wrapper
  convention (``run_sync``).
"""

from repro.sim.control import ControlContext, run_sync
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.queues import EventQueue, HeapEventQueue
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry, stable_stream_seed
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "ControlContext",
    "Event",
    "EventQueue",
    "HeapEventQueue",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "run_sync",
    "stable_stream_seed",
]
