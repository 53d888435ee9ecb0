"""Execution contexts for control-plane processes on the DES kernel.

Every orchestration operation in the library exists in two forms:

* a **process generator** (``*_process`` methods) that runs on a
  :class:`~repro.sim.engine.Simulator`, acquires the SDM-C reservation
  critical section as a real :class:`~repro.sim.resources.Resource`, and
  charges its latency on the simulated clock — so concurrent requests
  queue and serialize, and queueing delay is observable;
* a **synchronous wrapper** (the historical API) that spins up a private
  one-shot context, runs the process to completion, and returns its
  result.  By construction the private context has no other traffic, so
  the synchronous path is *zero-contention*: the latencies it reports
  are pure service time with no queueing delay.

:class:`ControlContext` bundles what a control-plane process needs — the
simulator, the shared reservation critical section, and a tracer — and
:func:`run_sync` implements the wrapper convention.

A context also hosts **named reservation domains** (:meth:`ControlContext.domain`):
lazily created capacity-1 resources keyed by name.  A sharded SDM
controller (:class:`~repro.orchestration.sharding.ShardedSdmController`)
uses one domain per shard, so reservations in different shards proceed
in parallel while reservations inside one shard still serialize FIFO.
The legacy ``ctx.reservation`` attribute remains the default
(un-sharded) domain.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import ProcessGenerator, Simulator
from repro.sim.resources import Request, Resource
from repro.sim.trace import Tracer

#: Trace category under which reservation queueing delay is recorded.
RESERVE_WAIT = "sdm.reserve.wait"


class ControlContext:
    """Shared state of control-plane processes on one simulator.

    Attributes:
        sim: The discrete-event simulator the processes run on.
        reservation: The SDM-C critical section (§IV.C roles b, c):
            capacity-1 by default, so concurrent reserve operations
            serialize in FIFO order with measurable queueing delay.
        tracer: Records timestamped control-plane events.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 reservation_capacity: int = 1,
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.reservation = Resource(self.sim,
                                    capacity=reservation_capacity)
        self._domains: dict[str, Resource] = {}
        self.tracer = tracer if tracer is not None else Tracer(
            lambda: self.sim.now)

    @property
    def reservation_queue_depth(self) -> int:
        """Requests currently waiting for the default critical section."""
        return self.reservation.queue_length

    @property
    def total_reservation_queue_depth(self) -> int:
        """Waiters across the default domain and every named domain."""
        return (self.reservation.queue_length
                + sum(r.queue_length for r in self._domains.values()))

    def domain(self, name: str, capacity: int = 1) -> Resource:
        """The named reservation domain, lazily created on first use.

        Domains model independently serialized controller shards: each
        is its own capacity-1 (by default) FIFO resource on this
        context's simulator.  The *capacity* argument only applies on
        creation; later calls return the existing resource.
        """
        resource = self._domains.get(name)
        if resource is None:
            resource = Resource(self.sim, capacity=capacity)
            self._domains[name] = resource
        return resource

    def domain_names(self) -> list[str]:
        """Names of every domain created on this context, sorted."""
        return sorted(self._domains)

    def enter_reservation(self, label: str) -> ProcessGenerator:
        """Acquire the critical section, tracing the queueing delay.

        Process-style helper (``grant = yield from
        ctx.enter_reservation(label)``): queues FIFO on the
        reservation, records the wait under ``sdm.reserve.wait`` with
        *label*, and returns the grant the caller must pass to
        ``ctx.reservation.release`` (in a ``finally``).
        """
        enqueued = self.sim.now
        grant: Request = yield from self.reservation.acquire()
        self.tracer.record(RESERVE_WAIT, label, self.sim.now - enqueued)
        return grant

    def enter_domain(self, name: str, label: str) -> ProcessGenerator:
        """Acquire the named domain, tracing the wait like
        :meth:`enter_reservation` (label ``<name>:<label>``)."""
        enqueued = self.sim.now
        grant: Request = yield from self.domain(name).acquire()
        self.tracer.record(RESERVE_WAIT, f"{name}:{label}",
                           self.sim.now - enqueued)
        return grant

    @classmethod
    def ephemeral(cls) -> "ControlContext":
        """A private context for one synchronous (zero-contention) call."""
        return cls()


def run_sync(process_factory: Callable[[ControlContext],
                                       ProcessGenerator]) -> Any:
    """Run one control process to completion on a private context.

    This is the synchronous compatibility wrapper used by the historical
    call-per-request APIs: *process_factory* receives a fresh
    :class:`ControlContext`, the returned generator is run as the only
    process on the private simulator, and its return value is handed
    back.  With no competing traffic the reservation critical section is
    always free, so no queueing delay accrues — the wrapper preserves
    the exact latency accounting of the pre-DES synchronous code.
    """
    ctx = ControlContext.ephemeral()
    completion = ctx.sim.process(process_factory(ctx))
    return ctx.sim.run(until=completion)
