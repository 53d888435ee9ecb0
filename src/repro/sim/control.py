"""Execution contexts for control-plane processes on the DES kernel.

Every orchestration operation in the library exists in two forms:

* a **process generator** (``*_process`` methods) that runs on a
  :class:`~repro.sim.engine.Simulator`, acquires the SDM-C reservation
  critical sections as real :class:`~repro.sim.resources.Resource`
  objects, and charges its latency on the simulated clock — so
  concurrent requests queue and serialize, and queueing delay is
  observable;
* a **synchronous wrapper** (the historical API) that builds a private
  one-shot context, runs the process to completion, and returns its
  result.  By construction the private context has no other traffic, so
  the synchronous path is *zero-contention*: the latencies it reports
  are pure service time with no queueing delay.

:class:`ControlContext` bundles what a control-plane process needs — the
simulator, the reservation critical sections, and a tracer — and
:func:`run_sync` implements the wrapper convention.

The critical sections are **named reservation domains**
(:meth:`ControlContext.domain`): lazily created capacity-1 resources
keyed by name.  The SDM controller
(:class:`~repro.orchestration.sharding.ShardedSdmController`) uses one
domain per shard, so reservations in different shards proceed in
parallel while reservations inside one shard still serialize FIFO.
There is no default domain.
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
        tracer: Records timestamped control-plane events.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim = sim if sim is not None else Simulator()
        self._domains: dict[str, Resource] = {}
        # The clock closes over the simulator, not the context: a
        # closure over ``self`` would make every context a reference
        # cycle that only the cyclic collector frees.
        self.tracer = Tracer(lambda: sim.now)

    @property
    def total_reservation_queue_depth(self) -> int:
        """Waiters across every named domain."""
        depth = 0
        for resource in self._domains.values():
            depth += len(resource._queue)
        return depth

    def domain(self, name: str) -> Resource:
        """The named reservation domain, lazily created on first use.

        Domains model independently serialized controller shards (the
        SDM-C critical sections of §IV.C roles b, c): each is its own
        capacity-1 FIFO resource on this context's simulator, so
        concurrent reserve operations on it serialize with measurable
        queueing delay.
        """
        resource = self._domains.get(name)
        if resource is None:
            resource = Resource(self.sim)
            self._domains[name] = resource
        return resource

    def enter_domain(self, name: str, label: str) -> ProcessGenerator:
        """Acquire the named domain, tracing the queueing delay.

        Process-style helper (``grant = yield from
        ctx.enter_domain(name, label)``): queues FIFO on the domain,
        records the wait under ``sdm.reserve.wait`` with the label
        ``<name>:<label>``, and returns the grant the caller must pass
        to ``ctx.domain(name).release`` (in a ``finally``).
        """
        sim = self.sim
        enqueued = sim._now
        resource = self._domains.get(name)
        if resource is None:
            resource = self.domain(name)
        # Resource.acquire() inlined: one generator frame fewer per grant.
        grant: Request = resource.request()
        yield grant
        self.tracer.record(RESERVE_WAIT, f"{name}:{label}",
                           sim._now - enqueued)
        return grant


def run_sync(process_factory: Callable[[ControlContext],
                                       ProcessGenerator]) -> Any:
    """Run one control process to completion on a private context.

    This is the synchronous compatibility wrapper used by the historical
    call-per-request APIs: *process_factory* receives a fresh
    :class:`ControlContext`, the returned generator is run as the only
    process on the private simulator, and its return value is handed
    back.  With no competing traffic every reservation domain is always
    free, so no queueing delay accrues — the wrapper preserves
    the exact latency accounting of the pre-DES synchronous code.
    """
    ctx = ControlContext()
    completion = ctx.sim.process(process_factory(ctx))
    return ctx.sim.run(until=completion)
