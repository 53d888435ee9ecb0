"""The event-driven cluster control plane.

The SDM controller is the serialization point of the whole rack
(§IV.C): every allocation passes through its inspect/reserve critical
section.  :class:`ControlPlane` puts that bottleneck on the DES kernel
and serves the requests its callers :meth:`~ControlPlane.submit` —
the federation's tenant lifecycles
(:class:`~repro.federation.controller.Federation`) and the controller
benchmarks' open-loop clients:

* every operation (boot, runtime scale-up/down, migration, departure)
  enters a FIFO **admission queue** and is served by dispatcher workers
  that execute the system's ``*_process`` DES forms, so concurrent
  requests queue on the SDM-C reservation critical section with their
  waiting time accounted;
* dispatchers serve requests in **batches**: the batch holds placement
  work per request but pushes ONE amortized configuration generation
  (``SdmTimings.config_generation_s``) for the whole batch — the
  classic control-plane throughput lever (``max_batch=1`` is the
  per-request baseline);
* with **brick-side completion offload** a dispatcher worker frees its
  slot as soon as every batch member's SDM-side reservation has
  committed; the brick-side remainder (glue programming, kernel
  attach, hypervisor) runs as a detached DES process with the agent's
  acknowledgement firing ``request.done`` — so worker count stops
  bounding throughput and the controller critical section is the only
  serialization left;
* same-tenant requests are never reordered, even with several workers:
  each request gates on its tenant's previous request completing.

The plane owns no background task.  A caller that wants idle-window
pool consolidation installs a
:class:`~repro.cluster.defrag.DefragmentationTask` on the plane's
context itself: ``task.install(plane.ctx, idle_probe=plane.is_idle)``.

Latency, queue depth, utilization and fragmentation are collected in
:class:`~repro.cluster.metrics.ControlPlaneStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.metrics import (
    ControlPlaneStats,
    RequestRecord,
    TimedSample,
)
# The plane no longer uses the three F401 imports, but importing them
# here keeps the order in which ``import repro`` initializes its modules,
# and with it the garbage collector's phase when fedbench's parent forks
# a serve (ROADMAP item 8).  Without them a full collection moves into
# the serve set-up for about half of all hash seeds.
from repro.cluster.trace import TenantSpec, TenantTrace, start_arrivals  # noqa: F401
from repro.errors import OrchestrationError, ReproError
from repro.orchestration.elasticity import ElasticMemoryManager  # noqa: F401
from repro.orchestration.requests import VmAllocationRequest  # noqa: F401
from repro.sim.control import ControlContext
from repro.sim.engine import Event, ProcessGenerator
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.system import DisaggregatedSystem

#: Request kinds whose configuration generation a batch amortizes.
AMORTIZABLE_KINDS = frozenset({"boot", "scale_up"})

#: All request kinds the control plane understands.
REQUEST_KINDS = frozenset(
    {"boot", "scale_up", "scale_down", "migrate", "depart"})


@dataclass
class ClusterRequest:
    """One admitted control-plane request."""

    kind: str
    tenant_id: str
    payload: dict[str, Any] = field(default_factory=dict)
    record: RequestRecord = field(init=False)
    #: Fires, with no value, when the request finishes, served or
    #: rejected; inspect ``record.ok`` to tell which.  In batched mode
    #: this is the *batch* completion (after the shared config push).
    #: None of the three events carries the request: a request must
    #: not reference itself, so it is freed as soon as its holders
    #: drop it.
    done: Event = field(init=False, repr=False)
    #: Fires, with no value, as soon as this request's system mutation
    #: has executed — the same-tenant ordering gate.  Unlike ``done``
    #: it never waits for batch-mates, so two same-tenant requests
    #: sharing a batch cannot deadlock on each other.
    executed: Event = field(init=False, repr=False)
    #: Fires, with no value, as soon as the request's SDM-side
    #: reservation work has committed (everything after is
    #: brick-side).  Pipelines that cannot commit early (their release
    #: comes last) fire it together with ``executed``.  This is what a
    #: dispatcher worker waits for before freeing its slot.
    committed: Event = field(init=False, repr=False)
    #: The ``executed`` event of the same tenant's previous request,
    #: while this request has not yet waited on it.
    _after: Optional[Event] = field(default=None, repr=False)
    result: Any = None


class ControlPlane:
    """Admission queue + batched dispatch over one
    :class:`~repro.core.system.DisaggregatedSystem`."""

    def __init__(self, system: "DisaggregatedSystem", *,
                 max_batch: int = 1,
                 batch_window_s: float = 0.0,
                 workers: int = 1,
                 ctx: Optional[ControlContext] = None) -> None:
        if max_batch < 1:
            raise OrchestrationError("max_batch must be >= 1")
        if batch_window_s < 0:
            raise OrchestrationError("batch window must be >= 0")
        if workers < 1:
            raise OrchestrationError("need >= 1 dispatcher worker")
        self.system = system
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.workers = workers
        #: Per-request mode keeps the single-threaded SDM-C semantics
        #: (config generated under the critical section, per request);
        #: only a real batch amortizes one push over its members.
        self._amortize = max_batch > 1
        # An external context puts this plane on a shared simulator (a
        # federation runs one clock across every pod's plane); each
        # plane still needs its own context so two pods' SDM-C shard
        # domains never alias onto one critical section.
        self.ctx = ctx if ctx is not None else ControlContext()
        self.sim = self.ctx.sim
        self.admission: Store = Store(self.sim)
        self.stats = ControlPlaneStats(worker_count=workers)
        self._tenant_tail: dict[str, Event] = {}
        self._in_service = 0
        #: Tenants whose backing resources are impacted by an active
        #: fault (memory brick death, pod outage) — populated by the
        #: fault-reaction paths, cleared on re-placement or repair.
        self.degraded: set[str] = set()
        #: Pause gate: ``None`` while the plane serves; an untriggered
        #: event while the plane (its pod) is down.  Workers that have
        #: already claimed work park on it, so a dead pod never reads
        #: as idle to the rebalancer/defragmenter.
        self._gate: Optional[Event] = None
        #: Batches whose brick-side tail is still in flight.
        self._detached = 0

        for index in range(workers):
            self.sim.process(self._worker(index))

    # -- admission ----------------------------------------------------------

    def is_idle(self) -> bool:
        """True when no request is queued, being served, or detached."""
        return (self.admission.size == 0 and self._in_service == 0
                and self._detached == 0)

    @property
    def paused(self) -> bool:
        """True while the plane is down (see :meth:`pause`)."""
        return self._gate is not None

    def pause(self) -> None:
        """Stop dispatching: the pod (or its controller) is down.

        Requests keep queueing in admission; workers park before
        serving until :meth:`resume`.  In-flight batches complete —
        failures here are non-preemptive, like the link scheduler's.
        """
        if self._gate is None:
            self._gate = self.sim.event()

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause` (repair)."""
        if self._gate is not None:
            gate, self._gate = self._gate, None
            gate.succeed()

    def tenant_tail(self, tenant_id: str) -> Optional[Event]:
        """The ``executed`` event of *tenant_id*'s most recently
        submitted request while that event has not been processed, or
        ``None`` when the tenant has nothing in flight.

        Inter-pod migration waits on this before copying a tenant out,
        so in-flight same-tenant work always lands before the move.
        The plane forgets a tail once it is processed, so it holds one
        entry per tenant in flight, not one per tenant ever served.
        """
        return self._tenant_tail.get(tenant_id)

    def submit(self, kind: str, tenant_id: str,
               **payload: Any) -> ClusterRequest:
        """Enqueue a request at the current simulated time.

        Must be called at simulation time (from a process or before the
        run starts).  Returns the request; wait on ``request.done`` for
        completion and check ``request.record.ok`` for the outcome.
        """
        if kind not in REQUEST_KINDS:
            raise OrchestrationError(
                f"unknown request kind {kind!r}; known: "
                f"{', '.join(sorted(REQUEST_KINDS))}")
        sim = self.sim
        now = sim._now
        request = ClusterRequest(kind, tenant_id, payload)
        # Control-plane backlog = requests still in the admission store
        # plus requests already claimed by a worker but queued on a
        # SDM-C reservation critical section (a shard domain).
        depth = (self.admission.size
                 + self.ctx.total_reservation_queue_depth)
        request.record = record = RequestRecord(tenant_id, kind, now, depth)
        request.done = Event(sim)
        request.executed = executed = Event(sim)
        request.committed = Event(sim)
        # Same-tenant FIFO: gate on the tenant's previous request having
        # *executed*, so a second worker (or a later slot of the same
        # batch) can never apply same-tenant operations out of order.
        tails = self._tenant_tail
        request._after = tails.get(tenant_id)
        tails[tenant_id] = executed

        def untail(event: Event) -> None:
            if tails.get(tenant_id) is event:
                del tails[tenant_id]
        executed.callbacks.append(untail)
        stats = self.stats
        stats.records.append(record)
        stats.queue_depth_samples.append(TimedSample(now, depth))
        self.admission.put(request)
        return request

    # -- dispatch -----------------------------------------------------------

    def _worker(self, index: int) -> ProcessGenerator:
        while True:
            first = yield self.admission.get()
            # Claimed work makes the plane non-idle immediately — the
            # batch window must not read as an idle window (background
            # defragmentation would start ahead of a pending batch).
            self._in_service += 1
            while self._gate is not None:  # pod down: park, stay busy
                yield self._gate
            batch = [first]
            if (self.batch_window_s > 0
                    and 1 + self.admission.size < self.max_batch):
                # Hold the door briefly so a burst can share one
                # configuration push — but only when the queue cannot
                # already fill the batch.
                yield self.sim.timeout(self.batch_window_s)
            while len(batch) < self.max_batch and self.admission.size:
                batch.append(self.admission.get().value)
            serve_start = self.sim.now
            self._in_service += len(batch) - 1
            try:
                yield from self._serve_batch(batch)
            finally:
                self._in_service -= len(batch)
                self.stats.busy_s += self.sim.now - serve_start

    def _serve_batch(self, batch: list[ClusterRequest]) -> ProcessGenerator:
        # Batch members run concurrently: their reservations still
        # serialize one by one on the SDM-C critical section(s), but
        # the brick-side phases (agent/kernel/hypervisor) overlap,
        # since each executes on its own brick.
        members = [self.sim.process(self._serve_one(request))
                   for request in batch]
        # Brick-side completion offload: hold the slot only until every
        # member's reservation committed (plus the batch's amortized
        # config push — that is controller work); the brick-side tail,
        # ending in the agents' acknowledgement, runs detached.
        yield self.sim.all_of([r.committed for r in batch])
        # One configuration push covers every placement in the batch
        # (role d is a template instantiation; its cost does not scale
        # with the number of segments in the push).  Push only when an
        # amortizable member actually got past its reservation: a
        # member still mid-pipeline committed via on_commit
        # (reservation granted); one already executed must have
        # succeeded.  All-rejected batches push nothing.
        if self._amortize and any(
                r.kind in AMORTIZABLE_KINDS
                and (r.record.ok or not r.executed.triggered)
                for r in batch):
            yield self.sim.timeout(
                self.system.sdm.timings.config_generation_s)
        self._detached += 1
        self.sim.process(self._finish_batch(batch, members))

    def _finish_batch(self, batch: list[ClusterRequest],
                      members: list[Event]) -> ProcessGenerator:
        """Detached tail of a batch: wait for the brick-side work (the
        modeled agent acknowledgement), then complete."""
        try:
            yield self.sim.all_of(members)
            self._complete_batch(batch)
        finally:
            self._detached -= 1

    def _complete_batch(self, batch: list[ClusterRequest]) -> None:
        for request in batch:
            request.record.completed_s = self.sim.now
            request.done.succeed()
        self.stats.fragmentation_samples.append(
            TimedSample(self.sim.now, self._fragmentation()))

    def _serve_one(self, request: ClusterRequest) -> ProcessGenerator:
        if request._after is not None:
            yield request._after
            request._after = None
        request.record.started_s = self.sim.now
        try:
            request.result = yield from self._execute(request)
            request.record.ok = True
        except ReproError as exc:
            request.record.ok = False
            request.record.note = f"{type(exc).__name__}: {exc}"
        request.executed.succeed()
        # Pipelines whose controller work ends the pipeline (release-
        # last kinds) — and any rejected request — commit here at the
        # latest, so a worker never waits forever.
        if not request.committed.triggered:
            request.committed.succeed()

    def _commit_hook(self, request: ClusterRequest):
        """The ``on_commit`` callback handed to the system pipelines."""
        def fire() -> None:
            if not request.committed.triggered:
                request.committed.succeed()
        return fire

    def _execute(self, request: ClusterRequest) -> ProcessGenerator:
        """Run one request through the system's DES pipelines."""
        charge_config = not (self._amortize
                             and request.kind in AMORTIZABLE_KINDS)
        on_commit = self._commit_hook(request)
        if request.kind == "boot":
            info = yield from self.system.boot_vm_process(
                self.ctx, request.payload["request"],
                charge_config=charge_config, on_commit=on_commit)
            return info
        if request.kind == "scale_up":
            result = yield from self.system.scale_up_process(
                self.ctx, request.tenant_id,
                request.payload["size_bytes"],
                charge_config=charge_config, on_commit=on_commit)
            return result
        if request.kind == "scale_down":
            segment_id = request.payload.get("segment_id")
            if segment_id is None:
                segment_id = self._resolve_scale_down_segment(request)
            steps = yield from self.system.scale_down_process(
                self.ctx, request.tenant_id, segment_id)
            return steps
        if request.kind == "migrate":
            target = self._resolve_migration_target(request)
            if target is None:
                raise OrchestrationError(
                    f"no migration target for {request.tenant_id}")
            report = yield from self.system.migrate_vm_process(
                self.ctx, request.tenant_id, target,
                on_commit=on_commit)
            return report
        # depart
        latency = yield from self.system.terminate_vm_process(
            self.ctx, request.tenant_id)
        return latency

    def _resolve_scale_down_segment(self, request: ClusterRequest) -> str:
        """Pick the segment to return at serve time (LIFO).

        A ``scale_down`` submitted without ``segment_id`` returns the
        tenant's most recently attached runtime segment *as of
        execution*.  Submit-time ids go stale when a federation moves
        the tenant to another pod between submission and service (the
        move folds runtime growth into the re-homed boot footprint and
        later scale-ups mint fresh ids), so callers that may be
        re-homed resolve late instead — and a tenant with no runtime
        segment left gets a clean rejection rather than a stale-id
        error against the wrong pod.
        """
        hosted = self.system.hosting(request.tenant_id)
        stack = self.system.stack(hosted.brick_id)
        attached = [s for s in stack.scaleup.attached_segments()
                    if s.vm_id == request.tenant_id]
        if not attached:
            raise OrchestrationError(
                f"{request.tenant_id} has no runtime segment to return")
        return attached[-1].segment_id

    def _resolve_migration_target(self,
                                  request: ClusterRequest) -> Optional[str]:
        """Pick a destination brick at serve time (load has moved since
        submission); an explicit ``target_brick_id`` payload wins."""
        explicit = request.payload.get("target_brick_id")
        if explicit:
            return explicit
        hosted = self.system.hosting(request.tenant_id)
        vm = hosted.vm
        candidates = [
            c for c in self.system.sdm.registry.compute_availability()
            if c.brick_id != hosted.brick_id and c.free_cores >= vm.vcpus]
        if not candidates:
            return None
        candidates.sort(key=lambda c: (not c.powered, -c.free_cores,
                                       c.brick_id))
        return candidates[0].brick_id

    def _fragmentation(self) -> float:
        """Mean free-space fragmentation across healthy memory bricks,
        over the registry's per-brick list."""
        return self.system.sdm.registry.mean_fragmentation()

    # -- failure reactions --------------------------------------------------

    def impacted_by_memory_brick(self, brick_id: str) -> list[str]:
        """Tenants holding at least one segment on *brick_id*, sorted."""
        return sorted({s.vm_id
                       for s in self.system.sdm.segments_on(brick_id)
                       if s.vm_id})

    def handle_memory_brick_failure(self, brick_id: str) -> list[str]:
        """Synchronous part of a memory-brick death.

        The brick leaves the placement pool and every tenant backed by
        it is marked degraded; returns those tenants.  The self-healing
        tail — re-placing the stranded segments — is
        :meth:`evacuate_memory_brick_process`; without it the tenants
        stay degraded until the brick repairs
        (:meth:`handle_memory_brick_repair`).
        """
        impacted = self.impacted_by_memory_brick(brick_id)
        self.system.sdm.registry.mark_memory_failed(brick_id)
        self.degraded.update(impacted)
        return impacted

    def handle_memory_brick_repair(self, brick_id: str) -> list[str]:
        """Return a repaired brick to service; un-degrades its tenants
        (those not already re-placed elsewhere).  Returns the tenants
        cleared."""
        self.system.sdm.registry.restore_memory(brick_id)
        cleared = [t for t in self.impacted_by_memory_brick(brick_id)
                   if t in self.degraded]
        self.degraded.difference_update(cleared)
        return cleared

    def evacuate_memory_brick_process(self, brick_id: str
                                      ) -> ProcessGenerator:
        """DES process: re-place every segment off a failed brick.

        The self-healing reaction to :meth:`handle_memory_brick_failure`
        — the controller relocates each stranded segment onto a healthy
        brick (:meth:`~repro.orchestration.sdm_controller.SdmController.
        evacuate_process`; two-phase across shards on a sharded
        controller), and the tenants whose segments all landed leave
        ``degraded``.  Returns ``(moved, stranded)`` segment-id lists;
        stranded segments (no healthy brick fits) leave their tenants
        degraded.
        """
        sdm = self.system.sdm
        impacted_before = self.impacted_by_memory_brick(brick_id)
        moved, stranded = yield from sdm.evacuate_process(
            self.ctx, sdm.segments_on(brick_id),
            lambda candidate, _segment: candidate.brick_id != brick_id)
        # A tenant this brick degraded recovers once none of its
        # segments remain stranded on it; tenants degraded by other
        # active faults are left alone.
        still_impacted = set(self.impacted_by_memory_brick(brick_id))
        self.degraded.difference_update(
            t for t in impacted_before if t not in still_impacted)
        return moved, stranded

    # -- unit-test helper ---------------------------------------------------

    def drain(self) -> ControlPlaneStats:
        """Run until all submitted work is served (unit-test helper).

        Never returns while a periodic task (a defragmentation pass
        timer) shares the plane's clock: the event heap never empties.
        """
        self.sim.run()
        self.stats.duration_s = self.sim.now
        return self.stats
