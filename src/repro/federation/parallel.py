"""Parallel federation: one OS process per pod, windows between barriers.

The serial :class:`~repro.federation.controller.FederationController`
interleaves N pods on one DES clock in one Python process — correct,
but the pods' admission pipelines (the bulk of the event count) are
embarrassingly parallel: pods interact **only** over the inter-pod
link, and that link has latency.  This module exploits exactly that:

* each pod becomes a :class:`PodLP` — its own
  :class:`~repro.sim.engine.Simulator` driving its own
  :class:`~repro.cluster.control_plane.ControlPlane` over its own
  :class:`~repro.core.system.DisaggregatedSystem` — optionally in its
  own **spawn**-started OS process (:class:`~repro.sim.parallel.
  ProcessFleet`); ``workers=0`` keeps every pod inline, the serial
  backend;
* the :class:`ParallelFederationController` is the **coordinator**: it
  runs the tenant lifecycles, the :class:`~repro.federation.placer.
  GlobalPlacer`'s two-phase claims, inter-pod migration, re-admission
  after pod loss, and the rebalancer — and talks to pods exclusively
  through the picklable message vocabulary of
  :mod:`repro.federation.messages`, delivered one **sync window**
  (the inter-pod link latency, the protocol's lookahead) after
  sending;
* :func:`~repro.sim.parallel.run_windows` alternates bounded grants
  between the coordinator and the pod fleet (see
  :mod:`repro.sim.parallel` for the conservative-synchronization
  math); the coordinator additionally caps its own window at
  ``first_command_send + 2·lookahead`` so it never outruns a reply.

Every scheduling decision is a pure function of simulator state and
messages are applied in a canonical order, so the run is **event-order
deterministic**: the same seed produces field-for-field identical
:class:`~repro.federation.controller.FederationStats` — same records,
same timestamps, same fingerprint — whether the pods run inline or
across any number of worker processes.

What the parallel semantics changes versus the shared-clock serial
controller (deliberately, physically): coordinator↔pod signalling pays
the link latency each way, so admissions complete ``2·lookahead``
later and the placer scores pods from their **last window barrier**
status (bridged by the placer's own claim ledger) instead of an
instantaneous registry walk.  The rebalancer plans from the same
barrier statuses and the committed-claim footprints.  With the default
10 µs window these shifts are three orders of magnitude below the
millisecond-scale control-plane latencies being measured.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.control_plane import ControlPlane
from repro.cluster.metrics import RequestRecord
from repro.cluster.trace import TenantSpec, TenantTrace, start_arrivals
from repro.core.builder import PodBuilder
from repro.errors import (
    FederationError,
    OrchestrationError,
    ParallelSimError,
    ReproError,
)
from repro.federation.controller import (
    DEFAULT_INTERPOD_LINK_BPS,
    FederationStats,
)
from repro.federation.messages import (
    CompletionReply,
    DrainCmd,
    DrainedReply,
    FailPodCmd,
    FenceCmd,
    PodStatus,
    RestorePodCmd,
    SubmitCmd,
    measure_pod,
)
from repro.federation.migration import MigrationOutcome
from repro.federation.placer import GlobalPlacer
from repro.federation.rebalancer import FederationRebalancer
from repro.orchestration.placement import make_placement_policy
from repro.orchestration.requests import VmAllocationRequest
from repro.sim.control import ControlContext
from repro.sim.engine import Event, ProcessGenerator, Simulator
from repro.sim.parallel import (
    Fleet,
    LpReply,
    WindowRunReport,
    WireMessage,
    make_fleet,
    run_windows,
)
from repro.units import gib, mib, transfer_time

_INF = float("inf")

#: Default inter-pod link latency — the sync window / lookahead of the
#: conservative protocol.  10 µs: a couple of switched packet-network
#: hops between pods, far below the millisecond control-plane latencies
#: the federation measures, far above zero (which would deadlock the
#: protocol).
DEFAULT_SYNC_WINDOW_S = 10e-6


def _check_sync_window(sync_window_s: float) -> float:
    if not (sync_window_s > 0.0):
        raise ParallelSimError(
            f"sync window (inter-pod link latency) must be positive, "
            f"got {sync_window_s}; with zero lookahead neither side "
            f"can ever grant the other a time window")
    if sync_window_s == _INF or sync_window_s != sync_window_s:
        raise ParallelSimError(
            f"sync window must be finite, got {sync_window_s}")
    return sync_window_s


# ---------------------------------------------------------------------------
# the pod logical process (runs inline or inside a worker)
# ---------------------------------------------------------------------------

class PodLP:
    """One pod as a satellite logical process.

    Owns a private simulator, system and control plane; reacts only to
    protocol messages scheduled at their arrival times, and reports
    request completions (plus a barrier :class:`~repro.federation.
    messages.PodStatus` whenever the window processed events) back to
    the coordinator.
    """

    def __init__(self, pod_id: str, system, *, lookahead_s: float,
                 max_batch: int = 4, batch_window_s: float = 0.001,
                 plane_workers: int = 8, offload: bool = True) -> None:
        self.lp_id = pod_id
        self.sim = Simulator()
        self.system = system
        self.plane = ControlPlane(
            system, ctx=ControlContext(sim=self.sim),
            max_batch=max_batch, batch_window_s=batch_window_s,
            workers=plane_workers, offload=offload)
        self.lookahead_s = lookahead_s
        self.alive = True
        self._outbox: list[WireMessage] = []
        self._seq = 0
        #: Commands delivered but not yet replied to.  The pod is
        #: purely reactive — it only ever sends replies — so with no
        #: obligation outstanding it *cannot* send, its influence time
        #: is ``inf``, and its local pipeline events gate nobody.
        self._obligations = 0

    # -- satellite protocol -------------------------------------------------

    def deliver(self, messages: Sequence[WireMessage]) -> None:
        for message in messages:
            delay = message.arrival_s - self.sim.now
            if delay < 0:
                raise ParallelSimError(
                    f"pod {self.lp_id!r} received a message for "
                    f"{message.arrival_s} but its clock is already at "
                    f"{self.sim.now}")
            if isinstance(message.body, (SubmitCmd, DrainCmd)):
                self._obligations += 1  # exactly one reply each
            carrier = self.sim.timeout(delay, message.body)
            carrier.callbacks.append(self._apply)

    def advance(self, horizon_s: float) -> LpReply:
        processed = self.sim.run_window(horizon_s)
        messages, self._outbox = self._outbox, []
        return LpReply(
            messages=messages,
            next_time_s=self.sim.peek(),
            # Only re-measure when something could have changed — the
            # coordinator keeps the previous barrier's copy otherwise.
            status=self.current_status() if processed else None,
            events_processed=processed,
            influence_s=self.sim.peek() if self._obligations else _INF)

    def next_time(self) -> float:
        return self.sim.peek()

    # -- fleet.call() surface ------------------------------------------------

    def current_status(self) -> PodStatus:
        return measure_pod(self.system, self.plane, self.alive)

    def collect_stats(self):
        """The pod's :class:`~repro.cluster.metrics.ControlPlaneStats`
        (plain data), duration stamped with the pod clock's final
        position — a pure function of the barrier schedule, so
        identical on every backend."""
        self.plane.stats.duration_s = self.sim.now
        return self.plane.stats

    # -- command application -------------------------------------------------

    def _send(self, body) -> None:
        if isinstance(body, (CompletionReply, DrainedReply)):
            self._obligations -= 1
        self._seq += 1
        now = self.sim.now
        self._outbox.append(WireMessage(
            lp_id=self.lp_id, sent_s=now,
            arrival_s=now + self.lookahead_s, seq=self._seq, body=body))

    def _apply(self, carrier: Event) -> None:
        body = carrier.value
        if isinstance(body, SubmitCmd):
            self._apply_submit(body)
        elif isinstance(body, DrainCmd):
            self._apply_drain(body)
        elif isinstance(body, FenceCmd):
            try:
                self.system.terminate_vm(body.tenant_id)
            except ReproError:
                pass  # never fully booted here
        elif isinstance(body, FailPodCmd):
            self.alive = False
            self.plane.pause()
        elif isinstance(body, RestorePodCmd):
            self.alive = True
            self.plane.resume()
        else:
            raise ParallelSimError(
                f"pod {self.lp_id!r} received an unknown command "
                f"{type(body).__name__}")

    def _apply_submit(self, command: SubmitCmd) -> None:
        if command.kind == "boot":
            payload = {"request": VmAllocationRequest(
                vm_id=command.tenant_id, vcpus=command.vcpus,
                ram_bytes=command.ram_bytes)}
        elif command.kind == "scale_up":
            payload = {"size_bytes": command.size_bytes}
        elif command.kind == "scale_down":
            payload = {"segment_id": None}
        else:
            payload = {}
        request = self.plane.submit(
            command.kind, command.tenant_id, **payload)

        def completed(_event, request_id=command.request_id,
                      record=request.record) -> None:
            self._send(CompletionReply(
                request_id=request_id,
                tenant_id=record.tenant_id, kind=record.kind,
                ok=record.ok, note=record.note,
                submitted_s=record.submitted_s,
                started_s=record.started_s,
                completed_s=record.completed_s,
                queue_depth_at_submit=record.queue_depth_at_submit))
        request.done.callbacks.append(completed)

    def _apply_drain(self, command: DrainCmd) -> None:
        tail = self.plane.tenant_tail(command.tenant_id)
        if tail is None or tail.processed:
            self._drained(command)
        else:
            tail.callbacks.append(
                lambda _event, c=command: self._drained(c))

    def _drained(self, command: DrainCmd) -> None:
        try:
            vm = self.system.hosting(command.tenant_id).vm
        except OrchestrationError:
            self._send(DrainedReply(
                request_id=command.request_id,
                tenant_id=command.tenant_id, hosted=False))
            return
        self._send(DrainedReply(
            request_id=command.request_id, tenant_id=command.tenant_id,
            hosted=True, ram_bytes=vm.configured_ram_bytes,
            vcpus=vm.vcpus))


def build_pod_lps(*, pod_count: int,
                  racks_per_pod: int = 2,
                  uplinks_per_rack: Optional[int] = None,
                  compute_bricks: int = 2,
                  compute_cores: int = 16,
                  local_memory: int = gib(1),
                  memory_bricks: int = 2,
                  memory_modules: int = 2,
                  module_size: int = gib(4),
                  section_bytes: int = mib(256),
                  placement: str = "pack",
                  lookahead_s: float = DEFAULT_SYNC_WINDOW_S,
                  max_batch: int = 4,
                  batch_window_s: float = 0.001,
                  plane_workers: int = 8,
                  offload: bool = True) -> list[PodLP]:
    """Spawn-safe pod-LP factory: module-level, all-kwargs, builds the
    systems *inside* the calling process (each worker constructs its
    own share — no simulator ever crosses a pipe).  The pod hardware
    mirrors :func:`~repro.federation.controller.build_federation`;
    ``placement`` travels as a *name* and each worker instantiates its
    own policy object (policies carry per-pod hot-brick state)."""
    lps = []
    for index in range(pod_count):
        builder = (PodBuilder(f"pod{index}")
                   .with_racks(racks_per_pod)
                   .with_compute_bricks(compute_bricks,
                                        cores=compute_cores,
                                        local_memory=local_memory)
                   .with_memory_bricks(memory_bricks,
                                       modules=memory_modules,
                                       module_size=module_size)
                   .with_section_size(section_bytes)
                   .with_policy(make_placement_policy(placement))
                   .with_controller_shards(None))
        if uplinks_per_rack is not None:
            builder.with_uplinks(uplinks_per_rack)
        system = builder.build()
        lps.append(PodLP(f"pod{index}", system,
                         lookahead_s=lookahead_s, max_batch=max_batch,
                         batch_window_s=batch_window_s,
                         plane_workers=plane_workers, offload=offload))
    return lps


# ---------------------------------------------------------------------------
# coordinator-side pod handle
# ---------------------------------------------------------------------------

@dataclass
class PodHandle:
    """What the coordinator knows about one pod: its liveness and its
    last barrier status.  The placer and rebalancer consume this
    through the same ``load_snapshot()`` surface as a live
    :class:`~repro.federation.controller.FederatedPod`."""

    pod_id: str
    alive: bool = True
    status: Optional[PodStatus] = None

    def load_snapshot(self) -> PodStatus:
        if self.status is None:
            raise FederationError(
                f"no status for pod {self.pod_id!r} yet")
        return self.status


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------

class ParallelFederationController:
    """Global placement + migration + rebalancing, message-coupled.

    The coordinator is the :class:`~repro.sim.parallel.Hub` of the
    conservative protocol: :meth:`serve_trace` runs the tenant
    lifecycles on the coordinator simulator, exchanging commands and
    replies with the pod fleet at window barriers.
    """

    def __init__(self, fleet: Fleet, pod_ids: Sequence[str], *,
                 placer: Optional[GlobalPlacer] = None,
                 interpod_link_bps: float = DEFAULT_INTERPOD_LINK_BPS,
                 sync_window_s: float = DEFAULT_SYNC_WINDOW_S,
                 rebalancer: Optional[FederationRebalancer] = None
                 ) -> None:
        if not pod_ids:
            raise FederationError("a federation needs at least one pod")
        self.sim = Simulator()
        self.fleet = fleet
        self.lookahead_s = _check_sync_window(sync_window_s)
        self.interpod_link_bps = interpod_link_bps
        self.handles = {pod_id: PodHandle(pod_id) for pod_id in pod_ids}
        for pod_id in pod_ids:
            self.handles[pod_id].status = fleet.call(
                pod_id, "current_status")
        self.placer = placer if placer is not None else GlobalPlacer()
        self.placer.bind(self.handles)
        self.stats = FederationStats()
        self._tenant_pod: dict[str, str] = {}
        self._moving: dict[str, Event] = {}
        self.depart_hooks: list[Callable[[str, str], None]] = []
        self._outboxes: dict[str, list[WireMessage]] = {
            pod_id: [] for pod_id in pod_ids}
        self._out_seq = 0
        self._pending: dict[int, Event] = {}
        self._request_ids = itertools.count()
        self._goal: Optional[Event] = None
        #: The hub-side send cap of the current window (see
        #: :meth:`advance`): once a command is sent at ``t``, this
        #: window must end by ``t + 2·lookahead`` — the earliest its
        #: reply can arrive.
        self._window_cap = _INF
        self.window_report: Optional[WindowRunReport] = None
        self.rebalancer = rebalancer
        if rebalancer is not None:
            rebalancer.federation = self
            self.sim.process(self._rebalance_loop(rebalancer))

    # -- inventory ----------------------------------------------------------

    @property
    def pod_count(self) -> int:
        return len(self.handles)

    def pod_of(self, tenant_id: str) -> str:
        try:
            return self._tenant_pod[tenant_id]
        except KeyError:
            raise FederationError(
                f"no tenant {tenant_id!r} in this federation") from None

    def tenants_on(self, pod_id: str) -> list[str]:
        if pod_id not in self.handles:
            raise FederationError(f"unknown pod {pod_id!r}")
        return sorted(tenant for tenant, pod in self._tenant_pod.items()
                      if pod == pod_id)

    def migration_gate(self, tenant_id: str) -> Optional[Event]:
        return self._moving.get(tenant_id)

    # -- Hub protocol -------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._goal is not None and self._goal.processed

    def next_time(self) -> float:
        return self.sim.peek()

    def take_outboxes(self) -> dict[str, list[WireMessage]]:
        # The send cap protects replies to commands not yet handed to
        # the runner; once drained, the runner folds their arrival
        # times into its influence bound, so the cap resets *here* —
        # not in :meth:`advance`, which may legitimately run more than
        # once per round (the overlapped pre-grant plus the residual).
        self._window_cap = _INF
        drained = {pod_id: messages
                   for pod_id, messages in self._outboxes.items()
                   if messages}
        for pod_id in drained:
            self._outboxes[pod_id] = []
        return drained

    def deliver(self, messages: Sequence[WireMessage]) -> None:
        for message in messages:
            delay = message.arrival_s - self.sim.now
            if delay < 0:
                raise ParallelSimError(
                    f"coordinator received a message for "
                    f"{message.arrival_s} but its clock is already at "
                    f"{self.sim.now}")
            carrier = self.sim.timeout(delay, message.body)
            carrier.callbacks.append(self._receive)

    def note_status(self, lp_id: str, status: PodStatus) -> None:
        self.handles[lp_id].status = status

    def advance(self, horizon_s: float) -> None:
        """Run coordinator events strictly below *horizon_s*, stopping
        early at the goal or at the send cap (first command emitted
        this round + ``2·lookahead`` — beyond that point a reply
        could land in this window's past).

        Called up to twice per round: once with the overlapped
        pre-grant (while the satellites execute their window) and once
        with the residual grant after the barrier.  The residual bound
        may trail the clock the pre-grant already settled at — then
        there is simply nothing left to do this round.
        """
        sim = self.sim
        goal = self._goal
        while not goal.processed:
            cap = self._window_cap
            bound = horizon_s if horizon_s <= cap else cap
            if sim.peek() >= bound:
                if bound != _INF and bound > sim.now:
                    sim.run_window(bound)  # settle the clock
                return
            sim.step()

    # -- messaging ----------------------------------------------------------

    def _post(self, pod_id: str, body) -> None:
        now = self.sim.now
        if self._window_cap == _INF:
            # Stepwise, matching the reply chain's two rounded
            # additions; ``now + 2 * L`` could exceed the actual
            # ``fl(fl(now + L) + L)`` reply arrival by one ulp.
            self._window_cap = (now + self.lookahead_s) + self.lookahead_s
        self._out_seq += 1
        self._outboxes[pod_id].append(WireMessage(
            lp_id=pod_id, sent_s=now,
            arrival_s=now + self.lookahead_s, seq=self._out_seq,
            body=body))

    def _receive(self, carrier: Event) -> None:
        body = carrier.value
        waiter = self._pending.pop(body.request_id, None)
        if waiter is None:
            raise ParallelSimError(
                f"coordinator received a reply to unknown request "
                f"{body.request_id}")
        waiter.succeed(body)

    def _submit_remote(self, pod_id: str, kind: str, tenant_id: str, *,
                       ram_bytes: int = 0, vcpus: int = 0,
                       size_bytes: int = 0) -> Event:
        """Send a :class:`~repro.federation.messages.SubmitCmd`; the
        returned event fires with the :class:`~repro.federation.
        messages.CompletionReply` when it comes back."""
        request_id = next(self._request_ids)
        waiter = self.sim.event()
        self._pending[request_id] = waiter
        self._post(pod_id, SubmitCmd(
            request_id=request_id, kind=kind, tenant_id=tenant_id,
            ram_bytes=ram_bytes, vcpus=vcpus, size_bytes=size_bytes))
        return waiter

    def _drain_remote(self, pod_id: str, tenant_id: str) -> Event:
        request_id = next(self._request_ids)
        waiter = self.sim.event()
        self._pending[request_id] = waiter
        self._post(pod_id, DrainCmd(request_id=request_id,
                                    tenant_id=tenant_id))
        return waiter

    @staticmethod
    def _record_of(reply: CompletionReply) -> RequestRecord:
        return RequestRecord(
            tenant_id=reply.tenant_id, kind=reply.kind,
            submitted_s=reply.submitted_s,
            queue_depth_at_submit=reply.queue_depth_at_submit,
            started_s=reply.started_s, completed_s=reply.completed_s,
            ok=reply.ok, note=reply.note)

    # -- request routing ----------------------------------------------------

    def submit_routed_process(self, kind: str, tenant_id: str,
                              **payload) -> ProcessGenerator:
        """DES process: wait out any in-flight move of the tenant, then
        submit to the pod it landed in and wait for the reply.  The
        parallel counterpart of the serial controller's
        ``submit_process(...)`` + ``yield request.done``; returns the
        :class:`~repro.federation.messages.CompletionReply`."""
        gate = self._moving.get(tenant_id)
        if gate is not None and not gate.triggered:
            yield gate
        pod_id = self.pod_of(tenant_id)
        reply = yield self._submit_remote(pod_id, kind, tenant_id,
                                          **payload)
        if kind == "depart" and reply.ok:
            self._deregister(tenant_id, pod_id)
        return reply

    def _deregister(self, tenant_id: str, pod_id: str) -> None:
        """A served depart ended the tenant's residence on *pod_id* —
        unless a move re-homed it meanwhile (the newer entry wins),
        mirroring the serial controller's depart callback."""
        if self._tenant_pod.get(tenant_id) == pod_id:
            del self._tenant_pod[tenant_id]
            ledger = self.placer.ledger_claim(tenant_id)
            if ledger is not None and ledger.pod_id == pod_id:
                self.placer.forget(tenant_id)
            for hook in self.depart_hooks:
                hook(tenant_id, pod_id)

    # -- migration ----------------------------------------------------------

    def migrate_tenant_process(self, tenant_id: str,
                               target_pod_id: str) -> ProcessGenerator:
        """DES process: move a tenant to another pod — the serial
        two-phase drain/reserve/copy/commit (:mod:`repro.federation.
        migration`), each phase a message exchange."""
        source_id = self.pod_of(tenant_id)
        if target_pod_id not in self.handles:
            raise FederationError(f"unknown pod {target_pod_id!r}")
        if target_pod_id == source_id:
            raise FederationError(
                f"{tenant_id} already lives in {target_pod_id}")
        if tenant_id in self._moving:
            raise FederationError(f"{tenant_id} is already migrating")
        outcome = MigrationOutcome(tenant_id=tenant_id,
                                   source_pod=source_id,
                                   target_pod=target_pod_id)
        started = self.sim.now
        gate = self.sim.event()
        self._moving[tenant_id] = gate
        try:
            # Phase 0 — drain: the source settles in-flight work and
            # reports the exact footprint to copy.
            drained: DrainedReply = yield self._drain_remote(
                source_id, tenant_id)
            if not drained.hosted:
                if self._tenant_pod.get(tenant_id) == source_id:
                    del self._tenant_pod[tenant_id]
                outcome.note = "tenant departed before the move started"
                return outcome
            total_bytes = drained.ram_bytes

            # Phase 1 — reserve in the target pod: ledger claim plus a
            # real boot through its admission pipeline.
            claim = self.placer.reserve(target_pod_id, total_bytes,
                                        drained.vcpus,
                                        tenant_id=tenant_id)
            boot: CompletionReply = yield self._submit_remote(
                target_pod_id, "boot", tenant_id,
                ram_bytes=total_bytes, vcpus=drained.vcpus)
            if not boot.ok:
                self.placer.release(claim)  # rollback: tenant stays home
                self.stats.migration_rollbacks += 1
                outcome.note = (f"target reservation rejected: "
                                f"{boot.note}")
                return outcome
            self.placer.commit(claim)

            # Copy — the footprint crosses the inter-pod link.
            yield self.sim.timeout(
                transfer_time(total_bytes, self.interpod_link_bps))

            # Phase 2 — commit: release the home-pod claim.
            depart: CompletionReply = yield self._submit_remote(
                source_id, "depart", tenant_id)
            if not depart.ok:
                # Keep exactly one live copy: tear the target side down.
                yield self._submit_remote(target_pod_id, "depart",
                                          tenant_id)
                self.stats.migration_rollbacks += 1
                outcome.note = f"source release failed: {depart.note}"
                return outcome
            self._tenant_pod[tenant_id] = target_pod_id
            self.stats.migrations += 1
            self.stats.bytes_migrated += total_bytes
            outcome.bytes_copied = total_bytes
            outcome.committed = True
            return outcome
        finally:
            outcome.latency_s = self.sim.now - started
            del self._moving[tenant_id]
            gate.succeed()

    # -- pod failure and re-admission ---------------------------------------

    def schedule_pod_fault(self, pod_id: str, at_s: float,
                           duration_s: float, *,
                           readmit: bool = True) -> None:
        """Inject a whole-pod outage at *at_s* lasting *duration_s*.

        The coordinator marks the pod dead (the placer stops routing to
        it immediately) and sends :class:`~repro.federation.messages.
        FailPodCmd` — the pod pauses one link latency later, exactly
        like a control-channel loss would propagate.  With *readmit*,
        the committed-claim ledger is replayed to boot the lost
        tenants on surviving pods; repair sends the restore command.
        """
        if pod_id not in self.handles:
            raise FederationError(f"unknown pod {pod_id!r}")
        if not (at_s >= 0) or duration_s <= 0:
            raise FederationError(
                f"bad fault schedule (at={at_s}, "
                f"duration={duration_s})")
        self.sim.process(self._pod_fault(pod_id, at_s, duration_s,
                                         readmit))

    def _pod_fault(self, pod_id: str, at_s: float, duration_s: float,
                   readmit: bool) -> ProcessGenerator:
        yield self.sim.timeout(at_s)
        handle = self.handles[pod_id]
        if not handle.alive:
            return
        handle.alive = False
        self._post(pod_id, FailPodCmd())
        if readmit:
            yield from self.readmit_pod_tenants_process(pod_id)
        yield self.sim.timeout(duration_s)
        handle.alive = True
        self._post(pod_id, RestorePodCmd())

    def readmit_pod_tenants_process(self,
                                    pod_id: str) -> ProcessGenerator:
        """DES process: re-admit a lost pod's tenants elsewhere, in
        tenant-id order from the committed-claim ledger.  Returns
        ``(readmitted, failed)`` tenant-id lists."""
        readmitted: list[str] = []
        failed: list[str] = []
        for claim in self.placer.ledger_for_pod(pod_id):
            new_pod = yield from self.readmit_tenant_process(
                claim.tenant_id)
            if new_pod is None:
                failed.append(claim.tenant_id)
            else:
                readmitted.append(claim.tenant_id)
        return readmitted, failed

    def readmit_tenant_process(self, tenant_id: str) -> ProcessGenerator:
        """DES process: boot a lost tenant's replacement on the best
        surviving pod (mirrors the serial controller: fence the dead
        replica, reserve, boot, commit — all via messages)."""
        claim = self.placer.ledger_claim(tenant_id)
        if claim is None or tenant_id in self._moving:
            return None
        source = self.handles.get(claim.pod_id)
        target = self.placer.place_for_readmission(
            tenant_id, claim.ram_bytes, claim.vcpus)
        if target is None:
            self.stats.readmission_failures += 1
            return None
        gate = self.sim.event()
        self._moving[tenant_id] = gate
        try:
            if source is not None and not source.alive:
                self._post(claim.pod_id, FenceCmd(tenant_id=tenant_id))
            new_claim = self.placer.reserve(
                target, claim.ram_bytes, claim.vcpus,
                tenant_id=tenant_id)
            self._tenant_pod[tenant_id] = target
            boot: CompletionReply = yield self._submit_remote(
                target, "boot", tenant_id,
                ram_bytes=claim.ram_bytes, vcpus=claim.vcpus)
            if not boot.ok:
                self.placer.release(new_claim)
                self._tenant_pod[tenant_id] = claim.pod_id
                self.stats.readmission_failures += 1
                return None
            self.placer.commit(new_claim)  # supersedes the dead entry
            self.stats.readmissions += 1
            return target
        finally:
            del self._moving[tenant_id]
            gate.succeed()

    # -- rebalancing --------------------------------------------------------

    def _rebalance_loop(self,
                        config: FederationRebalancer) -> ProcessGenerator:
        """The rebalancer's periodic pass, planned from barrier
        statuses and committed-claim footprints (the coordinator never
        sees live registries).  Reuses the serial rebalancer's
        configuration and report object."""
        while True:
            yield self.sim.timeout(config.interval_s)
            if self._moving or self._pending:
                continue  # foreground work in flight — not an idle window
            if not all(handle.status is not None and handle.status.idle
                       for handle in self.handles.values()
                       if handle.alive):
                continue
            yield from self._rebalance_pass(config)

    def _rebalance_pass(self,
                        config: FederationRebalancer) -> ProcessGenerator:
        config.report.passes += 1
        for _ in range(config.max_migrations_per_pass):
            plan = self._plan_move(config)
            if plan is None:
                break
            tenant_id, target_pod_id = plan
            try:
                outcome = yield from self.migrate_tenant_process(
                    tenant_id, target_pod_id)
            except ReproError:
                config.report.rollbacks += 1
                break  # plan went stale; re-plan next pass
            if outcome.committed:
                config.report.migrations += 1
                config.report.bytes_drained += outcome.bytes_copied
            else:
                config.report.rollbacks += 1
                break
        return config.report

    def _plan_move(self, config: FederationRebalancer
                   ) -> Optional[tuple[str, str]]:
        """Hot/cold pods from barrier-status utilization; candidate
        footprints from the committed-claim ledger (boot RAM — the
        drain phase measures the exact footprint before any copy)."""
        loads = {pod_id: handle.status.utilization
                 for pod_id, handle in self.handles.items()
                 if handle.alive and handle.status is not None}
        if len(loads) < 2:
            return None
        hot = max(sorted(loads), key=lambda p: loads[p])
        cold = min(sorted(loads), key=lambda p: loads[p])
        if loads[hot] - loads[cold] < config.imbalance_threshold:
            return None
        cold_snapshot = self.placer.snapshot(cold)
        candidates = []
        for tenant_id in self.tenants_on(hot):
            if tenant_id in self._moving:
                continue
            claim = self.placer.ledger_claim(tenant_id)
            if claim is None:
                continue
            candidates.append((claim.ram_bytes, tenant_id, claim.vcpus))
        candidates.sort(key=lambda entry: (entry[0], entry[1]))
        for footprint, tenant_id, vcpus in candidates:
            if self.placer.fits(cold_snapshot, footprint, vcpus):
                return tenant_id, cold
        return None

    # -- tenant lifecycles --------------------------------------------------

    def serve_trace(self, trace: TenantTrace,
                    home_of: Optional[Callable[[TenantSpec], str]] = None
                    ) -> FederationStats:
        """Drive every tenant lifecycle in *trace* to completion under
        conservative window synchronization, then collect the
        federation statistics (pod-level stats fetched from the
        workers)."""
        self._goal = start_arrivals(
            self.sim, trace, lambda spec: self._tenant(spec, home_of))
        self.window_report = run_windows(self, self.fleet,
                                         self.lookahead_s)
        return self._finalize()

    def _finalize(self) -> FederationStats:
        self.stats.duration_s = self.sim.now
        for pod_id in sorted(self.handles):
            self.stats.pod_stats[pod_id] = self.fleet.call(
                pod_id, "collect_stats")
        return self.stats

    def _tenant(self, spec: TenantSpec,
                home_of: Optional[Callable[[TenantSpec], str]]
                ) -> ProcessGenerator:
        home = (home_of(spec) if home_of is not None
                else self.placer.home_pod(spec.tenant_id))
        pod_id = self.placer.place(spec.tenant_id, spec.ram_bytes,
                                   spec.vcpus, home=home)
        claim = self.placer.reserve(pod_id, spec.ram_bytes, spec.vcpus,
                                    tenant_id=spec.tenant_id)
        self._tenant_pod[spec.tenant_id] = pod_id
        boot: CompletionReply = yield self._submit_remote(
            pod_id, "boot", spec.tenant_id,
            ram_bytes=spec.ram_bytes, vcpus=spec.vcpus)
        self.stats.admission_records.append(self._record_of(boot))
        if not boot.ok:
            self.placer.release(claim)
            self.stats.boots_rejected += 1
            del self._tenant_pod[spec.tenant_id]
            return
        self.placer.commit(claim)
        self.stats.boots_admitted += 1
        if pod_id != home:
            self.stats.spills += 1
        booted_at = self.sim.now

        for event in spec.scale_events:
            yield self.sim.timeout(max(
                0.0, booted_at + event.at_s - self.sim.now))
            if event.kind == "up":
                yield from self.submit_routed_process(
                    "scale_up", spec.tenant_id,
                    size_bytes=event.size_bytes)
            else:
                yield from self.submit_routed_process(
                    "scale_down", spec.tenant_id)
        if spec.migrate_at_s is not None:
            yield self.sim.timeout(max(
                0.0, booted_at + spec.migrate_at_s - self.sim.now))
            # A rejected intra-pod migration is fine, as in serial.
            yield from self.submit_routed_process(
                "migrate", spec.tenant_id)
        yield self.sim.timeout(max(
            0.0, booted_at + spec.lifetime_s - self.sim.now))
        yield from self.submit_routed_process("depart", spec.tenant_id)
        self._tenant_pod.pop(spec.tenant_id, None)

    # -- lifecycle of the controller itself ---------------------------------

    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        self.fleet.close()

    def __enter__(self) -> "ParallelFederationController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- determinism fingerprint --------------------------------------------

    def fingerprint(self) -> str:
        """Digest of everything the run measured — see
        :func:`federation_fingerprint`."""
        return federation_fingerprint(self.stats)


def federation_fingerprint(stats: FederationStats) -> str:
    """A stable digest of a federation run's complete observable state.

    Folds in every counter, every admission record and every pod-level
    request record — timestamps via ``repr`` so float identity is
    bit-exact.  Two runs fingerprint equal iff their results are
    field-for-field identical; the parallel backend must produce the
    same digest at every worker count.
    """
    digest = hashlib.sha256()

    def fold(*parts) -> None:
        for part in parts:
            digest.update(repr(part).encode("utf-8"))
            digest.update(b"\x1f")

    fold(stats.spills, stats.boots_admitted, stats.boots_rejected,
         stats.migrations, stats.migration_rollbacks,
         stats.bytes_migrated, stats.readmissions,
         stats.readmission_failures, stats.duration_s)
    for record in stats.admission_records:
        fold(record.tenant_id, record.kind, record.submitted_s,
             record.started_s, record.completed_s, record.ok,
             record.note, record.queue_depth_at_submit)
    for pod_id in sorted(stats.pod_stats):
        pod = stats.pod_stats[pod_id]
        fold(pod_id, pod.duration_s, pod.busy_s, pod.worker_count)
        for record in pod.records:
            fold(record.tenant_id, record.kind, record.submitted_s,
                 record.started_s, record.completed_s, record.ok,
                 record.note, record.queue_depth_at_submit)
    return digest.hexdigest()


def build_parallel_federation(pod_count: int, *,
                              workers: int = 0,
                              sync_window_s: float = DEFAULT_SYNC_WINDOW_S,
                              racks_per_pod: int = 2,
                              uplinks_per_rack: Optional[int] = None,
                              compute_bricks: int = 2,
                              compute_cores: int = 16,
                              local_memory: int = gib(1),
                              memory_bricks: int = 2,
                              memory_modules: int = 2,
                              module_size: int = gib(4),
                              section_bytes: int = mib(256),
                              placement: str = "pack",
                              spill_policy: str = "least-loaded",
                              scoring=None,
                              anti_affinity=None,
                              rebalancer: Optional[
                                  FederationRebalancer] = None,
                              interpod_link_bps: float =
                              DEFAULT_INTERPOD_LINK_BPS,
                              max_batch: int = 4,
                              batch_window_s: float = 0.001,
                              plane_workers: int = 8,
                              offload: bool = True,
                              start_method: str = "spawn"
                              ) -> ParallelFederationController:
    """Assemble N identically-built pods under the parallel federation.

    ``workers=0`` runs every pod inline in this process (the serial
    backend — same barrier schedule, zero IPC); ``workers>=1`` spreads
    the pods round-robin over that many spawn-started OS processes.
    ``plane_workers`` is each pod's *dispatcher* worker count (the
    control-plane concurrency knob, unchanged from the serial
    federation) — not to be confused with ``workers``.
    """
    if pod_count < 1:
        raise FederationError("a federation needs at least one pod")
    _check_sync_window(sync_window_s)
    fleet = make_fleet(workers, start_method=start_method)
    try:
        pod_ids = fleet.build(
            build_pod_lps, pod_count=pod_count,
            racks_per_pod=racks_per_pod,
            uplinks_per_rack=uplinks_per_rack,
            compute_bricks=compute_bricks,
            compute_cores=compute_cores, local_memory=local_memory,
            memory_bricks=memory_bricks,
            memory_modules=memory_modules, module_size=module_size,
            section_bytes=section_bytes, placement=placement,
            lookahead_s=sync_window_s,
            max_batch=max_batch, batch_window_s=batch_window_s,
            plane_workers=plane_workers, offload=offload)
        placer_kwargs = {"spill_policy": spill_policy}
        if scoring is not None:
            placer_kwargs["scoring"] = scoring
        if anti_affinity is not None:
            placer_kwargs["anti_affinity"] = anti_affinity
        return ParallelFederationController(
            fleet, pod_ids, placer=GlobalPlacer(**placer_kwargs),
            interpod_link_bps=interpod_link_bps,
            sync_window_s=sync_window_s, rebalancer=rebalancer)
    except BaseException:
        fleet.close()
        raise
