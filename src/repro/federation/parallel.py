"""Parallel federation: the coordinator over the wire port.

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
* the :class:`ParallelFederationController` is the shared coordinator
  (:class:`~repro.federation.controller.Federation`: tenant
  lifecycles, the :class:`~repro.federation.placer.GlobalPlacer`'s
  two-phase claims, inter-pod migration and the rebalancer) over the
  **wire port**: its port methods speak the picklable message
  vocabulary of :mod:`repro.federation.messages`, delivered one
  **sync window** (the inter-pod link latency, the protocol's
  lookahead) after sending;
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

What the parallel semantics changes versus the direct port of the
shared-clock serial controller (deliberately, physically): each port
call pays the link latency each way, so admissions complete
``2·lookahead`` later; the placer scores pods from their **last window
barrier** status (bridged by the placer's own claim ledger) instead of
an instantaneous registry read; and the rebalancer plans from the same
barrier statuses and the committed-claim footprints.  With the default
10 µs window these shifts are three orders of magnitude below the
millisecond-scale control-plane latencies being measured.  The wire
port carries no pod fault: failure injection, re-admission and
maintenance drains reach into pod internals and run on the serial
backend only.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.control_plane import ControlPlane
from repro.cluster.metrics import RequestRecord
from repro.cluster.trace import TenantSpec, TenantTrace, start_arrivals
from repro.errors import FederationError, OrchestrationError, ParallelSimError
from repro.federation.controller import (
    DEFAULT_INTERPOD_LINK_BPS,
    PLANE_WORKERS,
    Federation,
    FederationStats,
    build_pod_system,
)
from repro.federation.messages import (
    CompletionReply,
    DrainCmd,
    DrainedReply,
    PodStatus,
    SubmitCmd,
    measure_pod,
    plane_payload,
)
from repro.federation.placer import GlobalPlacer
from repro.federation.rebalancer import FederationRebalancer
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
                 max_batch: int = 4, batch_window_s: float = 0.001) -> None:
        self.lp_id = pod_id
        self.sim = Simulator()
        self.system = system
        self.plane = ControlPlane(
            system, ctx=ControlContext(sim=self.sim),
            max_batch=max_batch, batch_window_s=batch_window_s,
            workers=PLANE_WORKERS)
        self.lookahead_s = lookahead_s
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
        return measure_pod(self.system, self.plane)

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
        else:
            raise ParallelSimError(
                f"pod {self.lp_id!r} received an unknown command "
                f"{type(body).__name__}")

    def _apply_submit(self, command: SubmitCmd) -> None:
        request = self.plane.submit(
            command.kind, command.tenant_id,
            **plane_payload(command.kind, command.tenant_id,
                            command.ram_bytes, command.vcpus,
                            command.size_bytes))

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
                  lookahead_s: float = DEFAULT_SYNC_WINDOW_S,
                  max_batch: int = 4,
                  batch_window_s: float = 0.001,
                  **hardware) -> list[PodLP]:
    """Spawn-safe pod-LP factory: module-level, all-kwargs, builds the
    systems *inside* the calling process (each worker constructs its
    own share — no simulator ever crosses a pipe) with
    :func:`~repro.federation.controller.build_pod_system`, which takes
    the *hardware* keywords."""
    return [PodLP(f"pod{index}", build_pod_system(index, **hardware),
                  lookahead_s=lookahead_s, max_batch=max_batch,
                  batch_window_s=batch_window_s)
            for index in range(pod_count)]


# ---------------------------------------------------------------------------
# coordinator-side pod handle
# ---------------------------------------------------------------------------

@dataclass
class PodHandle:
    """What the coordinator knows about one pod: its flags and its
    last barrier status.  The placer and rebalancer consume this
    through the same ``alive``/``draining``/``load_snapshot()`` surface
    as a live :class:`~repro.federation.controller.FederatedPod`."""

    pod_id: str
    status: PodStatus
    alive: bool = True
    draining: bool = False

    def load_snapshot(self) -> PodStatus:
        return self.status


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------

class ParallelFederationController(Federation):
    """The coordinator over the wire port, message-coupled to its pods.

    It is also the :class:`~repro.sim.parallel.Hub` of the
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
        self.fleet = fleet
        self.lookahead_s = _check_sync_window(sync_window_s)
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
        pods = {pod_id: PodHandle(pod_id,
                                  fleet.call(pod_id, "current_status"))
                for pod_id in pod_ids}
        super().__init__(Simulator(), pods, placer=placer,
                         interpod_link_bps=interpod_link_bps,
                         rebalancer=rebalancer)

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
        self.pods[lp_id].status = status

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

    def _command(self, pod_id: str, command) -> Event:
        """Send a command that expects one reply; the returned event
        fires with that reply when it comes back."""
        waiter = self.sim.event()
        self._pending[command.request_id] = waiter
        self._post(pod_id, command)
        return waiter

    @staticmethod
    def _record_of(reply: CompletionReply) -> RequestRecord:
        return RequestRecord(
            tenant_id=reply.tenant_id, kind=reply.kind,
            submitted_s=reply.submitted_s,
            queue_depth_at_submit=reply.queue_depth_at_submit,
            started_s=reply.started_s, completed_s=reply.completed_s,
            ok=reply.ok, note=reply.note)

    # -- the wire port ------------------------------------------------------

    def _submit_to(self, pod_id: str, kind: str, tenant_id: str,
                   ram_bytes: int = 0, vcpus: int = 0,
                   size_bytes: int = 0) -> ProcessGenerator:
        reply = yield self._command(pod_id, SubmitCmd(
            request_id=next(self._request_ids), kind=kind,
            tenant_id=tenant_id, ram_bytes=ram_bytes, vcpus=vcpus,
            size_bytes=size_bytes))
        return self._record_of(reply)

    def _drain(self, pod_id: str, tenant_id: str) -> ProcessGenerator:
        drained: DrainedReply = yield self._command(pod_id, DrainCmd(
            request_id=next(self._request_ids), tenant_id=tenant_id))
        return (drained.ram_bytes, drained.vcpus) if drained.hosted else None

    def _footprint(self, pod_id: str,
                   tenant_id: str) -> Optional[tuple[int, int]]:
        # The coordinator never sees a live registry: plan from the
        # committed claim (boot RAM); the drain phase measures the
        # exact footprint before any copy.
        claim = self.placer.ledger_claim(tenant_id)
        return None if claim is None else (claim.ram_bytes, claim.vcpus)

    def is_idle(self) -> bool:
        """True when no move or reply is pending and every live pod was
        idle at its last barrier."""
        return (not self._moving and not self._pending
                and all(pod.status.idle
                        for pod in self.pods.values() if pod.alive))

    # -- serving ------------------------------------------------------------

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
        for pod_id in sorted(self.pods):
            self.stats.pod_stats[pod_id] = self.fleet.call(
                pod_id, "collect_stats")
        return self.stats

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
                              spill_policy: str = "least-loaded",
                              anti_affinity=None,
                              rebalancer: Optional[
                                  FederationRebalancer] = None,
                              interpod_link_bps: float =
                              DEFAULT_INTERPOD_LINK_BPS,
                              max_batch: int = 4,
                              batch_window_s: float = 0.001,
                              start_method: str = "spawn",
                              **hardware) -> ParallelFederationController:
    """Assemble N identically-built pods (the *hardware* keywords of
    :func:`~repro.federation.controller.build_pod_system`) under the
    parallel federation.

    ``workers=0`` runs every pod inline in this process (the serial
    backend — same barrier schedule, zero IPC); ``workers>=1`` spreads
    the pods round-robin over that many spawn-started OS processes.
    Each pod's control plane runs :data:`~repro.federation.controller.
    PLANE_WORKERS` dispatcher workers, as on the serial backend.
    """
    if pod_count < 1:
        raise FederationError("a federation needs at least one pod")
    _check_sync_window(sync_window_s)
    fleet = make_fleet(workers, start_method=start_method)
    try:
        pod_ids = fleet.build(
            build_pod_lps, pod_count=pod_count, lookahead_s=sync_window_s,
            max_batch=max_batch, batch_window_s=batch_window_s,
            **hardware)
        return ParallelFederationController(
            fleet, pod_ids,
            placer=GlobalPlacer(spill_policy, anti_affinity=anti_affinity),
            interpod_link_bps=interpod_link_bps,
            sync_window_s=sync_window_s, rebalancer=rebalancer)
    except BaseException:
        fleet.close()
        raise
