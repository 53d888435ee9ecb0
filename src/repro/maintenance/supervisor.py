"""Rolling-maintenance supervisor: zero-downtime rack and pod drains.

The operational counterpart of :mod:`repro.faults`: instead of
reacting to unplanned failures, the supervisor takes capacity out of
service *on purpose* — one rack at a time — while the cluster keeps
admitting and serving tenants.  The discipline is hotweights'
verified swap (SNIPPETS.md §2), applied to memory segments:

1. **Delta plan** — only the segments that actually live on the
   draining rack's memory bricks move; everything else stays put.
2. **Copy** — each segment relocates through the controller's own
   two-phase :meth:`~repro.orchestration.sdm_controller.SdmController.
   relocate_segment_process` (atomic: a mid-copy failure leaves the
   segment intact on its source).
3. **Verify** — after every copy the supervisor re-reads the
   controller's record and the target allocator's span table and
   charges a read-back pass before counting the move committed.
4. **Commit or roll back** — only when every segment of the rack has
   verified (and every hosted VM has migrated off) do the rack's
   bricks transition ``draining → cleaning → maintenance``; any abort
   relocates the already-moved segments back and returns the bricks
   to ``active``.

Drains are **fenced** against the fault injector: the supervisor
registers a fault hook, and any fault landing inside the drain scope
(the draining rack, its pod's switch, or the whole pod) flips the
drain's abort flag — the in-flight move completes or rolls back
atomically, then the drain unwinds instead of stranding capacity on a
half-evacuated rack.

A **pod drain** (:meth:`MaintenanceSupervisor.drain_pod_process`)
rolls rack-by-rack: the pod leaves the admission pool (``pod.draining``
— the placer spills new tenants to its peers, so admission
availability never dips), each rack's hosted tenants live-migrate to
other pods, stray segments owned by later racks' tenants relocate
within the pod, and the rack retires.  Racks already retired when an
abort hits stay retired (they are clean — nothing is stranded); the
current rack rolls back and the pod re-enters the admission pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MaintenanceError, ReproError
from repro.faults.metrics import FaultClass, FaultEvent
from repro.orchestration.lifecycle import BrickState
from repro.orchestration.sdm_controller import SEGMENT_COPY_RATE_BPS
from repro.sim.engine import ProcessGenerator
from repro.units import transfer_time

#: Simulated duration of the cleaning step (secure-erase + firmware
#: checks) a brick pays between draining and maintenance.
CLEANING_S = 0.5


@dataclass
class DrainReport:
    """What one drain did, committed or not."""

    scope: str
    pod_id: str
    committed: bool = False
    aborted: bool = False
    abort_reason: str = ""
    segments_moved: int = 0
    bytes_moved: int = 0
    tenants_migrated: int = 0
    #: Segments relocated *back* during an abort unwind.
    rollback_moves: int = 0
    verify_failures: int = 0
    racks_retired: list[str] = field(default_factory=list)
    started_s: float = 0.0
    finished_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_s - self.started_s


@dataclass
class _ActiveDrain:
    """Fencing record of one in-flight drain."""

    pod_id: str
    #: Racks currently being evacuated ("" entries never match).
    racks: set[str]
    abort: bool = False
    abort_reason: str = ""

    def fence(self, reason: str) -> None:
        if not self.abort:
            self.abort = True
            self.abort_reason = reason


class MaintenanceSupervisor:
    """Runs rolling drains over a federation's pods and racks."""

    def __init__(self, federation, *, injector=None) -> None:
        self.federation = federation
        self.sim = federation.sim
        self._drains: list[_ActiveDrain] = []
        self.reports: list[DrainReport] = []
        if injector is not None:
            self.install_fence(injector)

    # -- fencing -------------------------------------------------------------

    def install_fence(self, injector) -> None:
        """Register the drain fence on *injector*'s fault hooks."""
        injector.fault_hooks.append(self._on_fault)

    def _on_fault(self, event: FaultEvent) -> None:
        """Abort any drain whose scope the fault lands in."""
        for drain in self._drains:
            if self._covers(drain, event):
                drain.fence(
                    f"fault {event.klass.value}:{event.target} at "
                    f"t={event.failed_s:.3f}")

    def _covers(self, drain: _ActiveDrain, event: FaultEvent) -> bool:
        if event.klass in (FaultClass.POD, FaultClass.SWITCH):
            return event.target == drain.pod_id
        pod_id, _, component = event.target.partition(":")
        if pod_id != drain.pod_id:
            return False
        registry = self.federation.pods[pod_id].system.sdm.registry
        if event.klass is FaultClass.MEMORY_BRICK:
            try:
                return registry.rack_of(component) in drain.racks
            except ReproError:
                return False
        if event.klass is FaultClass.RACK_UPLINK:
            return component in drain.racks
        if event.klass is FaultClass.SHARD:
            sdm = self.federation.pods[pod_id].system.sdm
            members = sdm.shard_members().get(component, [])
            return bool(drain.racks.intersection(members))
        return False

    @property
    def draining(self) -> bool:
        return bool(self._drains)

    # -- shared machinery ----------------------------------------------------

    def _pod(self, pod_id: str):
        pod = self.federation.pods.get(pod_id)
        if pod is None:
            raise MaintenanceError(f"unknown pod {pod_id!r}")
        if not pod.alive:
            raise MaintenanceError(
                f"cannot drain failed pod {pod_id!r}")
        if any(d.pod_id == pod_id for d in self._drains):
            raise MaintenanceError(
                f"a drain is already running on {pod_id!r}")
        return pod

    def _enter_draining(self, registry, rack: str) -> None:
        memory, compute = registry.rack_entries(rack)
        for entry in memory + compute:
            if entry.failed:
                raise MaintenanceError(
                    f"cannot drain {rack}: brick "
                    f"{entry.brick.brick_id} is failed")
        for entry in memory:
            registry.transition_memory(entry.brick.brick_id,
                                       BrickState.DRAINING)
        for entry in compute:
            registry.transition_compute(entry.brick.brick_id,
                                        BrickState.DRAINING)

    def _revert_draining(self, registry, rack: str) -> None:
        """Abort path: return the rack's bricks to active."""
        memory, compute = registry.rack_entries(rack)
        for entry in memory:
            if entry.lifecycle.state is BrickState.DRAINING:
                registry.transition_memory(entry.brick.brick_id,
                                           BrickState.ACTIVE)
        for entry in compute:
            if entry.lifecycle.state is BrickState.DRAINING:
                registry.transition_compute(entry.brick.brick_id,
                                            BrickState.ACTIVE)

    def _retire_rack(self, registry, rack: str) -> ProcessGenerator:
        """Commit path: draining -> cleaning -> maintenance."""
        memory, compute = registry.rack_entries(rack)
        for entry in memory:
            registry.transition_memory(entry.brick.brick_id,
                                       BrickState.CLEANING)
        for entry in compute:
            registry.transition_compute(entry.brick.brick_id,
                                        BrickState.CLEANING)
        yield self.sim.timeout(CLEANING_S)
        for entry in memory:
            registry.transition_memory(entry.brick.brick_id,
                                       BrickState.MAINTENANCE)
        for entry in compute:
            registry.transition_compute(entry.brick.brick_id,
                                        BrickState.MAINTENANCE)

    def _verified_move(self, pod, segment_id: str, target_brick: str,
                       report: DrainReport) -> ProcessGenerator:
        """Relocate one segment and verify the copy (read-back).

        Returns ``(ok, source_brick)`` — the source brick id is what an
        abort unwind needs to send the segment home.
        """
        sdm = pod.system.sdm
        record = sdm.segment_record(segment_id)
        source_brick = record.segment.memory_brick_id
        size = record.segment.size
        yield from sdm.relocate_segment_process(
            pod.plane.ctx, segment_id, target_brick)
        # Verify: the controller record must point at the target and
        # the target allocator must carry a live span of exactly the
        # segment's size at its offset.  The read-back pass reads every
        # byte once more at the copy rate — a swap only counts after
        # verification.
        yield self.sim.timeout(transfer_time(size, SEGMENT_COPY_RATE_BPS))
        moved = sdm.segment_record(segment_id)
        target_entry = pod.system.sdm.registry.memory(target_brick)
        span_ok = any(
            span.base == moved.segment.offset and span.size == size
            for span in target_entry.allocator.allocated_spans())
        if moved.segment.memory_brick_id != target_brick or not span_ok:
            report.verify_failures += 1
            return False, source_brick
        report.segments_moved += 1
        report.bytes_moved += size
        return True, source_brick

    def _unwind_moves(self, pod, moves: list[tuple[str, str]],
                      report: DrainReport) -> ProcessGenerator:
        """Send already-moved segments back to their source bricks.

        Best-effort: a segment whose move-back fails simply stays on
        its (healthy, active) target — capacity is conserved either
        way; nothing is stranded on the draining rack.
        """
        sdm = pod.system.sdm
        for segment_id, source_brick in reversed(moves):
            try:
                record = sdm.segment_record(segment_id)
            except ReproError:
                continue  # departed mid-abort; nothing to unwind
            if record.segment.memory_brick_id == source_brick:
                continue
            try:
                yield from sdm.relocate_segment_process(
                    pod.plane.ctx, segment_id, source_brick)
                report.rollback_moves += 1
            except ReproError:
                continue

    # -- rack drain ----------------------------------------------------------

    def drain_rack_process(self, pod_id: str,
                           rack: str) -> ProcessGenerator:
        """DES process: evacuate one rack inside its pod.

        Segments on the rack's memory bricks relocate (verified) to
        active bricks elsewhere in the pod; VMs on its compute bricks
        live-migrate to other racks through the pod's own control
        plane.  Commit retires the rack to ``maintenance``; any abort
        (fault in scope, no capacity, verify failure) relocates moved
        segments back and returns the rack to ``active``.  Returns the
        :class:`DrainReport`.
        """
        pod = self._pod(pod_id)
        registry = pod.system.sdm.registry
        if rack not in {e.rack_id for e in registry.memory_entries}:
            raise MaintenanceError(
                f"unknown rack {rack!r} in {pod_id}")
        report = DrainReport(scope=f"{pod_id}/{rack}", pod_id=pod_id,
                             started_s=self.sim.now)
        drain = _ActiveDrain(pod_id=pod_id, racks={rack})
        self._drains.append(drain)
        self._enter_draining(registry, rack)
        moves: list[tuple[str, str]] = []
        try:
            ok = yield from self._evacuate_rack_segments(
                pod, rack, drain, report, moves)
            if ok:
                ok = yield from self._migrate_rack_tenants_intra(
                    pod, rack, drain, report)
            if ok and not drain.abort:
                yield from self._retire_rack(registry, rack)
                report.racks_retired.append(rack)
                report.committed = True
            else:
                yield from self._unwind_moves(pod, moves, report)
                self._revert_draining(registry, rack)
                report.aborted = True
                report.abort_reason = (drain.abort_reason
                                       or report.abort_reason
                                       or "evacuation failed")
        finally:
            self._drains.remove(drain)
            report.finished_s = self.sim.now
            self.reports.append(report)
        return report

    def _evacuate_rack_segments(self, pod, rack: str, drain: _ActiveDrain,
                                report: DrainReport,
                                moves: list) -> ProcessGenerator:
        """Delta plan + verified copy of every segment on *rack*."""
        sdm = pod.system.sdm
        registry = sdm.registry
        memory, _ = registry.rack_entries(rack)
        plan = []
        for entry in memory:
            plan.extend(sorted(sdm.segments_on(entry.brick.brick_id),
                               key=lambda s: s.segment_id))
        for segment in plan:
            if drain.abort:
                return False
            try:
                record = sdm.segment_record(segment.segment_id)
            except ReproError:
                continue  # departed since planning
            if registry.rack_of(record.segment.memory_brick_id) != rack:
                continue  # already elsewhere (raced a defrag/heal)
            # Availability lists only placeable bricks, so draining and
            # retired bricks never attract a move.
            target = sdm.relocation_target(
                record.segment,
                lambda candidate, _segment: candidate.rack_id != rack)
            if target is None:
                report.abort_reason = (
                    f"no active brick outside {rack} fits "
                    f"{record.segment.segment_id}")
                return False
            try:
                ok, source = yield from self._verified_move(
                    pod, segment.segment_id, target, report)
            except ReproError as exc:
                report.abort_reason = (
                    f"relocation of {segment.segment_id} failed: {exc}")
                return False
            if not ok:
                report.abort_reason = (
                    f"verify failed for {segment.segment_id}")
                return False
            moves.append((segment.segment_id, source))
        return True

    def _migrate_rack_tenants_intra(self, pod, rack: str,
                                    drain: _ActiveDrain,
                                    report: DrainReport
                                    ) -> ProcessGenerator:
        """Live-migrate VMs off *rack* within the pod.

        The plane resolves each destination at serve time from
        ``compute_availability()``, which no longer lists the draining
        rack — so targets are always other racks.
        """
        for tenant_id in self.federation.tenants_hosted_on_rack(
                pod.pod_id, rack):
            if drain.abort:
                return False
            request = pod.plane.submit("migrate", tenant_id)
            yield request.done
            if not request.record.ok:
                report.abort_reason = (
                    f"intra-pod migration of {tenant_id} failed: "
                    f"{request.record.note}")
                return False
            report.tenants_migrated += 1
        return True

    # -- pod drain -----------------------------------------------------------

    def drain_pod_process(self, pod_id: str) -> ProcessGenerator:
        """DES process: rolling drain of a whole pod, rack by rack.

        The pod leaves the admission pool first (``pod.draining`` —
        the placer spills newcomers to peers, keeping admission
        availability intact), then each rack in canonical order: its
        hosted tenants live-migrate to other pods (two-phase, with the
        migrator's own rollback), stray segments owned by tenants on
        later racks relocate within the pod, and the rack retires.
        On abort the current rack rolls back, already-retired racks
        stay retired (they hold nothing), and the pod re-enters the
        admission pool.  Returns the :class:`DrainReport`.
        """
        pod = self._pod(pod_id)
        fed = self.federation
        if not any(fed.placer.pod_accepting(other)
                   for other in fed.pods if other != pod_id):
            raise MaintenanceError(
                f"cannot drain {pod_id!r}: no other pod is accepting "
                f"tenants")
        registry = pod.system.sdm.registry
        racks = registry.rack_ids()
        report = DrainReport(scope=pod_id, pod_id=pod_id,
                             started_s=self.sim.now)
        drain = _ActiveDrain(pod_id=pod_id, racks=set())
        self._drains.append(drain)
        pod.draining = True
        try:
            for rack in racks:
                drain.racks = {rack}
                try:
                    # A fault may have felled a rack brick since the
                    # drain started; that aborts the drain, it doesn't
                    # crash it.  Nothing to unwind: the failed-brick
                    # check runs before any transition is applied.
                    self._enter_draining(registry, rack)
                except MaintenanceError as exc:
                    report.aborted = True
                    report.abort_reason = drain.abort_reason or str(exc)
                    pod.draining = False
                    return report
                moves: list[tuple[str, str]] = []
                ok = yield from self._migrate_rack_tenants_inter(
                    pod, rack, drain, report)
                if ok:
                    ok = yield from self._evacuate_rack_segments(
                        pod, rack, drain, report, moves)
                if not ok or drain.abort:
                    yield from self._unwind_moves(pod, moves, report)
                    self._revert_draining(registry, rack)
                    report.aborted = True
                    report.abort_reason = (drain.abort_reason
                                           or report.abort_reason
                                           or "evacuation failed")
                    pod.draining = False
                    return report
                yield from self._retire_rack(registry, rack)
                report.racks_retired.append(rack)
            report.committed = True
            # The pod stays out of the admission pool: every brick is
            # in maintenance.  restore_pod_process brings it back.
            return report
        finally:
            self._drains.remove(drain)
            report.finished_s = self.sim.now
            self.reports.append(report)

    def _migrate_rack_tenants_inter(self, pod, rack: str,
                                    drain: _ActiveDrain,
                                    report: DrainReport
                                    ) -> ProcessGenerator:
        """Live-migrate *rack*'s tenants to other pods (two-phase)."""
        fed = self.federation
        for tenant_id in self.federation.tenants_hosted_on_rack(
                pod.pod_id, rack):
            if drain.abort:
                return False
            if fed._tenant_pod.get(tenant_id) != pod.pod_id:
                continue  # departed while earlier migrations ran
            claim = fed.placer.ledger_claim(tenant_id)
            ram = (claim.ram_bytes if claim is not None
                   else fed.tenant_footprint(tenant_id))
            vcpus = claim.vcpus if claim is not None else 1
            target = fed.placer.place_for_readmission(
                tenant_id, ram, vcpus)
            if target is None or target == pod.pod_id:
                report.abort_reason = (
                    f"no pod can take {tenant_id} "
                    f"({ram} bytes, {vcpus} vcpus)")
                return False
            try:
                outcome = yield from fed.migrator.migrate_process(
                    tenant_id, target)
            except ReproError as exc:
                if fed._tenant_pod.get(tenant_id) is None:
                    continue  # departed mid-move; nothing to drain
                report.abort_reason = (
                    f"migration of {tenant_id} to {target} failed: "
                    f"{exc}")
                return False
            if not outcome.committed:
                if fed._tenant_pod.get(tenant_id) is None:
                    continue
                report.abort_reason = (
                    f"migration of {tenant_id} to {target} failed: "
                    f"{outcome.note}")
                return False
            report.tenants_migrated += 1
            report.bytes_moved += outcome.bytes_copied
        return True

    # -- return to service ---------------------------------------------------

    def restore_pod_process(self, pod_id: str) -> ProcessGenerator:
        """Return a fully-drained pod's bricks to service.

        Walks every ``maintenance`` brick back ``available → active``
        and re-opens the pod to the placer.  Bricks in other states
        are left alone (idempotent after partial drains).
        """
        pod = self.federation.pods.get(pod_id)
        if pod is None:
            raise MaintenanceError(f"unknown pod {pod_id!r}")
        registry = pod.system.sdm.registry
        for entry in sorted(registry.memory_entries,
                            key=lambda e: e.brick.brick_id):
            if entry.lifecycle.state is BrickState.MAINTENANCE:
                registry.transition_memory(entry.brick.brick_id,
                                           BrickState.AVAILABLE)
                registry.transition_memory(entry.brick.brick_id,
                                           BrickState.ACTIVE)
        for entry in sorted(registry.compute_entries,
                            key=lambda e: e.brick.brick_id):
            if entry.lifecycle.state is BrickState.MAINTENANCE:
                registry.transition_compute(entry.brick.brick_id,
                                            BrickState.AVAILABLE)
                registry.transition_compute(entry.brick.brick_id,
                                            BrickState.ACTIVE)
        pod.draining = False
        yield self.sim.timeout(0.0)
        return pod
