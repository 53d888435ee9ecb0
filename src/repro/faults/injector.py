"""MTBF-driven fault injection over a federation.

:class:`FaultInjector` is the only component that decides *what dies
when*; every reaction runs through the failed tier's own primitives:

* **memory brick** — the pod's control plane marks the brick's tenants
  degraded and excludes it from placement
  (:meth:`~repro.cluster.control_plane.ControlPlane.
  handle_memory_brick_failure`); self-healing re-places the stranded
  segments on healthy bricks (:meth:`~repro.cluster.control_plane.
  ControlPlane.evacuate_memory_brick_process`);
* **rack uplink** — the rack's bricks leave the placement pool and its
  registered :class:`~repro.datamover.scheduler.LinkScheduler` (if
  any) parks pending transfers; self-healing relocates segments that
  out-of-rack tenants hold on the cut-off rack onto reachable bricks;
* **inter-rack switch** — tenants whose memory sits in a different
  rack than their VM lose their data path; self-healing confines each
  such segment into its compute brick's own rack;
* **shard controller** — the SDM-C marks the shard failed (no
  two-phase hold outlives the synchronous step that takes it, so none
  is in flight to roll back) and (with self-healing) the survivors
  take its racks over across a consistent hash ring, Ironic-conductor
  style (:meth:`~repro.orchestration.sharding.ShardedSdmController.
  fail_shard`); without takeover the racks go unmanaged and their
  tenants degrade until repair;
* **whole pod** — the pod's plane pauses and the placer stops routing
  to it (:meth:`~repro.federation.controller.FederationController.
  fail_pod`); self-healing re-admits its tenants elsewhere from the
  placer's committed-claim ledger.

The memory-brick, uplink and switch heals all move segments through
the pod controller's one evacuation (:meth:`~repro.orchestration.
sdm_controller.SdmController.evacuate_process`); they differ only in
which segments they pass and which bricks they keep.  Re-placement
copies out of a cut-off component model rack-local
re-materialization (restore from a reachable replica), not a read
through the dead link — the simulation charges the same copy time
either way.

**Determinism.**  Every stochastic draw comes from a named
:class:`~repro.sim.rng.RngRegistry` stream (one per fault class, never
global ``random``), and each cycle draws its inter-arrival delay,
repair duration and target index *before* sleeping — so a given seed
produces the identical fault schedule regardless of how the system
reacts, and adding a fault class never perturbs the others' streams.
Components are the only valid targets; with the injector disabled (or
no fault ever firing) every hook in the reaction paths is an inert
no-op and runs are bit-identical to a fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Iterable, Mapping, Optional, Sequence,
                    Union)

from repro.errors import FaultError, ReproError
from repro.faults.domains import DomainOutage, FailureDomain, Hazard
from repro.faults.metrics import AvailabilityMetrics, FaultClass, FaultEvent
from repro.sim.engine import ProcessGenerator
from repro.sim.rng import RngRegistry

#: RNG stream name prefix; each class draws from ``faults.<class>``.
STREAM_PREFIX = "faults"

#: Poll cadence (s) of the pod-heal supervisor: how quickly it picks
#: up ledger claims committed by boots that were in flight when the
#: pod died.
POD_HEAL_POLL_S = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """MTBF/MTTR of one fault class (exponential inter-arrival unless a
    :class:`~repro.faults.domains.Hazard` overrides it)."""

    klass: FaultClass
    #: Mean time between failures across the whole target population.
    mtbf_s: float
    #: Mean time to repair one failure.
    mttr_s: float
    #: Optional inter-arrival distribution (e.g. Weibull/bathtub); the
    #: default ``None`` keeps the exact exponential draw sequence of
    #: PR 7, so existing seeds replay bit-identically.
    hazard: Optional[Hazard] = None

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0:
            raise FaultError(
                f"{self.klass.value}: MTBF must be positive, "
                f"got {self.mtbf_s}")
        if self.mttr_s <= 0:
            raise FaultError(
                f"{self.klass.value}: MTTR must be positive, "
                f"got {self.mttr_s}")


#: Default per-class schedules, scaled to the experiments' second-scale
#: traces.  Blast radius and MTBF rise together (brick failures are the
#: common case, whole-pod outages the rare catastrophic one), and every
#: MTTR sits far above the ~1 s tenant boot: repairing hardware takes
#: orders of magnitude longer than re-placing a tenant, which is the
#: entire economic case for self-healing.
DEFAULT_SPECS: dict[FaultClass, FaultSpec] = {
    FaultClass.MEMORY_BRICK: FaultSpec(FaultClass.MEMORY_BRICK,
                                       mtbf_s=40.0, mttr_s=20.0),
    FaultClass.RACK_UPLINK: FaultSpec(FaultClass.RACK_UPLINK,
                                      mtbf_s=60.0, mttr_s=12.0),
    FaultClass.SWITCH: FaultSpec(FaultClass.SWITCH,
                                 mtbf_s=120.0, mttr_s=8.0),
    FaultClass.SHARD: FaultSpec(FaultClass.SHARD,
                                mtbf_s=80.0, mttr_s=10.0),
    FaultClass.POD: FaultSpec(FaultClass.POD,
                              mtbf_s=200.0, mttr_s=30.0),
}


@dataclass(frozen=True)
class ScriptedFault:
    """One declaratively scheduled outage."""

    at_s: float
    klass: FaultClass
    #: ``pod:component`` for pod-internal targets, pod id otherwise.
    target: str
    duration_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise FaultError(f"fault time must be >= 0, got {self.at_s}")
        if self.duration_s <= 0:
            raise FaultError(
                f"outage duration must be positive, got {self.duration_s}")


class FaultPlan:
    """A declarative, reproducible schedule of scripted outages."""

    def __init__(self,
                 faults: Sequence[ScriptedFault] = ()) -> None:
        self._faults: list[ScriptedFault] = list(faults)

    def add(self, at_s: float, klass: Union[FaultClass, str], target: str,
            duration_s: float) -> ScriptedFault:
        """Schedule *target* to fail at *at_s* for *duration_s*."""
        fault = ScriptedFault(at_s=at_s, klass=_coerce_class(klass),
                              target=target, duration_s=duration_s)
        self._faults.append(fault)
        return fault

    def ordered(self) -> list[ScriptedFault]:
        """The schedule in replay order (time, then class, then target
        — total, so replay is deterministic)."""
        return sorted(self._faults,
                      key=lambda f: (f.at_s, f.klass.value, f.target))

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self):
        return iter(self.ordered())


def _coerce_class(klass: Union[FaultClass, str]) -> FaultClass:
    if isinstance(klass, FaultClass):
        return klass
    try:
        return FaultClass(klass)
    except ValueError:
        known = ", ".join(c.value for c in FaultClass)
        raise FaultError(
            f"unknown fault class {klass!r}; known: {known}") from None


class FaultInjector:
    """Schedules failures/repairs on the federation's DES clock."""

    def __init__(self, federation, *,
                 specs: Optional[Mapping[FaultClass, FaultSpec]] = None,
                 classes: Optional[Iterable[Union[FaultClass,
                                                  str]]] = None,
                 seed: int = 2018,
                 rng: Optional[RngRegistry] = None,
                 self_heal: bool = True,
                 plan: Optional[FaultPlan] = None,
                 metrics: Optional[AvailabilityMetrics] = None,
                 domains: Sequence[FailureDomain] = ()) -> None:
        self.federation = federation
        self.sim = federation.sim
        self.specs = dict(DEFAULT_SPECS)
        if specs:
            self.specs.update(specs)
        if classes is None:
            enabled = list(FaultClass)
        else:
            enabled = [_coerce_class(klass) for klass in classes]
        #: Enabled classes, in canonical (value) order.
        self.classes = tuple(sorted(set(enabled),
                                    key=lambda c: c.value))
        self.rng = rng if rng is not None else RngRegistry(seed)
        self.self_heal = self_heal
        self.plan = plan
        self.metrics = (metrics if metrics is not None
                        else AvailabilityMetrics(self.sim))
        #: (class, target) -> the active fault holding it down.
        self._active: dict[tuple[FaultClass, str], FaultEvent] = {}
        #: uplink/switch target -> LinkScheduler to park on failure.
        self._links: dict[str, object] = {}
        #: Correlated failure domains, keyed by name (sorted order is
        #: the install order, keeping schedules deterministic).
        self.domains: dict[str, FailureDomain] = {}
        for domain in domains:
            if domain.name in self.domains:
                raise FaultError(f"duplicate domain {domain.name!r}")
            self.domains[domain.name] = domain
        #: name -> the active outage holding the whole domain down.
        self._active_domains: dict[str, DomainOutage] = {}
        #: Lifetime count of correlated outages actually fired.
        self.domain_outages_fired = 0
        #: Observers called with every recorded FaultEvent — the
        #: maintenance supervisor registers here to fence drains
        #: against faults landing inside the drain scope.
        self.fault_hooks: list[Callable[[FaultEvent], None]] = []
        self._installed = False
        self._stopped = False

    # -- wiring -------------------------------------------------------------

    def register_link(self, target: str, scheduler) -> None:
        """Attach a :class:`~repro.datamover.scheduler.LinkScheduler`
        to an uplink (``pod:rack``) or switch (``pod``) target; faults
        on that target park/re-queue its transfers."""
        self._links[target] = scheduler

    def install(self) -> "FaultInjector":
        """Start the per-class MTBF processes (and the plan replay) on
        the federation's simulator; idempotence is an error."""
        if self._installed:
            raise FaultError("injector is already installed")
        self._installed = True
        self.federation.depart_hooks.append(self.metrics.mark_departed)
        for klass in self.classes:
            self.sim.process(self._mtbf_process(klass))
        for name in sorted(self.domains):
            self.sim.process(self._domain_process(self.domains[name]))
        if self.plan is not None and len(self.plan):
            self.sim.process(self._plan_process())
        return self

    def stop(self) -> None:
        """Stop scheduling new faults after the next wake-up; repairs
        of already-active faults still complete."""
        self._stopped = True

    @property
    def active_faults(self) -> list[FaultEvent]:
        """Currently unrepaired faults, in injection order."""
        return sorted(self._active.values(), key=lambda e: e.failed_s)

    @property
    def quiescent(self) -> bool:
        """True when no injected fault is currently active."""
        return not self._active

    # -- schedules ----------------------------------------------------------

    def _mtbf_process(self, klass: FaultClass) -> ProcessGenerator:
        spec = self.specs[klass]
        stream = self.rng.stream(f"{STREAM_PREFIX}.{klass.value}")
        while True:
            # All three draws happen before the sleep, in fixed order:
            # the schedule depends only on the seed, never on how the
            # system reacted to earlier faults.
            if spec.hazard is not None:
                delay = float(spec.hazard.draw(stream))
            else:
                delay = float(stream.exponential(spec.mtbf_s))
            repair_after = float(stream.exponential(spec.mttr_s))
            pick = float(stream.random())
            yield self.sim.timeout(delay)
            if self._stopped:
                return
            targets = self._targets(klass)
            if not targets:
                continue
            index = min(int(pick * len(targets)), len(targets) - 1)
            self.inject(klass, targets[index],
                        repair_after_s=repair_after)

    def _plan_process(self) -> ProcessGenerator:
        for fault in self.plan.ordered():
            if fault.at_s > self.sim.now:
                yield self.sim.timeout(fault.at_s - self.sim.now)
            if self._stopped:
                return
            self.inject(fault.klass, fault.target,
                        repair_after_s=fault.duration_s, scripted=True)

    def _domain_process(self, domain: FailureDomain) -> ProcessGenerator:
        """MTBF loop for one correlated domain.

        Draws come from the domain's own ``faults.domain.<name>``
        stream, so layering domains onto a run never perturbs the
        per-class schedules — old seeds still replay.
        """
        stream = self.rng.stream(
            f"{STREAM_PREFIX}.domain.{domain.name}")
        hazard = domain.effective_hazard
        while True:
            delay = float(hazard.draw(stream))
            repair_after = float(stream.exponential(domain.mttr_s))
            yield self.sim.timeout(delay)
            if self._stopped:
                return
            self.fire_domain(domain, repair_after_s=repair_after)

    # -- target enumeration --------------------------------------------------

    def _live_pods(self) -> list:
        return [self.federation.pods[pod_id]
                for pod_id in sorted(self.federation.pods)
                if self.federation.pods[pod_id].alive]

    def _targets(self, klass: FaultClass) -> list[str]:
        """Valid targets of *klass* right now, sorted (deterministic)."""
        pods = self._live_pods()
        if klass is FaultClass.POD:
            # Never take the last live pod: re-admission (and the
            # placer) need at least one survivor.
            return ([p.pod_id for p in pods] if len(pods) >= 2 else [])
        if klass is FaultClass.SWITCH:
            return [p.pod_id for p in pods
                    if (klass, p.pod_id) not in self._active]
        targets: list[str] = []
        for pod in pods:
            registry = pod.system.sdm.registry
            if klass is FaultClass.MEMORY_BRICK:
                # Bricks in cleaning/maintenance are powered-down and
                # serviced — not valid MTBF targets.  Draining bricks
                # still hold live segments, so they stay in scope.
                targets.extend(
                    f"{pod.pod_id}:{e.brick.brick_id}"
                    for e in registry.memory_entries
                    if not e.failed and e.lifecycle.accepting)
            elif klass is FaultClass.RACK_UPLINK:
                targets.extend(
                    f"{pod.pod_id}:{rack}"
                    for rack in registry.rack_ids()
                    if (klass, f"{pod.pod_id}:{rack}") not in self._active)
            elif klass is FaultClass.SHARD:
                live = pod.system.sdm.live_shards()
                if self.self_heal and len(live) < 2:
                    continue  # takeover needs a survivor
                targets.extend(f"{pod.pod_id}:{shard}" for shard in live)
        return sorted(targets)

    # -- injection ----------------------------------------------------------

    def inject(self, klass: Union[FaultClass, str], target: str, *,
               repair_after_s: float,
               scripted: bool = False) -> Optional[FaultEvent]:
        """Fail *target* now; schedule its repair *repair_after_s*
        later.

        Returns the recorded :class:`~repro.faults.metrics.FaultEvent`,
        or ``None`` when the target is already failed or a guard
        declines the injection (e.g. the last live pod).  Unknown
        targets raise :class:`~repro.errors.FaultError`.
        """
        klass = _coerce_class(klass)
        if repair_after_s <= 0:
            raise FaultError(
                f"repair delay must be positive, got {repair_after_s}")
        key = (klass, target)
        if key in self._active:
            return None
        impacted = self._FAIL[klass](self, target)
        if impacted is None:
            return None
        event = self.metrics.record_fault(FaultEvent(
            klass=klass, target=target, failed_s=self.sim.now,
            impacted_tenants=tuple(impacted), scripted=scripted))
        self._active[key] = event
        for tenant_id in impacted:
            self.metrics.mark_unavailable(tenant_id)
        for hook in list(self.fault_hooks):
            hook(event)
        heal = self._HEAL.get(klass)
        if self.self_heal and heal is not None:
            self.sim.process(heal(self, event))
        self.sim.process(self._repair_later(event, repair_after_s))
        return event

    # -- correlated domains ---------------------------------------------------

    @property
    def active_domains(self) -> list[DomainOutage]:
        """Currently unrepaired domain outages, in injection order."""
        return sorted(self._active_domains.values(),
                      key=lambda o: (o.failed_s, o.domain.name))

    def fire_domain(self, domain: Union[FailureDomain, str], *,
                    repair_after_s: float,
                    scripted: bool = False) -> Optional[DomainOutage]:
        """Fail every member of *domain* now; all repair together.

        Members already down independently are left to their own
        repair schedule — but their repair stays *invisible* until the
        domain clears (see :meth:`_repair_later`): a brick inside a
        dead power domain cannot come back before its power does.
        Returns ``None`` when the domain is already down.
        """
        if isinstance(domain, str):
            try:
                domain = self.domains[domain]
            except KeyError:
                raise FaultError(
                    f"unknown domain {domain!r}; known: "
                    f"{sorted(self.domains)}") from None
        if repair_after_s <= 0:
            raise FaultError(
                f"repair delay must be positive, got {repair_after_s}")
        if domain.name in self._active_domains:
            return None
        outage = DomainOutage(
            domain=domain, failed_s=self.sim.now,
            until_s=self.sim.now + repair_after_s)
        # Record the outage *before* injecting members so fault hooks
        # observing a member event already see the domain as active.
        self._active_domains[domain.name] = outage
        self.domain_outages_fired += 1
        injected = []
        for klass, target in domain.members:
            if self.inject(klass, target, repair_after_s=repair_after_s,
                           scripted=scripted) is not None:
                injected.append((klass, target))
        outage.injected = tuple(injected)
        self.sim.process(self._clear_domain_later(outage, repair_after_s))
        return outage

    def _clear_domain_later(self, outage: DomainOutage,
                            after_s: float) -> ProcessGenerator:
        yield self.sim.timeout(after_s)
        if self._active_domains.get(outage.domain.name) is outage:
            del self._active_domains[outage.domain.name]

    def _holding_domains(self, klass: FaultClass,
                         target: str) -> list[DomainOutage]:
        """Active domain outages still pinning ``(klass, target)``."""
        return [outage for outage in self._active_domains.values()
                if outage.holds(klass, target, self.sim.now)]

    def _repair_later(self, event: FaultEvent,
                      after_s: float) -> ProcessGenerator:
        yield self.sim.timeout(after_s)
        # A repaired component inside a still-failed domain stays down:
        # the brick may be healthy, but its power/network domain is
        # not.  Wait for every enclosing outage to clear (re-checking,
        # because a domain can re-fire while we wait).
        while True:
            holding = self._holding_domains(event.klass, event.target)
            if not holding:
                break
            yield self.sim.timeout(
                max(o.until_s for o in holding) - self.sim.now)
        self._REPAIR[event.klass](self, event)
        # Whatever self-healing did not recover comes back with the
        # component; mark_available is a no-op for tenants already up.
        for tenant_id in event.impacted_tenants:
            self.metrics.mark_available(tenant_id)
        self.metrics.record_repair(event)
        del self._active[(event.klass, event.target)]

    def _heal_recovered(self, event: FaultEvent,
                        recovered: Iterable[str]) -> None:
        """Book tenants a self-healing reaction brought back."""
        healed = sorted(recovered)
        for tenant_id in healed:
            self.metrics.mark_available(tenant_id)
        event.healed_tenants = tuple(healed)

    def _pod(self, pod_id: str):
        pod = self.federation.pods.get(pod_id)
        if pod is None:
            raise FaultError(f"unknown pod {pod_id!r}")
        return pod

    def _split(self, target: str) -> tuple:
        pod_id, sep, component = target.partition(":")
        if not sep or not component:
            raise FaultError(
                f"target {target!r} must be 'pod:component'")
        return self._pod(pod_id), component

    # -- whole pod -----------------------------------------------------------

    def _fail_pod(self, pod_id: str) -> Optional[list[str]]:
        pod = self._pod(pod_id)
        if not pod.alive:
            return None
        if sum(p.alive for p in self.federation.pods.values()) < 2:
            return None  # never sever the last live pod
        return self.federation.fail_pod(pod_id)

    def _heal_pod_process(self, event: FaultEvent) -> ProcessGenerator:
        """Re-admit the dead pod's tenants from the committed ledger.

        A supervisor polls the ledger until the pod repairs, spawning
        one re-admission process per tenant as its claim appears — in
        parallel, so each tenant's downtime is its own boot latency,
        not its position in a serial queue.  The polling matters: a
        boot that was mid-service when the pod paused still completes
        and commits its claim *after* the failure, and a one-shot
        snapshot would strand exactly those tenants until repair.  A
        tenant whose claim is gone (it departed through the paused
        plane's in-flight service) or whose pod already repaired needs
        no re-admission and counts as neither success nor failure.
        """
        fed = self.federation
        pod = self._pod(event.target)
        recovered: list[str] = []
        seen: set[str] = set()
        ever_failed: set[str] = set()

        def readmit_one(tenant_id: str) -> ProcessGenerator:
            claim = fed.placer.ledger_claim(tenant_id)
            if (claim is None or claim.pod_id != event.target
                    or pod.alive):
                return
            new_pod = yield from fed.readmit_tenant_process(tenant_id)
            if new_pod is None:
                # Surviving capacity is momentarily exhausted; a later
                # poll retries (departures free capacity continuously).
                ever_failed.add(tenant_id)
                seen.discard(tenant_id)
            else:
                self.metrics.readmissions += 1
                recovered.append(tenant_id)
                self.metrics.mark_available(tenant_id)

        waits = []
        while not pod.alive:
            for claim in fed.placer.ledger_for_pod(event.target):
                if claim.tenant_id in seen:
                    continue
                seen.add(claim.tenant_id)
                waits.append(self.sim.process(
                    readmit_one(claim.tenant_id)))
            yield self.sim.timeout(POD_HEAL_POLL_S)
        if waits:
            yield self.sim.all_of(waits)
        # Terminal accounting: a tenant that failed at least once and
        # never came back rode out the outage parked on the dead pod.
        self.metrics.readmission_failures += sum(
            1 for tenant_id in ever_failed
            if tenant_id not in recovered)
        event.healed_tenants = tuple(sorted(recovered))

    def _repair_pod(self, event: FaultEvent) -> None:
        self.federation.restore_pod(event.target)

    # -- memory brick --------------------------------------------------------

    def _fail_memory_brick(self, target: str) -> Optional[list[str]]:
        pod, brick_id = self._split(target)
        if not pod.alive:
            return None
        try:
            entry = pod.system.sdm.registry.memory(brick_id)
        except ReproError:
            raise FaultError(
                f"unknown memory brick {brick_id!r} in "
                f"{pod.pod_id}") from None
        if entry.failed:
            return None
        return pod.plane.handle_memory_brick_failure(brick_id)

    def _heal_memory_brick_process(self,
                                   event: FaultEvent) -> ProcessGenerator:
        pod, brick_id = self._split(event.target)
        yield from pod.plane.evacuate_memory_brick_process(brick_id)
        self._heal_recovered(event, (
            t for t in event.impacted_tenants
            if t not in pod.plane.degraded))

    def _repair_memory_brick(self, event: FaultEvent) -> None:
        pod, brick_id = self._split(event.target)
        pod.plane.handle_memory_brick_repair(brick_id)

    # -- rack uplink ---------------------------------------------------------

    def _rack_tenants(self, pod, rack: str) -> set[str]:
        """Tenants whose VM is hosted on one of *rack*'s compute
        bricks."""
        return set(self.federation.tenants_hosted_on_rack(pod.pod_id, rack))

    def _rack_memory_tenants(self, pod, rack: str) -> set[str]:
        """Tenants holding a segment on one of *rack*'s memory bricks."""
        sdm = pod.system.sdm
        memory, _ = sdm.registry.rack_entries(rack)
        return {s.vm_id for entry in memory
                for s in sdm.segments_on(entry.brick.brick_id) if s.vm_id}

    def _fail_rack_uplink(self, target: str) -> Optional[list[str]]:
        pod, rack = self._split(target)
        if not pod.alive:
            return None
        registry = pod.system.sdm.registry
        if rack not in registry.rack_ids():
            raise FaultError(
                f"unknown rack {rack!r} in {pod.pod_id}")
        memory, compute = registry.rack_entries(rack)
        for entry in compute:
            registry.mark_compute_failed(entry.brick.brick_id)
        for entry in memory:
            # The flag alone, not mark_memory_failed: the brick is
            # healthy and keeps its content — only unreachable.
            registry.set_memory_failed(entry.brick.brick_id, True)
        impacted = (self._rack_tenants(pod, rack)
                    | self._rack_memory_tenants(pod, rack))
        pod.plane.degraded.update(impacted)
        link = self._links.get(target)
        if link is not None and link.link_up:
            link.fail_link()
        return sorted(impacted)

    def _heal_rack_uplink_process(self,
                                  event: FaultEvent) -> ProcessGenerator:
        """Relocate reachable tenants' segments off the cut-off rack.

        Only tenants hosted *outside* the rack can be helped — their
        VMs still run, so re-materializing their rack-stranded
        segments on reachable bricks restores their data path.
        Tenants hosted inside the rack wait for the uplink repair.
        """
        pod, rack = self._split(event.target)
        sdm = pod.system.sdm
        registry = sdm.registry
        hosted_inside = self._rack_tenants(pod, rack)
        memory, _ = registry.rack_entries(rack)
        # Each brick's segments are listed only when the moves reach it;
        # a segment whose VM is inside the rack is cut off anyway.
        yield from sdm.evacuate_process(
            pod.plane.ctx,
            (segment for entry in memory
             for segment in sdm.segments_on(entry.brick.brick_id)
             if registry.rack_of(segment.compute_brick_id) != rack),
            lambda candidate, _segment: candidate.rack_id != rack)
        still_stranded = self._rack_memory_tenants(pod, rack)
        recovered = [t for t in event.impacted_tenants
                     if t not in hosted_inside
                     and t not in still_stranded]
        pod.plane.degraded.difference_update(recovered)
        self._heal_recovered(event, recovered)

    def _repair_rack_uplink(self, event: FaultEvent) -> None:
        pod, rack = self._split(event.target)
        registry = pod.system.sdm.registry
        memory, compute = registry.rack_entries(rack)
        for entry in compute:
            registry.restore_compute(entry.brick.brick_id)
        for entry in memory:
            registry.set_memory_failed(entry.brick.brick_id, False)
        pod.plane.degraded.difference_update(event.impacted_tenants)
        link = self._links.get(event.target)
        if link is not None and not link.link_up:
            link.repair_link()

    # -- inter-rack switch ---------------------------------------------------

    def _cross_rack_segments(self, pod) -> list:
        """Segments whose memory sits in a different rack than their
        compute brick — the blast radius of the pod switch."""
        sdm = pod.system.sdm
        registry = sdm.registry
        segments = []
        for entry in sorted(registry.memory_entries,
                            key=lambda e: e.brick.brick_id):
            for segment in sdm.segments_on(entry.brick.brick_id):
                if (registry.rack_of(segment.memory_brick_id)
                        != registry.rack_of(segment.compute_brick_id)):
                    segments.append(segment)
        return segments

    def _fail_switch(self, pod_id: str) -> Optional[list[str]]:
        pod = self._pod(pod_id)
        if not pod.alive:
            return None
        impacted = sorted({s.vm_id
                           for s in self._cross_rack_segments(pod)
                           if s.vm_id})
        pod.plane.degraded.update(impacted)
        link = self._links.get(pod_id)
        if link is not None and link.link_up:
            link.fail_link()
        return impacted

    def _heal_switch_process(self, event: FaultEvent) -> ProcessGenerator:
        """Confine cross-rack segments into their compute brick's rack."""
        pod = self._pod(event.target)
        sdm = pod.system.sdm
        rack_of = sdm.registry.rack_of
        yield from sdm.evacuate_process(
            pod.plane.ctx, self._cross_rack_segments(pod),
            lambda candidate, segment: (
                candidate.rack_id == rack_of(segment.compute_brick_id)
                and candidate.brick_id != segment.memory_brick_id))
        still_cut = {s.vm_id for s in self._cross_rack_segments(pod)
                     if s.vm_id}
        recovered = [t for t in event.impacted_tenants
                     if t not in still_cut]
        pod.plane.degraded.difference_update(recovered)
        self._heal_recovered(event, recovered)

    def _repair_switch(self, event: FaultEvent) -> None:
        pod = self._pod(event.target)
        pod.plane.degraded.difference_update(event.impacted_tenants)
        link = self._links.get(event.target)
        if link is not None and not link.link_up:
            link.repair_link()

    # -- shard controller ----------------------------------------------------

    def _fail_shard(self, target: str) -> Optional[list[str]]:
        pod, shard = self._split(target)
        if not pod.alive:
            return None
        sdm = pod.system.sdm
        if shard not in sdm.shard_names():
            raise FaultError(
                f"unknown shard {shard!r} in {pod.pod_id}")
        if shard not in sdm.live_shards():
            return None
        takeover = self.self_heal
        if takeover and len(sdm.live_shards()) < 2:
            return None
        racks = sdm.shard_members().get(shard, [])
        sdm.fail_shard(shard, takeover=takeover)
        if takeover:
            # The hash-ring takeover is immediate: the survivors serve
            # the dead shard's racks from the same event, so nobody is
            # ever cut off — the self-healing contrast in its purest
            # form.
            return []
        impacted = set()
        for rack in racks:
            impacted |= self._rack_tenants(pod, rack)
        pod.plane.degraded.update(impacted)
        return sorted(impacted)

    def _repair_shard(self, event: FaultEvent) -> None:
        pod, shard = self._split(event.target)
        pod.system.sdm.restore_shard(shard)
        pod.plane.degraded.difference_update(event.impacted_tenants)

    # -- dispatch tables -----------------------------------------------------

    _FAIL = {
        FaultClass.POD: _fail_pod,
        FaultClass.MEMORY_BRICK: _fail_memory_brick,
        FaultClass.RACK_UPLINK: _fail_rack_uplink,
        FaultClass.SWITCH: _fail_switch,
        FaultClass.SHARD: _fail_shard,
    }
    _HEAL = {
        FaultClass.POD: _heal_pod_process,
        FaultClass.MEMORY_BRICK: _heal_memory_brick_process,
        FaultClass.RACK_UPLINK: _heal_rack_uplink_process,
        FaultClass.SWITCH: _heal_switch_process,
        # SHARD heals synchronously inside _fail_shard (ring takeover).
    }
    _REPAIR = {
        FaultClass.POD: _repair_pod,
        FaultClass.MEMORY_BRICK: _repair_memory_brick,
        FaultClass.RACK_UPLINK: _repair_rack_uplink,
        FaultClass.SWITCH: _repair_switch,
        FaultClass.SHARD: _repair_shard,
    }
