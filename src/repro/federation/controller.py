"""The federation tier: many pods under one global placement brain.

dReDBox's orchestration story ends at the pod — one SDM controller
(sharded or not) behind one :class:`~repro.fabric.fabric.PodFabric`.
The federation is the next tier up: it manages N **independent** pods,
each a full :class:`~repro.core.system.DisaggregatedSystem` with its
own :class:`~repro.cluster.control_plane.ControlPlane` and (typically)
:class:`~repro.orchestration.sharding.ShardedSdmController`.

The federation adds exactly three things the pod tier cannot express:

* **global placement** — a :class:`~repro.federation.placer.
  GlobalPlacer` routes each arriving tenant to its home pod
  (locality-first) and spills to another pod on capacity exhaustion,
  preferring the one with the most unclaimed free memory;
* **inter-pod tenant migration** — a two-phase reserve/copy/commit
  protocol (:mod:`repro.federation.migration`) built from the pod
  tier's own primitives, with rollback mirroring the cross-shard
  reserve of the sharded controller;
* **cross-pod rebalancing** — an idle-window draining task
  (:mod:`repro.federation.rebalancer`) that moves tenants off
  overloaded pods, reusing the defragmentation task's scheduling
  discipline.

One coordinator, :class:`Federation`, holds all three plus the tenant
lifecycle and the routing tables.  It reaches a pod only through four
**port** methods, and each backend implements them once:

====================  ====================  ==========================
port method           direct (this module)  wire (:mod:`~repro.
                                            federation.parallel`)
====================  ====================  ==========================
``_submit_to``        ``plane.submit``,     a ``SubmitCmd``; the reply
                      wait on its ``done``  rebuilt as a record
``_drain``            wait on the tenant's  ``DrainCmd`` /
                      tail, read the VM     ``DrainedReply``
``_footprint``        the live VM           the committed-claim ledger
``is_idle``           every plane idle      every pod idle at its last
                                            barrier, no reply pending
====================  ====================  ==========================

:class:`FederationController` is the direct port: every pod's
admission queue, dispatcher workers and shard critical sections
interleave on **one shared DES clock**, while each pod keeps its own
:class:`~repro.sim.control.ControlContext` so two pods' shard domains
never alias onto one critical section.  It also carries the
operational surface that needs live pods: pod failure, re-admission
and the public ``submit``, the operator and test entry point that
fedbench's tracer wraps.  The fault injector re-admits through
``_submit_to``, and the maintenance supervisor submits ``migrate`` to
the pod's own plane.

Tenant identity is federation-scoped: requests are routed to the pod
the tenant currently lives in, a per-tenant migration gate defers
submissions that race with a move, and each pod's own same-tenant FIFO
chain covers the rest — so per-tenant ordering holds across pod
reassignment.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.control_plane import ClusterRequest, ControlPlane
from repro.cluster.metrics import ControlPlaneStats, RequestRecord
from repro.cluster.trace import TenantSpec, TenantTrace, start_arrivals
from repro.core.builder import PodBuilder
from repro.core.system import DisaggregatedSystem
from repro.errors import FederationError, ReproError
from repro.federation.messages import PodStatus, measure_pod, plane_payload
from repro.federation.migration import InterPodMigrator
from repro.federation.placer import GlobalPlacer
from repro.federation.rebalancer import FederationRebalancer
from repro.orchestration.placement import make_placement_policy
from repro.sim.control import ControlContext
from repro.sim.engine import Event, ProcessGenerator, Simulator
from repro.units import gbps, gib, mib

#: Provisioned bandwidth of the inter-pod link the migration copies
#: ride (pods are independent fabrics; this is the packet network
#: between them, not an optical circuit).
DEFAULT_INTERPOD_LINK_BPS = gbps(100)

#: Dispatcher workers of every pod's control plane, on both backends.
PLANE_WORKERS = 8


@dataclass
class FederatedPod:
    """One pod under federation management."""

    pod_id: str
    system: DisaggregatedSystem
    plane: ControlPlane
    #: False while the whole pod is failed (fault injection): its plane
    #: is paused and the placer stops routing new tenants to it.
    alive: bool = True
    #: True while rolling maintenance drains the pod: the placer stops
    #: routing *new* tenants here (spill keeps admissions flowing), but
    #: the plane stays up and serves the tenants still hosted — the
    #: zero-downtime half of a drain.
    draining: bool = False

    def load_snapshot(self) -> PodStatus:
        """The pod's current load, in the wire-protocol form.

        The placer and rebalancer consume pods exclusively through
        this measurement, so the wire port's coordinator-side
        :class:`~repro.federation.parallel.PodHandle` can serve the
        same numbers from its last window barrier without any policy
        code noticing.
        """
        return measure_pod(self.system, self.plane, self.alive)


@dataclass
class FederationStats:
    """Everything the federation measured during one run."""

    #: Tenants *admitted* outside their home pod (a spilled placement
    #: the target pod then rejected counts as a rejection, not a spill).
    spills: int = 0
    boots_admitted: int = 0
    boots_rejected: int = 0
    migrations: int = 0
    migration_rollbacks: int = 0
    bytes_migrated: int = 0
    #: Tenants re-admitted on another pod after losing theirs.
    readmissions: int = 0
    #: Re-admission attempts no surviving pod could take.
    readmission_failures: int = 0
    duration_s: float = 0.0
    #: The boot request record of every trace-admitted tenant (excludes
    #: migration-internal boots, which live in the pod stats only).
    admission_records: list[RequestRecord] = field(default_factory=list)
    pod_stats: dict[str, ControlPlaneStats] = field(default_factory=dict)

    @property
    def admitted_fraction(self) -> float:
        total = self.boots_admitted + self.boots_rejected
        return self.boots_admitted / total if total else 0.0

    def admission_latency_percentile(self, percentile: float) -> float:
        """Percentile of admitted tenants' boot latency, in seconds."""
        latencies = [r.latency_s for r in self.admission_records if r.ok]
        if not latencies:
            return 0.0
        return float(np.percentile(latencies, percentile))

    def records(self, kind: Optional[str] = None) -> list[RequestRecord]:
        """Request records across every pod, optionally of one kind."""
        merged: list[RequestRecord] = []
        for stats in self.pod_stats.values():
            merged.extend(r for r in stats.records
                          if kind is None or r.kind == kind)
        return merged


class Federation(ABC):
    """The coordinator both backends share: inventory, routed submit,
    tenant lifecycle, inter-pod migration and the rebalancer.

    A backend supplies the pods (a mapping of pod id to an object with
    ``alive``, ``draining`` and ``load_snapshot()``) and the four port
    methods; everything else runs here, identically on either port.
    """

    def __init__(self, sim: Simulator, pods: Mapping[str, object], *,
                 placer: Optional[GlobalPlacer],
                 interpod_link_bps: float,
                 rebalancer: Optional[FederationRebalancer]) -> None:
        self.sim = sim
        self.pods = pods
        self.placer = placer if placer is not None else GlobalPlacer()
        self.placer.bind(pods)
        self.interpod_link_bps = interpod_link_bps
        self.stats = FederationStats()
        self.migrator = InterPodMigrator(self)
        #: tenant id -> pod id it currently lives in.
        self._tenant_pod: dict[str, str] = {}
        #: tenant id -> gate event while an inter-pod move is in flight.
        self._moving: dict[str, Event] = {}
        #: Called ``(tenant_id, pod_id)`` after a served depart has
        #: deregistered the tenant — availability accounting hooks in
        #: here so a departed tenant stops accruing downtime.
        self.depart_hooks: list[Callable[[str, str], None]] = []
        self.rebalancer = rebalancer
        if rebalancer is not None:
            rebalancer.install(self)

    # -- the pod port --------------------------------------------------------

    @abstractmethod
    def _submit_to(self, pod_id: str, kind: str, tenant_id: str,
                   ram_bytes: int = 0, vcpus: int = 0,
                   size_bytes: int = 0) -> ProcessGenerator:
        """DES process: push one request through *pod_id*'s admission
        pipeline (keywords as in :func:`~repro.federation.messages.
        plane_payload`); returns its :class:`~repro.cluster.metrics.
        RequestRecord` once it is served or rejected."""

    @abstractmethod
    def _drain(self, pod_id: str, tenant_id: str) -> ProcessGenerator:
        """DES process: wait out the tenant's in-flight requests on
        *pod_id*; returns ``(ram_bytes, vcpus)`` — the full footprint an
        inter-pod move must copy — or ``None`` when the tenant departed
        meanwhile."""

    @abstractmethod
    def _footprint(self, pod_id: str,
                   tenant_id: str) -> Optional[tuple[int, int]]:
        """``(ram_bytes, vcpus)`` the rebalancer plans a move of the
        tenant with, or ``None`` when it cannot be moved."""

    @abstractmethod
    def is_idle(self) -> bool:
        """True when no move is in flight and every pod is idle — the
        rebalancer's idle-window gate."""

    # -- inventory ----------------------------------------------------------

    @property
    def pod_count(self) -> int:
        return len(self.pods)

    def pod_of(self, tenant_id: str) -> str:
        """The pod *tenant_id* currently lives in."""
        try:
            return self._tenant_pod[tenant_id]
        except KeyError:
            raise FederationError(
                f"no tenant {tenant_id!r} in this federation") from None

    def tenants_on(self, pod_id: str) -> list[str]:
        """Tenant ids currently homed on *pod_id*, sorted."""
        if pod_id not in self.pods:
            raise FederationError(f"unknown pod {pod_id!r}")
        return sorted(tenant for tenant, pod in self._tenant_pod.items()
                      if pod == pod_id)

    def migration_gate(self, tenant_id: str) -> Optional[Event]:
        """The gate of the tenant's in-flight move, if one is running."""
        return self._moving.get(tenant_id)

    # -- request routing ----------------------------------------------------

    def _submit_routed(self, kind: str, tenant_id: str,
                       size_bytes: int = 0) -> ProcessGenerator:
        """DES process: wait out any in-flight move of the tenant, then
        submit to the pod it landed in and wait for the request.  A
        served ``depart`` deregisters the tenant, so routing tables
        never hold tenants that no longer exist.  Returns the
        request's record."""
        gate = self._moving.get(tenant_id)
        if gate is not None and not gate.triggered:
            yield gate
        pod_id = self.pod_of(tenant_id)
        record = yield from self._submit_to(pod_id, kind, tenant_id,
                                            size_bytes=size_bytes)
        if kind == "depart" and record.ok:
            self._deregister(tenant_id, pod_id)
        return record

    def _deregister(self, tenant_id: str, pod_id: str) -> None:
        """A served depart ended the tenant's residence on *pod_id*."""
        # Only drop a mapping this depart really ended: a move that
        # re-homed the tenant meanwhile owns the new one.
        if self._tenant_pod.get(tenant_id) != pod_id:
            return
        del self._tenant_pod[tenant_id]
        # Same guard for the committed-claim ledger: a migration or
        # re-admission that re-homed the tenant owns the newer entry.
        ledger = self.placer.ledger_claim(tenant_id)
        if ledger is not None and ledger.pod_id == pod_id:
            self.placer.forget(tenant_id)
        for hook in self.depart_hooks:
            hook(tenant_id, pod_id)

    # -- tenant lifecycles --------------------------------------------------

    def _tenant(self, spec: TenantSpec,
                home_of: Optional[Callable[[TenantSpec], str]]
                ) -> ProcessGenerator:
        home = (home_of(spec) if home_of is not None
                else self.placer.home_pod(spec.tenant_id))
        pod_id = self.placer.place(spec.tenant_id, spec.ram_bytes,
                                   spec.vcpus, home=home)
        # Two-phase admission: the claim covers the decision-to-
        # reservation window, then the pod's own allocators take over.
        claim = self.placer.reserve(pod_id, spec.ram_bytes, spec.vcpus,
                                    tenant_id=spec.tenant_id)
        self._tenant_pod[spec.tenant_id] = pod_id
        boot = yield from self._submit_to(
            pod_id, "boot", spec.tenant_id,
            ram_bytes=spec.ram_bytes, vcpus=spec.vcpus)
        self.stats.admission_records.append(boot)
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
                yield from self._submit_routed(
                    "scale_up", spec.tenant_id,
                    size_bytes=event.size_bytes)
            else:
                # Serve-time resolution: the segment to return is
                # whatever is attached *now*, in whatever pod the
                # tenant lives in by then.
                yield from self._submit_routed("scale_down",
                                               spec.tenant_id)
        if spec.migrate_at_s is not None:
            yield self.sim.timeout(max(
                0.0, booted_at + spec.migrate_at_s - self.sim.now))
            # A rejected intra-pod migration is fine.
            yield from self._submit_routed("migrate", spec.tenant_id)
        yield self.sim.timeout(max(
            0.0, booted_at + spec.lifetime_s - self.sim.now))
        yield from self._submit_routed("depart", spec.tenant_id)
        self._tenant_pod.pop(spec.tenant_id, None)


class FederationController(Federation):
    """The coordinator over the direct port: N pods on one shared
    clock, reached with direct object calls."""

    def __init__(self, systems: Sequence[DisaggregatedSystem], *,
                 placer: Optional[GlobalPlacer] = None,
                 interpod_link_bps: float = DEFAULT_INTERPOD_LINK_BPS,
                 rebalancer: Optional[FederationRebalancer] = None,
                 max_batch: int = 4,
                 batch_window_s: float = 0.001) -> None:
        if not systems:
            raise FederationError("a federation needs at least one pod")
        ids = [system.pod.pod_id if system.pod is not None else f"pod{index}"
               for index, system in enumerate(systems)]
        if len(set(ids)) != len(ids):
            raise FederationError(f"duplicate pod ids in {ids}")
        sim = Simulator()
        pods: dict[str, FederatedPod] = {}
        for pod_id, system in zip(ids, systems):
            plane = ControlPlane(
                system, ctx=ControlContext(sim=sim),
                max_batch=max_batch, batch_window_s=batch_window_s,
                workers=PLANE_WORKERS)
            pods[pod_id] = FederatedPod(pod_id, system, plane)
        super().__init__(sim, pods, placer=placer,
                         interpod_link_bps=interpod_link_bps,
                         rebalancer=rebalancer)

    # -- the direct port ----------------------------------------------------

    def _submit_to(self, pod_id: str, kind: str, tenant_id: str,
                   ram_bytes: int = 0, vcpus: int = 0,
                   size_bytes: int = 0) -> ProcessGenerator:
        request = self.pods[pod_id].plane.submit(
            kind, tenant_id, **plane_payload(kind, tenant_id, ram_bytes,
                                             vcpus, size_bytes))
        yield request.done
        return request.record

    def _drain(self, pod_id: str, tenant_id: str) -> ProcessGenerator:
        tail = self.pods[pod_id].plane.tenant_tail(tenant_id)
        if tail is not None and not tail.triggered:
            yield tail
        return self._footprint(pod_id, tenant_id)

    def _footprint(self, pod_id: str,
                   tenant_id: str) -> Optional[tuple[int, int]]:
        try:
            vm = self.pods[pod_id].system.hosting(tenant_id).vm
        except ReproError:
            return None  # the registration went stale: it departed
        # Boot RAM plus every runtime DIMM (each backed by a remote
        # segment on this side).
        return vm.configured_ram_bytes, vm.vcpus

    def is_idle(self) -> bool:
        """True when every pod's plane is idle and no move is in flight."""
        return (not self._moving
                and all(pod.plane.is_idle()
                        for pod in self.pods.values()))

    # -- operational surface --------------------------------------------------

    def tenant_footprint(self, tenant_id: str) -> int:
        """The tenant's total memory footprint — boot RAM plus every
        hotplugged runtime DIMM — what an inter-pod move must copy."""
        pod = self.pods[self.pod_of(tenant_id)]
        return pod.system.hosting(tenant_id).vm.configured_ram_bytes

    def tenants_hosted_on_rack(self, pod_id: str, rack: str) -> list[str]:
        """Tenants of *pod_id* whose VM runs on one of *rack*'s compute
        bricks, sorted; a tenant in the middle of a move is left out."""
        system = self.pods[pod_id].system
        hosted = []
        for tenant_id in self.tenants_on(pod_id):
            try:
                brick_id = system.hosting(tenant_id).brick_id
            except ReproError:
                continue  # mid-move
            if system.sdm.registry.rack_of(brick_id) == rack:
                hosted.append(tenant_id)
        return hosted

    def submit(self, kind: str, tenant_id: str,
               **payload) -> ClusterRequest:
        """Route a request to the tenant's current pod.

        Callers racing an inter-pod move should use
        :meth:`submit_process` instead, which defers until the move
        resolves (and therefore routes to the tenant's *final* pod).
        A served ``depart`` deregisters the tenant from the federation,
        so routing tables never hold tenants that no longer exist.
        """
        pod_id = self.pod_of(tenant_id)
        request = self.pods[pod_id].plane.submit(
            kind, tenant_id, **payload)
        if kind == "depart":
            def deregister(_event) -> None:
                if request.record.ok:
                    self._deregister(tenant_id, pod_id)
            request.done.callbacks.append(deregister)
        return request

    def submit_process(self, kind: str, tenant_id: str,
                       **payload) -> ProcessGenerator:
        """DES process form of :meth:`submit`: waits out any in-flight
        migration of the tenant, then submits to the pod it landed in.
        Returns the admitted request.
        """
        gate = self._moving.get(tenant_id)
        if gate is not None and not gate.triggered:
            yield gate
        return self.submit(kind, tenant_id, **payload)

    def fail_pod(self, pod_id: str) -> list[str]:
        """Take a whole pod down (fault injection).

        The pod's control plane pauses (queued and future requests park
        until repair), the placer stops routing new tenants to it, and
        the tenants currently living there — returned, sorted — are cut
        off.  Without self-healing they stay down until
        :meth:`restore_pod`; with it, the fault injector boots each
        elsewhere through :meth:`readmit_tenant_process`.
        """
        pod = self.pods.get(pod_id)
        if pod is None:
            raise FederationError(f"unknown pod {pod_id!r}")
        if not pod.alive:
            raise FederationError(f"pod {pod_id!r} is already failed")
        pod.alive = False
        pod.plane.pause()
        return self.tenants_on(pod_id)

    def restore_pod(self, pod_id: str) -> None:
        """Bring a failed pod back; its plane resumes serving."""
        pod = self.pods.get(pod_id)
        if pod is None:
            raise FederationError(f"unknown pod {pod_id!r}")
        if pod.alive:
            raise FederationError(f"pod {pod_id!r} is not failed")
        pod.alive = True
        pod.plane.resume()

    def readmit_tenant_process(self, tenant_id: str) -> ProcessGenerator:
        """DES process: boot a lost tenant's replacement elsewhere.

        The footprint comes from the tenant's committed
        :class:`~repro.federation.placer.PodClaim`; the dead replica is
        fenced (its VM state released, so the repaired pod never
        double-books that capacity) and a fresh boot runs on the
        surviving pod the placer picks — emergency placement, ignoring
        the spill policy but honouring anti-affinity.  The tenant's
        migration gate is held for the duration, so racing lifecycle
        requests route to the final pod.  Returns the new pod id, or
        ``None`` when no surviving pod can take the tenant.
        """
        claim = self.placer.ledger_claim(tenant_id)
        if claim is None or tenant_id in self._moving:
            return None
        source = self.pods.get(claim.pod_id)
        target = self.placer.place_for_readmission(
            tenant_id, claim.ram_bytes, claim.vcpus)
        if target is None:
            self.stats.readmission_failures += 1
            return None
        gate = self.sim.event()
        self._moving[tenant_id] = gate
        try:
            if source is not None and not source.alive:
                try:  # fence the lost replica's bookkeeping
                    source.system.terminate_vm(tenant_id)
                except ReproError:
                    pass  # never fully booted there
            new_claim = self.placer.reserve(
                target, claim.ram_bytes, claim.vcpus,
                tenant_id=tenant_id)
            self._tenant_pod[tenant_id] = target
            boot = yield from self._submit_to(
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

    # -- serving ------------------------------------------------------------

    def serve_trace(self, trace: TenantTrace,
                    home_of: Optional[Callable[[TenantSpec], str]] = None
                    ) -> FederationStats:
        """Drive every tenant lifecycle in *trace* to completion.

        *home_of* overrides the placer's hashed home-pod assignment
        (experiments use it to model skewed locality).  Runs the shared
        simulator until the last tenant departs and returns the
        federation statistics (pod-level stats attached).
        """
        self.sim.run(until=start_arrivals(
            self.sim, trace, lambda spec: self._tenant(spec, home_of)))
        return self._finalize()

    def drain(self) -> FederationStats:
        """Run until all submitted work is served (unit-test helper);
        invalid with a background rebalancer installed (its timer never
        lets the event heap empty)."""
        if self.rebalancer is not None:
            raise FederationError(
                "drain() cannot terminate with a background rebalancer "
                "installed; use serve_trace()")
        self.sim.run()
        return self._finalize()

    def _finalize(self) -> FederationStats:
        self.stats.duration_s = self.sim.now
        for pod in self.pods.values():
            pod.plane.stats.duration_s = self.sim.now
            self.stats.pod_stats[pod.pod_id] = pod.plane.stats
        return self.stats


def build_pod_system(index: int, *,
                     racks_per_pod: int = 2,
                     uplinks_per_rack: Optional[int] = None,
                     compute_bricks: int = 2,
                     compute_cores: int = 16,
                     local_memory: int = gib(1),
                     memory_bricks: int = 2,
                     memory_modules: int = 2,
                     module_size: int = gib(4),
                     section_bytes: int = mib(256),
                     placement: str = "pack") -> DisaggregatedSystem:
    """Build pod ``pod<index>``: a :class:`~repro.core.builder.
    PodBuilder` product with a per-rack :class:`~repro.orchestration.
    sharding.ShardedSdmController` — the PR-4 configuration — so the
    federation stacks on top of, not instead of, controller sharding.

    Both backends build every pod here.  *placement* names the pod's
    intra-pod brick-selection policy (see
    :func:`~repro.orchestration.placement.make_placement_policy`; the
    default keeps the paper's power-aware packing); it travels as a
    name so each pod, in whatever process, instantiates its own policy
    object (policies carry per-pod hot-brick state).
    """
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
    return builder.build()


def build_federation(pod_count: int, *,
                     spill_policy: str = "least-loaded",
                     anti_affinity=None,
                     rebalancer: Optional[FederationRebalancer] = None,
                     interpod_link_bps: float = DEFAULT_INTERPOD_LINK_BPS,
                     max_batch: int = 4,
                     batch_window_s: float = 0.001,
                     **hardware) -> FederationController:
    """Assemble N identically-built pods (:func:`build_pod_system`,
    which takes the *hardware* keywords) under one serial federation."""
    if pod_count < 1:
        raise FederationError("a federation needs at least one pod")
    systems = [build_pod_system(index, **hardware)
               for index in range(pod_count)]
    return FederationController(
        systems,
        placer=GlobalPlacer(spill_policy, anti_affinity=anti_affinity),
        interpod_link_bps=interpod_link_bps, rebalancer=rebalancer,
        max_batch=max_batch, batch_window_s=batch_window_s)
