"""The benchmark's workloads: seeded inputs, one serve, and its audit.

A workload is a recipe.  From a seed it generates everything the
program receives — a topology spec, an open-loop Poisson tenant trace,
each tenant's home pod and (``ops_M``) a drain schedule — and drives it
through the public ``repro`` API: :func:`~repro.topology.compile_spec`,
``serve_trace`` and, for ``ops_M``, :class:`~repro.faults.FaultInjector`
plus the compiled :class:`~repro.maintenance.MaintenanceSupervisor`.
Every outcome is read back through :class:`~repro.federation.
controller.FederationStats`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.trace import TenantSpec, TenantTrace, poisson_trace
from repro.errors import AllocationError, MaintenanceError
from repro.faults import FaultInjector
from repro.federation.parallel import federation_fingerprint
from repro.federation.rebalancer import FederationRebalancer
from repro.sim.control import RESERVE_WAIT
from repro.topology import TopologySpec, compile_spec, load_spec
from repro.units import gib, mib

#: Every tenant boots 1 vCPU with 2 GiB, more than a compute brick's
#: local DRAM, so every boot draws on the disaggregated pool.
TENANT_RAM_BYTES = gib(2)
#: The balloon step of tenants that scale: up by this much, then down.
SCALE_BYTES = mib(512)
#: Rebalancer settings of the federation experiments.
REBALANCE_INTERVAL_S = 0.25
REBALANCE_THRESHOLD = 0.2
#: ``ops_M`` drains the next pod in rotation this often (simulated).
DRAIN_PERIOD_S = 10.0
#: After the trace, the clock steps this far at a time until every
#: detached tail (departs, moves, drains, repairs) has finished, and
#: gives up loudly after the limit.
SETTLE_STEP_S = 0.5
SETTLE_LIMIT_S = 600.0
#: Lifecycle request kinds counted by ``op_success_fraction``.
OP_KINDS = ("boot", "scale_up", "scale_down", "migrate", "depart")


class AuditError(Exception):
    """A post-serve correctness check failed."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    template: str
    tenants: int
    rate_hz: float
    mean_lifetime_s: float
    #: Share of tenants that scale up and then down by SCALE_BYTES.
    scale_fraction: float
    #: Share of tenants homed on ``pod0``; ``None`` spreads homes evenly.
    hot_share: Optional[float]
    #: ``None`` = the serial controller; an int = parallel worker count.
    workers: Optional[int] = None
    #: Rack-power faults with self-heal plus the drain/restore cycle.
    ops: bool = False
    #: Trace parts whose simulated results a run pools (and the fewest
    #: serves an end-to-end run makes): enough admitted boots for a
    #: p99 that holds still from seed to seed.
    pool: int = 6
    #: Name of the workload whose traces this one serves (default: its
    #: own), so a backend comparison faces literally the same tenants.
    trace_of: str = ""

    @property
    def trace_name(self) -> str:
        return self.trace_of or self.name


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady_L", template="L", tenants=1200, rate_hz=100.0,
        mean_lifetime_s=0.8, scale_fraction=1.0, hot_share=None),
    Workload(
        name="hotspot_M", template="M", tenants=1100, rate_hz=14.0,
        mean_lifetime_s=1.2, scale_fraction=0.0, hot_share=0.75),
    Workload(
        name="ops_M", template="M", tenants=1100, rate_hz=8.0,
        mean_lifetime_s=1.2,
        scale_fraction=0.0, hot_share=0.75, ops=True, pool=20),
    # The parallel backend runs with its in-process fleet: on the 2-core
    # bench host the 2-worker serve's wall time follows the load on both
    # cores, which no calibration in the coordinator tracks (its spread
    # over ten seeds was 33 %), while the in-process fleet runs the same
    # window protocol, hub and pod logic with one fingerprint.
    Workload(
        name="parallel_L0", template="L", tenants=1200, rate_hz=100.0,
        mean_lifetime_s=0.8, scale_fraction=1.0, hot_share=None,
        workers=0, trace_of="steady_L"),
)}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives for one serve."""

    spec: TopologySpec
    trace: TenantTrace
    #: tenant id -> home pod id.
    homes: dict[str, str]
    #: ``(at_s, pod_id)`` drain slots, in order (``ops_M`` only).
    drains: tuple[tuple[float, str], ...]
    fault_seed: int


def make_inputs(workload: Workload, seed: int, part: int = 0) -> Inputs:
    """Generate part *part* of *workload*'s inputs for *seed*.

    The same ``(seed, part)`` always gives the same inputs; a run pools
    its simulated metrics over parts ``0 .. pool-1``.
    """
    part_seed = zlib.crc32(f"{workload.trace_name}:{seed}:{part}".encode())
    base = load_spec(workload.template)
    domains = ([d.to_dict() for d in base.domains
                if d.kind == "rack-power"] if workload.ops else [])
    spec = base.override(domains=domains, maintenance={"windows": []})
    trace = poisson_trace(
        workload.tenants, workload.rate_hz, vcpus=1,
        ram_bytes=TENANT_RAM_BYTES,
        mean_lifetime_s=workload.mean_lifetime_s,
        scale_fraction=workload.scale_fraction, scale_bytes=SCALE_BYTES,
        seed=part_seed, name=workload.trace_name)
    pods = list(spec.pod_ids)
    rng = random.Random(part_seed)
    homes = {}
    for tenant in trace.tenants:
        if workload.hot_share is None:
            homes[tenant.tenant_id] = rng.choice(pods)
        elif rng.random() < workload.hot_share:
            homes[tenant.tenant_id] = pods[0]
        else:
            homes[tenant.tenant_id] = rng.choice(pods[1:])
    drains: tuple[tuple[float, str], ...] = ()
    if workload.ops:
        slots = int(trace.duration_s // DRAIN_PERIOD_S)
        drains = tuple((DRAIN_PERIOD_S * slot, pods[(slot - 1) % len(pods)])
                       for slot in range(1, slots + 1))
    return Inputs(spec=spec, trace=trace, homes=homes, drains=drains,
                  fault_seed=part_seed)


def percentile_ms(values_s: list[float], percentile: float) -> float:
    """Percentile of durations in seconds, in ms (0.0 when empty)."""
    return (float(np.percentile(values_s, percentile)) * 1e3
            if values_s else 0.0)


class FederationRun:
    """One compiled federation serving one workload's inputs."""

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.rebalancer = FederationRebalancer(
            interval_s=REBALANCE_INTERVAL_S,
            imbalance_threshold=REBALANCE_THRESHOLD)
        self.topology = compile_spec(inputs.spec, workers=workload.workers,
                                     rebalancer=self.rebalancer)
        self.federation = self.topology.federation
        self.injector: Optional[FaultInjector] = None
        self.supervisor = None
        #: Drain slots skipped because the supervisor refused to start
        #: (the pod was failed, or no other pod accepted tenants).
        self.drains_refused = 0
        self._cycle = None
        if workload.ops:
            self.injector = FaultInjector(
                self.federation, classes=(), seed=inputs.fault_seed,
                self_heal=True,
                domains=self.topology.failure_domains()).install()
            self.supervisor = self.topology.supervisor(
                injector=self.injector)
            self._cycle = self.federation.sim.process(self._drain_cycle())

    @property
    def serial(self) -> bool:
        return self.workload.workers is None

    def close(self) -> None:
        """Stop the parallel backend's worker processes (if any)."""
        self.topology.close()

    def _home_of(self, spec: TenantSpec) -> str:
        return self.inputs.homes[spec.tenant_id]

    def _drain_cycle(self):
        sim = self.federation.sim
        for at_s, pod_id in self.inputs.drains:
            if at_s > sim.now:
                yield sim.timeout(at_s - sim.now)
            try:
                yield from self.supervisor.drain_pod_process(pod_id)
            except MaintenanceError:
                self.drains_refused += 1
                continue
            yield from self.supervisor.restore_pod_process(pod_id)

    def serve(self):
        """Serve the trace; returns the run's ``FederationStats``."""
        return self.federation.serve_trace(self.inputs.trace,
                                           home_of=self._home_of)

    def events(self) -> int:
        """Simulated events retired so far, summed over every clock."""
        events = self.federation.sim.events_processed
        report = getattr(self.federation, "window_report", None)
        if report is not None:
            events += sum(report.lp_events.values())
        return events

    # -- after the serve -----------------------------------------------------

    def settle(self) -> None:
        """Run the clock until detached tails finish: in-flight departs,
        rebalancer moves, the drain cycle and fault repairs.  The
        parallel backend's pods live in worker processes and its serve
        only returns once every lifecycle is done, so it has no tail
        the coordinator could drive."""
        if not self.serial:
            return
        sim = self.federation.sim
        if self.injector is not None:
            self.injector.stop()
        deadline = sim.now + SETTLE_LIMIT_S
        while not self._quiet():
            if sim.now >= deadline:
                raise AuditError(
                    f"{self.workload.name}: federation still busy "
                    f"{SETTLE_LIMIT_S:g} s after the trace ended")
            sim.run(until=sim.now + SETTLE_STEP_S)

    def _quiet(self) -> bool:
        if not self.federation.is_idle():
            return False
        if self._cycle is not None and self._cycle.is_alive:
            return False
        return self.injector is None or self.injector.quiescent

    def audit(self, stats) -> list[str]:
        """Fail loudly unless the settled federation is consistent.

        Checks that admitted plus refused equals offered, that no
        placer claim is pending, and per pod that allocated bytes
        equal live-segment bytes, that every allocator passes
        ``check_invariants()``, that no shard hold is pending, and that
        every VM still hosted belongs to a tenant whose ``depart``
        failed.  Returns those leaked tenants, sorted: a leak is
        counted, not treated as corruption.  On the parallel backend
        the pods are out of reach, so a leak is a tenant with a failed
        ``depart`` record.
        """
        problems = []
        offered = len(self.inputs.trace)
        if stats.boots_admitted + stats.boots_rejected != offered:
            problems.append(
                f"admitted {stats.boots_admitted} + refused "
                f"{stats.boots_rejected} != offered {offered}")
        claims = self.federation.placer.pending_claims
        if claims:
            problems.append(f"{len(claims)} placer claim(s) pending")
        failed_departs = {r.tenant_id for r in stats.records("depart")
                          if not r.ok}
        if not self.serial:
            leaked = sorted(failed_departs)
        else:
            leaked = []
            for pod_id, pod in sorted(self.federation.pods.items()):
                sdm = pod.system.sdm
                entries = sdm.registry.memory_entries
                allocated = sum(e.allocator.allocated_bytes
                                for e in entries)
                live = sum(s.size for s in sdm.live_segments)
                if allocated != live:
                    problems.append(
                        f"{pod_id}: allocators hold {allocated} bytes "
                        f"but live segments {live}")
                for entry in entries:
                    try:
                        entry.allocator.check_invariants()
                    except AllocationError as exc:
                        problems.append(
                            f"{pod_id}/{entry.brick.brick_id}: {exc}")
                holds = getattr(sdm, "pending_holds", ())
                if holds:
                    problems.append(
                        f"{pod_id}: {len(holds)} shard hold(s) pending")
                for vm in pod.system.vms:
                    if vm.vm_id in failed_departs:
                        leaked.append(vm.vm_id)
                    else:
                        problems.append(
                            f"{pod_id} still hosts {vm.vm_id}, whose "
                            f"depart never failed")
            leaked.sort()
        if problems:
            raise AuditError(f"{self.workload.name}: "
                             + "; ".join(problems))
        return leaked

    def leaked_bytes(self) -> int:
        """Pool bytes still allocated after the settle (serial only)."""
        if not self.serial:
            return 0
        return sum(e.allocator.allocated_bytes
                   for pod in self.federation.pods.values()
                   for e in pod.system.sdm.registry.memory_entries)

    def reserve_waits_s(self) -> list[float]:
        """Simulated shard-domain waits of every reservation (serial
        only: the parallel backend's pods are in worker processes)."""
        if not self.serial:
            return []
        return [record.data
                for pod in self.federation.pods.values()
                for record in pod.plane.ctx.tracer.select(RESERVE_WAIT)]


def outcome(stats, trace: TenantTrace) -> dict:
    """Simulated results of one serve, read from ``FederationStats``.

    ``served`` counts trace tenants whose boot was admitted and none of
    whose requests, on any pod, failed — the goodput numerator.
    ``layers`` holds per-layer metrics under their ``BENCHMARK.json``
    names.
    """
    records = stats.records()
    ops = [r for r in records if r.kind in OP_KINDS]
    troubled = {r.tenant_id for r in records if not r.ok}
    admitted = {r.tenant_id for r in stats.admission_records if r.ok}
    served = sum(1 for t in trace.tenants
                 if t.tenant_id in admitted and t.tenant_id not in troubled)
    pods = list(stats.pod_stats.values())
    return {
        "offered": len(trace),
        "admitted": stats.boots_admitted,
        "served": served,
        "requests": len(ops),
        "failed_requests": sum(1 for r in ops if not r.ok),
        "boot_latencies_ms": [r.latency_s * 1e3
                              for r in stats.admission_records if r.ok],
        "fingerprint": federation_fingerprint(stats),
        "layers": {
            "federation.spills": stats.spills,
            "federation.migrations": stats.migrations,
            "federation.rollbacks": stats.migration_rollbacks,
            "faults.readmissions": stats.readmissions,
            "faults.readmission_failures": stats.readmission_failures,
            "cluster.requests": len(records),
            "cluster.failed": sum(1 for r in records if not r.ok),
            "cluster.wait_p99_ms": percentile_ms(
                [r.wait_s for r in records if r.done], 99),
            "cluster.queue_depth_max": max(
                (p.max_queue_depth for p in pods), default=0),
            "cluster.utilization": (sum(p.utilization for p in pods)
                                    / len(pods) if pods else 0.0),
            "memory.frag_peak": max((p.peak_fragmentation for p in pods),
                                    default=0.0),
            "software.hotplug_failures": sum(
                1 for r in records
                if not r.ok and r.note.startswith("HotplugError")),
        },
    }
