"""Availability under fault injection: failure rate × self-healing.

The federation sweep measures what spill placement buys against a
capacity wall; this driver measures what **self-healing** buys against
failures.  The same multi-tenant Poisson traffic as the federation
sweep's moderate-rate cell (identical trace, identical skewed home-pod
distribution — so the zero-fault row of this table is bit-identical to
that sweep's cell) runs while a
:class:`~repro.faults.injector.FaultInjector` kills memory bricks,
rack uplinks, inter-rack switches and whole pods on MTBF-driven
schedules, twice per failure rate: once with every self-healing
reaction enabled (brick evacuation, link re-queue, pod re-admission
from the placer's committed-claim ledger) and once with reactions off,
where cut-off tenants simply wait out the component repair.

Reported per cell: injected faults, **tenant-seconds of
unavailability** (the headline), observed MTTR, re-admission
success, admitted/rejected tenants and p99 admission latency.  The
summary derives the self-healing **downtime reduction** per failure
rate, and a scripted-outage pair (a declarative
:class:`~repro.faults.injector.FaultPlan`: lose a pod, then a brick,
then an uplink) gives a deterministic headline free of MTBF sampling
variance.  The expected shape: repairing hardware takes tens of
seconds while re-placing a tenant takes about a boot, so self-healing
cuts tenant-seconds of unavailability by well over the
:data:`HEADLINE_SPEEDUP` target at every swept failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.cluster.trace import poisson_trace
from repro.errors import ConfigurationError
from repro.experiments.federation import (
    HOT_POD_SHARE,
    MEAN_LIFETIME_S,
    TENANT_RAM_BYTES,
    TENANT_VCPUS,
    _home_of,
)
from repro.faults import (
    DEFAULT_SPECS,
    FaultClass,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.federation.rebalancer import FederationRebalancer
from repro.topology import TopologySpec, compile_spec, load_spec
from repro.units import to_milliseconds

#: Fixed topology/load of every cell: the federation sweep's
#: moderate-rate configuration, where the pool has headroom — the
#: regime self-healing needs (no reaction can conjure capacity out of
#: a federation already at its wall).
POD_COUNT = 3
ARRIVAL_RATE_HZ = 5.0
TENANT_COUNT = 120
SPILL_POLICY = "least-loaded"

#: The compiled topology of every cell when no ``topology`` is set:
#: template ``M`` builds exactly the federation this driver used to
#: hand-build (:data:`POD_COUNT` pods, least-loaded spill), preserving
#: the zero-fault row's bit-identity with the federation sweep's
#: ``(3 pods, 5/s, least-loaded)`` cell.
DEFAULT_TOPOLOGY = "M"

#: Swept failure rates: one MTBF applied to every fault class (per-class
#: MTTRs keep their :data:`~repro.faults.injector.DEFAULT_SPECS`
#: defaults).  Smaller MTBF = more faults over the same trace.
DEFAULT_MTBF_AXIS = (40.0, 20.0, 10.0)

#: The downtime-reduction factor the summary calls out.
HEADLINE_SPEEDUP = 5.0

#: The deterministic scripted-outage schedule: every fault class hits
#: exactly once on a fixed clock — a shard controller first (takeover
#: is instant with self-healing), then a whole pod mid-trace, a memory
#: brick on a survivor, a rack uplink on the third pod, and finally an
#: inter-rack switch.
SCRIPTED_OUTAGES = (
    (3.0, "shard", "pod1:shard0", 10.0),
    (6.0, "pod", "pod0", 12.0),
    (10.0, "memory_brick", "pod1:pod1.rack0.mb0", 8.0),
    (14.0, "rack_uplink", "pod2:pod2.rack1", 6.0),
    (17.0, "switch", "pod2", 5.0),
)


@dataclass
class AvailabilityCell:
    """Measurements of one (failure schedule, self-heal) run."""

    label: str
    mtbf_s: Optional[float]
    self_heal: bool
    faults: int
    downtime_ts: float
    mttr_s: float
    readmissions: int
    readmission_failures: int
    admitted: int
    rejected: int
    spills: int
    migrations: int
    p50_boot_ms: float
    p99_boot_ms: float
    duration_s: float

    @property
    def readmission_success_rate(self) -> float:
        total = self.readmissions + self.readmission_failures
        return self.readmissions / total if total else 1.0


@dataclass
class AvailabilityResult:
    """The sweep: per failure schedule, self-heal on vs off."""

    tenant_count: int
    arrival_rate_hz: float
    fault_classes: tuple[str, ...]
    pod_count: int = POD_COUNT
    cells: list[AvailabilityCell] = field(default_factory=list)

    def cell(self, label: str, self_heal: bool) -> AvailabilityCell:
        for candidate in self.cells:
            if (candidate.label == label
                    and candidate.self_heal == self_heal):
                return candidate
        raise KeyError(f"no cell for ({label!r}, self_heal={self_heal})")

    @property
    def labels(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.label not in seen:
                seen.append(cell.label)
        return seen

    def downtime_reduction(self, label: str) -> float:
        """No-self-heal downtime over self-heal downtime for one
        failure schedule (``inf`` when self-healing erased it all)."""
        healed = self.cell(label, True).downtime_ts
        unhealed = self.cell(label, False).downtime_ts
        if healed == 0.0:
            return float("inf") if unhealed > 0.0 else 1.0
        return unhealed / healed

    def rows(self) -> list[tuple]:
        rows = []
        for cell in self.cells:
            rows.append((
                cell.label,
                "on" if cell.self_heal else "off",
                cell.faults,
                f"{cell.downtime_ts:.1f}",
                f"{cell.mttr_s:.1f}",
                f"{cell.readmissions}/{cell.readmissions + cell.readmission_failures}",
                cell.admitted,
                cell.rejected,
                f"{cell.p99_boot_ms:.1f}",
            ))
        return rows

    def render(self) -> str:
        table = render_table(
            ["faults", "heal", "count", "down (t·s)", "mttr (s)",
             "readmit", "ok", "rej", "p99 (ms)"],
            self.rows(),
            title=f"Availability under fault injection: "
                  f"{self.tenant_count} tenants at "
                  f"{self.arrival_rate_hz:g}/s over {self.pod_count} "
                  f"pods, classes: {', '.join(self.fault_classes)}")
        lines = [table]
        for label in self.labels:
            try:
                healed = self.cell(label, True)
                unhealed = self.cell(label, False)
            except KeyError:
                continue  # pinned to one self-heal mode: no ratio
            reduction = self.downtime_reduction(label)
            lines.append(
                f"{label}: {unhealed.downtime_ts:.1f} tenant-seconds "
                f"down without self-healing vs {healed.downtime_ts:.1f} "
                f"with — a {reduction:.1f}x reduction"
                + (f" (>= {HEADLINE_SPEEDUP:g}x target)"
                   if reduction >= HEADLINE_SPEEDUP else ""))
        lines.append(
            "(self-healing re-places what a fault cuts off — brick "
            "evacuation, link re-queue, ledger re-admission — in about "
            "a boot time, while the component repair it replaces takes "
            "tens of seconds)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

def _specs_for(mtbf_s: float) -> dict[FaultClass, FaultSpec]:
    """One MTBF across every class; per-class MTTRs keep defaults."""
    return {klass: FaultSpec(klass, mtbf_s=mtbf_s, mttr_s=spec.mttr_s)
            for klass, spec in DEFAULT_SPECS.items()}


def _scripted_plan() -> FaultPlan:
    plan = FaultPlan()
    for at_s, klass, target, duration_s in SCRIPTED_OUTAGES:
        plan.add(at_s, klass, target, duration_s)
    return plan


def _run_cell(spec: TopologySpec, label: str, self_heal: bool,
              seed: int,
              mtbf_s: Optional[float] = None,
              plan: Optional[FaultPlan] = None,
              classes: Optional[tuple[str, ...]] = None
              ) -> AvailabilityCell:
    """One trace under one failure schedule.

    The federation compiles from *spec* (template ``M`` by default —
    the federation sweep's ``(3 pods, 5/s, least-loaded)`` topology
    exactly); the trace and home skew also mirror that sweep's cell,
    so with *mtbf_s* and *plan* both ``None`` the injector schedules
    nothing and the run is bit-identical to the sweep's cell (the
    inertness guarantee).
    """
    rebalancer = FederationRebalancer(interval_s=0.25,
                                      imbalance_threshold=0.2)
    topo = compile_spec(spec, rebalancer=rebalancer)
    federation = topo.federation
    injector = FaultInjector(
        federation,
        specs=_specs_for(mtbf_s) if mtbf_s is not None else None,
        classes=classes if classes is not None
        else (() if mtbf_s is None else None),
        seed=seed,
        self_heal=self_heal,
        plan=plan,
    ).install()
    trace = poisson_trace(
        TENANT_COUNT, ARRIVAL_RATE_HZ, vcpus=TENANT_VCPUS,
        ram_bytes=TENANT_RAM_BYTES, mean_lifetime_s=MEAN_LIFETIME_S,
        scale_fraction=0.0, seed=seed,
        name=f"fed-a{ARRIVAL_RATE_HZ:g}")
    stats = federation.serve_trace(
        trace, home_of=_home_of(sorted(federation.pods), HOT_POD_SHARE))
    metrics = injector.metrics
    downtime = metrics.finalize()
    return AvailabilityCell(
        label=label,
        mtbf_s=mtbf_s,
        self_heal=self_heal,
        faults=metrics.fault_count(),
        downtime_ts=downtime,
        mttr_s=metrics.mttr_s(),
        readmissions=metrics.readmissions,
        readmission_failures=metrics.readmission_failures,
        admitted=stats.boots_admitted,
        rejected=stats.boots_rejected,
        spills=stats.spills,
        migrations=stats.migrations,
        p50_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(50)),
        p99_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(99)),
        duration_s=stats.duration_s,
    )


def _parse_classes(fault_classes: Optional[str]
                   ) -> Optional[tuple[str, ...]]:
    if fault_classes is None:
        return None
    names = tuple(name.strip() for name in fault_classes.split(",")
                  if name.strip())
    known = {klass.value for klass in FaultClass}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown fault classes {', '.join(unknown)}; known: "
            f"{', '.join(sorted(known))}")
    if not names:
        raise ConfigurationError("fault_classes must name at least "
                                 "one class")
    return names


def run_availability(mtbf_axis: tuple[float, ...] = DEFAULT_MTBF_AXIS,
                     seed: int = 2018,
                     mtbf: Optional[float] = None,
                     fault_classes: Optional[str] = None,
                     self_heal: Optional[str] = None,
                     topology: Optional[str] = None
                     ) -> AvailabilityResult:
    """Sweep failure rate × self-healing on/off.

    *mtbf* (the CLI's ``--set mtbf=S``) pins the failure-rate axis to
    one MTBF; *fault_classes* (``--set fault_classes=a,b``) limits
    which classes the injector schedules; *self_heal*
    (``--set self_heal=on|off``) pins the reaction axis — by default
    both modes run and the summary reports the downtime reduction.
    Every sweep also runs the deterministic scripted-outage pair and a
    zero-fault baseline row.

    *topology* (``--set topology=SPEC``) compiles every cell's
    federation from a named template or spec file instead of the
    default :data:`DEFAULT_TOPOLOGY`; it needs at least
    :data:`POD_COUNT` pods because the scripted-outage schedule targets
    pods 0..2 by name.  The sweep runs on the serial federation
    backend only: fault injection and self-healing reach into pod
    internals.
    """
    if mtbf is not None and mtbf <= 0:
        raise ConfigurationError(f"mtbf must be positive, got {mtbf}")
    if self_heal is not None and self_heal not in ("on", "off"):
        raise ConfigurationError(
            f"self_heal must be 'on' or 'off', got {self_heal!r}")
    classes = _parse_classes(fault_classes)
    spec = load_spec(topology if topology is not None
                     else DEFAULT_TOPOLOGY)
    if spec.pods < POD_COUNT:
        raise ConfigurationError(
            f"the availability sweep's scripted outages target pods "
            f"0..{POD_COUNT - 1}; topology {spec.name!r} has only "
            f"{spec.pods} pod(s)")
    axis = (float(mtbf),) if mtbf is not None else mtbf_axis
    heal_modes = ((self_heal == "on",) if self_heal is not None
                  else (True, False))
    result = AvailabilityResult(
        tenant_count=TENANT_COUNT,
        arrival_rate_hz=ARRIVAL_RATE_HZ,
        fault_classes=(classes if classes is not None
                       else tuple(sorted(k.value for k in FaultClass))),
        pod_count=spec.pods,
    )
    for mtbf_s in axis:
        for heal in heal_modes:
            result.cells.append(_run_cell(
                spec, f"mtbf={mtbf_s:g}s", heal, seed,
                mtbf_s=float(mtbf_s), classes=classes))
    for heal in heal_modes:
        result.cells.append(_run_cell(
            spec, "scripted", heal, seed, plan=_scripted_plan(),
            classes=()))
    result.cells.append(_run_cell(spec, "none", True, seed))
    return result
