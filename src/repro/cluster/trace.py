"""Open-loop tenant arrival traces for the cluster control plane.

The SDM controller's agility under load (Fig. 10) depends on the shape
of the offered traffic, not only its volume.  A :class:`TenantTrace` is
a time-ordered sequence of :class:`TenantSpec` records — each one a
tenant whose VM arrives, boots, scales, possibly migrates, and departs
— and three generators cover the canonical shapes of multi-tenant
demand:

* :func:`poisson_trace` — memoryless arrivals at a constant rate, the
  M/G/1-style baseline;
* :func:`diurnal_trace` — a sinusoidal day/night rate profile
  (generated by thinning), the capacity-planning shape;
* :func:`bursty_trace` — on/off batch arrivals (deployment waves,
  auto-scaler storms) that stress the admission queue hardest.

All generators draw from named :class:`~repro.sim.rng.RngRegistry`
streams, so a trace is fully reproducible from ``(generator, seed)``
and scales to thousands of tenants.

Measured arrival processes are supported too: :class:`ReplayTrace`
loads the Azure/Google public cluster-trace column shape (VM id,
arrival time, lifetime, memory size — header synonyms of both formats
are recognized) from a CSV and yields the same
:class:`TenantSpec` stream as the generators, so a federation can
replay real logs with no other code change.

:func:`start_arrivals` turns a trace into offered load on a simulator:
the ``serve_trace`` of both federation backends starts its tenant
lifecycles through it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ConfigurationError
from repro.sim.engine import Event, ProcessGenerator, Simulator
from repro.sim.rng import RngRegistry
from repro.units import gib


@dataclass(frozen=True)
class ScaleEvent:
    """One runtime memory adjustment, relative to boot completion."""

    #: Offset from the tenant's boot completion, in seconds.
    at_s: float
    #: ``"up"`` grows the VM by *size_bytes*; ``"down"`` returns the
    #: most recently attached runtime segment.
    kind: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.kind not in ("up", "down"):
            raise ConfigurationError(
                f"scale event kind must be 'up' or 'down', got {self.kind!r}")
        if self.at_s < 0:
            raise ConfigurationError("scale event offset must be >= 0")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's whole lifecycle, as offered load."""

    tenant_id: str
    arrival_s: float
    vcpus: int
    ram_bytes: int
    lifetime_s: float
    scale_events: tuple[ScaleEvent, ...] = ()
    #: When set, request a migration this long after boot completion.
    migrate_at_s: Optional[float] = None


@dataclass
class TenantTrace:
    """A time-ordered open-loop arrival trace."""

    name: str
    tenants: list[TenantSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tenants.sort(key=lambda t: (t.arrival_s, t.tenant_id))

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0.0 for an empty trace)."""
        if not self.tenants:
            return 0.0
        return self.tenants[-1].arrival_s

    @property
    def arrival_rate_hz(self) -> float:
        """Mean offered arrival rate over the trace window."""
        if len(self.tenants) < 2 or self.duration_s == 0:
            return 0.0
        return (len(self.tenants) - 1) / self.duration_s

    def request_count(self) -> int:
        """Control-plane requests this trace will generate (boot +
        scale events + optional migrate + depart per tenant)."""
        total = 0
        for tenant in self.tenants:
            total += 2 + len(tenant.scale_events)
            if tenant.migrate_at_s is not None:
                total += 1
        return total


def start_arrivals(sim: Simulator, trace: TenantTrace,
                   lifecycle: Callable[[TenantSpec], ProcessGenerator]
                   ) -> Event:
    """Start ``lifecycle(spec)`` as a DES process when each tenant arrives.

    One arrival process walks the time-ordered trace: a tenant starts
    at exactly ``t0 + spec.arrival_s``, where ``t0`` is the time of
    this call, and tenants due at the same instant start back to back,
    in trace order, before any event their starts schedule.  Nothing
    is created ahead of an arrival and nothing is kept after a
    lifecycle ends, so a serve's memory follows the tenants in flight,
    not the length of the trace.

    Returns an event that succeeds, with no value, once every
    lifecycle has ended, or fails with the first exception a lifecycle
    raises, at the time it raises.  Both federation backends'
    ``serve_trace`` run :meth:`~repro.federation.controller.Federation.
    _tenant` through it; the pod control plane runs no lifecycle.
    """
    tenants = trace.tenants
    start_s = sim.now
    done = sim.event()
    outstanding = len(tenants)

    def ended(process: Event) -> None:
        nonlocal outstanding
        if done.triggered:
            return
        if not process.ok:
            done.fail(process.value)
            return
        outstanding -= 1
        if not outstanding:
            done.succeed()

    def arrive() -> ProcessGenerator:
        for spec in tenants:
            due = start_s + spec.arrival_s
            if due != sim.now:
                yield sim.timeout_at(due)
            sim.process(lifecycle(spec)).callbacks.append(ended)

    sim.process(arrive())
    if not tenants:
        done.succeed()
    return done


# ---------------------------------------------------------------------------
# trace replay from real cluster logs
# ---------------------------------------------------------------------------

#: Header synonyms of the public cluster-trace formats, normalized to
#: lower-case with spaces collapsed to underscores.  One name per group
#: must be present (vCPUs fall back to ``default_vcpus``).
_ID_COLUMNS = ("vm_id", "vmid", "machine_id", "instance_id", "vm")
_ARRIVAL_COLUMNS = ("arrival_s", "arrival", "arrival_time", "vmcreated",
                    "start_time", "submit_time", "timestamp")
_LIFETIME_COLUMNS = ("lifetime_s", "lifetime", "duration_s", "duration")
_END_COLUMNS = ("vmdeleted", "end_time", "finish_time")
_MEMORY_COLUMNS = ("mem_bytes", "memory_bytes", "ram_bytes",
                   "vmmemory", "memory_gb", "mem_gb", "memory")
#: Memory columns reported in GiB rather than bytes (the Azure shape).
_GIB_MEMORY_COLUMNS = frozenset(
    {"vmmemory", "memory_gb", "mem_gb", "memory"})
_VCPU_COLUMNS = ("vcpus", "vmcorecount", "core_count", "cores", "cpus")


def _pick_column(header: list[str], names: tuple[str, ...]) -> Optional[str]:
    for name in names:
        if name in header:
            return name
    return None


@dataclass
class ReplayTrace(TenantTrace):
    """A :class:`TenantTrace` replayed from a measured cluster log.

    Same event stream as the generated traces (arrive, boot, live,
    depart) so every control-plane consumer — :class:`~repro.cluster.\
control_plane.ControlPlane`, the federation tier, the experiment
    drivers — takes a replay interchangeably with a generator.
    """

    #: Where the rows came from (the CSV path), for provenance.
    source: str = ""

    @classmethod
    def from_csv(cls, path: Union[str, Path], *,
                 name: Optional[str] = None,
                 default_vcpus: int = 1,
                 max_tenants: Optional[int] = None) -> "ReplayTrace":
        """Load the Azure/Google public cluster-trace column shape.

        The loader accepts a headered CSV carrying, under any of the
        recognized synonyms, a VM id, an arrival time, a lifetime
        (directly, or derived from an end-time column), and a memory
        size (bytes, or GiB for the Azure-style ``vmmemory`` /
        ``*_gb`` columns).  A vCPU column is honoured when present.
        Arrivals are re-based so the replay starts at t=0; rows are
        time-ordered by :class:`TenantTrace`'s invariant.
        """
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ConfigurationError(f"{path} has no CSV header")
            normalized = {
                raw: raw.strip().lower().replace(" ", "_")
                for raw in reader.fieldnames}
            header = list(normalized.values())
            id_col = _pick_column(header, _ID_COLUMNS)
            arrival_col = _pick_column(header, _ARRIVAL_COLUMNS)
            lifetime_col = _pick_column(header, _LIFETIME_COLUMNS)
            end_col = _pick_column(header, _END_COLUMNS)
            memory_col = _pick_column(header, _MEMORY_COLUMNS)
            vcpu_col = _pick_column(header, _VCPU_COLUMNS)
            missing = [label for label, col in (
                ("vm id", id_col), ("arrival time", arrival_col),
                ("lifetime or end time", lifetime_col or end_col),
                ("memory size", memory_col)) if col is None]
            if missing:
                raise ConfigurationError(
                    f"{path} is missing required cluster-trace "
                    f"column(s): {', '.join(missing)} "
                    f"(recognized header synonyms: Azure/Google shapes)")
            rows = []
            for number, raw_row in enumerate(reader, start=2):
                row = {normalized[key]: value
                       for key, value in raw_row.items()
                       if key is not None}
                rows.append(cls._parse_row(
                    row, number, path, id_col, arrival_col,
                    lifetime_col, end_col, memory_col, vcpu_col,
                    default_vcpus))
                if max_tenants is not None and len(rows) >= max_tenants:
                    break
        if not rows:
            raise ConfigurationError(f"{path} holds no tenant rows")
        base = min(arrival for arrival, _spec in rows)
        tenants = [
            TenantSpec(
                tenant_id=spec.tenant_id,
                arrival_s=arrival - base,
                vcpus=spec.vcpus,
                ram_bytes=spec.ram_bytes,
                lifetime_s=spec.lifetime_s,
            )
            for arrival, spec in rows]
        return cls(name=name or path.stem, tenants=tenants,
                   source=str(path))

    @staticmethod
    def _parse_row(row: dict, number: int, path: Path, id_col: str,
                   arrival_col: str, lifetime_col: Optional[str],
                   end_col: Optional[str], memory_col: str,
                   vcpu_col: Optional[str],
                   default_vcpus: int) -> tuple[float, TenantSpec]:
        """One CSV row -> ``(raw_arrival, spec)`` (arrival un-based)."""
        def field_of(column: str) -> str:
            value = (row.get(column) or "").strip()
            if not value:
                raise ConfigurationError(
                    f"{path}:{number}: empty {column!r} field")
            return value

        tenant_id = field_of(id_col)
        try:
            arrival = float(field_of(arrival_col))
            if lifetime_col is not None:
                lifetime = float(field_of(lifetime_col))
            else:
                lifetime = float(field_of(end_col)) - arrival
            memory = float(field_of(memory_col))
            vcpus = (int(float(field_of(vcpu_col)))
                     if vcpu_col is not None else default_vcpus)
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{number}: malformed numeric field "
                f"({exc})") from None
        if lifetime <= 0:
            raise ConfigurationError(
                f"{path}:{number}: non-positive lifetime for "
                f"{tenant_id!r} (arrival after departure?)")
        if memory <= 0 or vcpus < 1:
            raise ConfigurationError(
                f"{path}:{number}: {tenant_id!r} needs positive "
                f"memory and >= 1 vCPU")
        ram_bytes = (gib(memory) if memory_col in _GIB_MEMORY_COLUMNS
                     else int(memory))
        return arrival, TenantSpec(
            tenant_id=tenant_id, arrival_s=arrival, vcpus=vcpus,
            ram_bytes=ram_bytes, lifetime_s=lifetime)


# ---------------------------------------------------------------------------
# replica groups
# ---------------------------------------------------------------------------

#: Suffix separating a tenant id from its replica-group tag.
REPLICA_GROUP_SEP = "~g"


def replica_group_of(tenant_id: str) -> str:
    """The tenant's replica-group key ("" when ungrouped).

    The inverse of :func:`with_replica_groups`' id rewriting; pass it
    as :class:`~repro.federation.placer.GlobalPlacer`'s
    ``anti_affinity`` so group members land on distinct pods.
    """
    base, sep, group = tenant_id.rpartition(REPLICA_GROUP_SEP)
    if not sep or not base or not group.isdigit():
        return ""
    return f"{REPLICA_GROUP_SEP}{group}"


def with_replica_groups(trace: TenantTrace, group_size: int, *,
                        name: Optional[str] = None) -> TenantTrace:
    """Tag consecutive tenants into replica groups of *group_size*.

    Rewrites each tenant id with a ``~g<group>`` suffix (recoverable
    via :func:`replica_group_of`); consecutive arrivals form a group —
    the deployment-wave shape where one service's replicas arrive
    together and must not share a failure domain.  ``group_size=1``
    returns an equivalent ungrouped-semantics trace (every group is a
    singleton).
    """
    if group_size < 1:
        raise ConfigurationError(
            f"replica group size must be >= 1, got {group_size}")
    tenants = [
        replace(spec,
                tenant_id=(f"{spec.tenant_id}{REPLICA_GROUP_SEP}"
                           f"{index // group_size:04d}"))
        for index, spec in enumerate(trace.tenants)]
    return TenantTrace(
        name=name or f"{trace.name}-g{group_size}", tenants=tenants)


# ---------------------------------------------------------------------------
# shared tenant-shape sampling
# ---------------------------------------------------------------------------

def _make_tenant(name: str, index: int, arrival_s: float, shape_rng,
                 vcpus: int, ram_bytes: int, mean_lifetime_s: float,
                 scale_fraction: float, scale_bytes: int,
                 migrate_fraction: float) -> TenantSpec:
    """Sample the non-arrival dimensions of one tenant."""
    lifetime = float(shape_rng.exponential(mean_lifetime_s))
    lifetime = max(lifetime, 0.05 * mean_lifetime_s)
    events: list[ScaleEvent] = []
    if shape_rng.random() < scale_fraction:
        up_at = float(shape_rng.uniform(0.15, 0.45)) * lifetime
        down_at = float(shape_rng.uniform(0.55, 0.85)) * lifetime
        events.append(ScaleEvent(up_at, "up", scale_bytes))
        events.append(ScaleEvent(down_at, "down", scale_bytes))
    migrate_at: Optional[float] = None
    if shape_rng.random() < migrate_fraction:
        migrate_at = float(shape_rng.uniform(0.3, 0.7)) * lifetime
    return TenantSpec(
        tenant_id=f"{name}-t{index:05d}",
        arrival_s=arrival_s,
        vcpus=vcpus,
        ram_bytes=ram_bytes,
        lifetime_s=lifetime,
        scale_events=tuple(sorted(events, key=lambda e: e.at_s)),
        migrate_at_s=migrate_at,
    )


def _validate(tenant_count: int, rate_hz: float) -> None:
    if tenant_count < 1:
        raise ConfigurationError(
            f"need at least one tenant, got {tenant_count}")
    if rate_hz <= 0:
        raise ConfigurationError(
            f"arrival rate must be positive, got {rate_hz}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def poisson_trace(tenant_count: int, arrival_rate_hz: float, *,
                  vcpus: int = 1, ram_bytes: int = gib(2),
                  mean_lifetime_s: float = 2.0,
                  scale_fraction: float = 0.4,
                  scale_bytes: int = gib(1),
                  migrate_fraction: float = 0.0,
                  seed: int = 2018,
                  name: str = "poisson") -> TenantTrace:
    """Memoryless arrivals: exponential inter-arrival times."""
    _validate(tenant_count, arrival_rate_hz)
    rngs = RngRegistry(seed)
    arrival_rng = rngs.stream(f"trace.{name}.arrivals")
    shape_rng = rngs.stream(f"trace.{name}.shape")
    now = 0.0
    tenants = []
    for index in range(tenant_count):
        now += float(arrival_rng.exponential(1.0 / arrival_rate_hz))
        tenants.append(_make_tenant(
            name, index, now, shape_rng, vcpus, ram_bytes,
            mean_lifetime_s, scale_fraction, scale_bytes,
            migrate_fraction))
    return TenantTrace(name=name, tenants=tenants)


def diurnal_trace(tenant_count: int, base_rate_hz: float, *,
                  peak_factor: float = 3.0, period_s: float = 20.0,
                  vcpus: int = 1, ram_bytes: int = gib(2),
                  mean_lifetime_s: float = 2.0,
                  scale_fraction: float = 0.4,
                  scale_bytes: int = gib(1),
                  migrate_fraction: float = 0.0,
                  seed: int = 2018,
                  name: str = "diurnal") -> TenantTrace:
    """Sinusoidal day/night arrivals via Lewis-Shedler thinning.

    The instantaneous rate swings between ``base`` and
    ``base * peak_factor`` over each *period_s*; candidate arrivals are
    generated at the peak rate and accepted with probability
    ``rate(t) / peak``.
    """
    _validate(tenant_count, base_rate_hz)
    if peak_factor < 1.0:
        raise ConfigurationError(
            f"peak factor must be >= 1, got {peak_factor}")
    rngs = RngRegistry(seed)
    arrival_rng = rngs.stream(f"trace.{name}.arrivals")
    shape_rng = rngs.stream(f"trace.{name}.shape")
    peak_rate = base_rate_hz * peak_factor
    now = 0.0
    tenants = []
    index = 0
    while index < tenant_count:
        now += float(arrival_rng.exponential(1.0 / peak_rate))
        # rate(t) oscillates between base and peak (phase chosen so the
        # trace starts mid-slope, like sampling a day at 06:00).
        swing = 0.5 * (1.0 + math.sin(2.0 * math.pi * now / period_s))
        rate = base_rate_hz + (peak_rate - base_rate_hz) * swing
        if arrival_rng.random() >= rate / peak_rate:
            continue
        tenants.append(_make_tenant(
            name, index, now, shape_rng, vcpus, ram_bytes,
            mean_lifetime_s, scale_fraction, scale_bytes,
            migrate_fraction))
        index += 1
    return TenantTrace(name=name, tenants=tenants)


def bursty_trace(tenant_count: int, arrival_rate_hz: float, *,
                 mean_burst_size: float = 8.0,
                 intra_burst_gap_s: float = 0.001,
                 vcpus: int = 1, ram_bytes: int = gib(2),
                 mean_lifetime_s: float = 2.0,
                 scale_fraction: float = 0.4,
                 scale_bytes: int = gib(1),
                 migrate_fraction: float = 0.0,
                 seed: int = 2018,
                 name: str = "bursty") -> TenantTrace:
    """On/off arrivals: geometric-size bursts at the same mean rate.

    Burst *leaders* arrive as a Poisson process slowed by the mean
    burst size (so the long-run tenant rate still equals
    *arrival_rate_hz*); followers land *intra_burst_gap_s* apart.  This
    is the deployment-wave shape that maximizes admission-queue depth
    for a given mean load.
    """
    _validate(tenant_count, arrival_rate_hz)
    if mean_burst_size < 1.0:
        raise ConfigurationError(
            f"mean burst size must be >= 1, got {mean_burst_size}")
    rngs = RngRegistry(seed)
    arrival_rng = rngs.stream(f"trace.{name}.arrivals")
    shape_rng = rngs.stream(f"trace.{name}.shape")
    leader_rate = arrival_rate_hz / mean_burst_size
    now = 0.0
    tenants = []
    index = 0
    while index < tenant_count:
        now += float(arrival_rng.exponential(1.0 / leader_rate))
        burst = int(arrival_rng.geometric(1.0 / mean_burst_size))
        for member in range(min(burst, tenant_count - index)):
            tenants.append(_make_tenant(
                name, index, now + member * intra_burst_gap_s,
                shape_rng, vcpus, ram_bytes, mean_lifetime_s,
                scale_fraction, scale_bytes, migrate_fraction))
            index += 1
    return TenantTrace(name=name, tenants=tenants)
