"""Cluster-scale control-plane sweep: arrival rate × pod size × shards.

The SDM controller is the rack's serialization point: every allocation
passes through its inspect/reserve/configure service (§IV.C), and
Fig. 10 measures that service's agility one request at a time.  This
driver measures it under *traffic*: an open-loop stream of memory
allocation requests (the Fig. 10 operation) at a swept arrival rate is
driven through the event-driven
:class:`~repro.cluster.control_plane.ControlPlane`, against pods of
1..N racks, in two dispatch modes:

* ``per-request`` — the baseline single-threaded SDM-C: one
  configuration generated and pushed per request (``max_batch=1``);
* ``batched`` — reservations still serialize one at a time, but one
  amortized configuration push covers a whole batch.

The third axis is **controller shards**
(:class:`~repro.orchestration.sharding.ShardedSdmController`): each
pod size runs with a single reservation domain (``shards=1``, the
centralized baseline), with one shard per rack, and — on pods of four
racks and up — with an intermediate **half-rack shard count** (racks
grouped two per shard), locating where cross-shard two-phase traffic
starts eating the sharding win.  The control plane runs with
brick-side completion offload, so dispatcher workers free their slots
at reservation commit and the shard critical sections are the only
serialization left.

Reported per cell: p50/p99 allocation latency, admission-queue depth,
dispatcher utilization, pool fragmentation and rejections.  Three
shapes matter: latency and queue depth **rise with arrival rate** (the
critical section saturates — contention is really modeled); at the
highest rate the **batched plane beats the per-request baseline** on
p99 (amortizing ``config_generation_s`` moves the saturation point);
and with per-rack shards the **saturation point moves with shard
count** — the 2-rack pod at the top rate drops from seconds of
per-request p99 under one domain to well under a second with two,
because locality-first placements only take their home shard's lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.cluster.control_plane import ControlPlane
from repro.core.builder import PodBuilder
from repro.core.system import DisaggregatedSystem
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sdm_controller import SdmTimings
from repro.sim.rng import RngRegistry
from repro.units import gib, mib, milliseconds, to_milliseconds

#: Dispatcher workers: enough to overlap every brick-side pipeline, so
#: the SDM-C critical section — not worker count — is what saturates.
WORKER_COUNT = 32

#: Requests per batch in batched mode.
BATCH_SIZE = 8

#: How long a batched worker holds the door for stragglers.
BATCH_WINDOW_S = 0.002

#: Segment sizes drawn per allocation (mixed sizes fragment the pool).
SEGMENT_SIZES = (mib(128), mib(256), mib(512))

#: How long each allocation is held before its paired scale-down.
HOLD_S = 0.4

#: SDM-C timings for the sweep.  Reservation matches the default; the
#: configuration push is modeled at pod scale, where role (d) fans an
#: RPC out to every involved device (glue logic, switch tiers, agents)
#: and dominates the controller's per-request service — exactly the
#: share a batched push amortizes.
POD_SDM_TIMINGS = SdmTimings(reservation_s=milliseconds(5),
                             config_generation_s=milliseconds(10),
                             power_on_s=milliseconds(500))


@dataclass
class ClusterScaleCell:
    """Measurements of one (racks, shards, arrival rate, mode) run."""

    rack_count: int
    shards: int
    arrival_rate_hz: float
    mode: str
    completed: int
    rejected: int
    p50_ms: float
    p99_ms: float
    p50_wait_ms: float
    mean_queue_depth: float
    max_queue_depth: int
    utilization: float
    peak_fragmentation: float
    final_fragmentation: float


@dataclass
class ClusterScaleResult:
    """The sweep: one cell per (racks, shards, rate, mode)."""

    allocation_count: int
    cells: list[ClusterScaleCell] = field(default_factory=list)

    def cell(self, rack_count: int, rate_hz: float, mode: str,
             shards: Optional[int] = None) -> ClusterScaleCell:
        """Look a cell up; ``shards=None`` means the centralized
        (shards=1) controller baseline."""
        wanted = 1 if shards is None else shards
        for candidate in self.cells:
            if (candidate.rack_count == rack_count
                    and candidate.arrival_rate_hz == rate_hz
                    and candidate.mode == mode
                    and candidate.shards == wanted):
                return candidate
        raise KeyError(
            f"no cell for ({rack_count}, {rate_hz}, {mode!r}, "
            f"shards={wanted})")

    @property
    def rates(self) -> list[float]:
        return sorted({cell.arrival_rate_hz for cell in self.cells})

    @property
    def rack_counts(self) -> list[int]:
        return sorted({cell.rack_count for cell in self.cells})

    def shard_counts(self, rack_count: int) -> list[int]:
        return sorted({cell.shards for cell in self.cells
                       if cell.rack_count == rack_count})

    def rows(self) -> list[tuple]:
        rows = []
        for cell in self.cells:
            rows.append((
                cell.rack_count,
                cell.shards,
                f"{cell.arrival_rate_hz:.0f}",
                cell.mode,
                cell.completed,
                cell.rejected,
                f"{cell.p50_ms:.1f}",
                f"{cell.p99_ms:.1f}",
                f"{cell.p50_wait_ms:.1f}",
                f"{cell.mean_queue_depth:.1f}",
                cell.max_queue_depth,
                f"{cell.utilization:.0%}",
                f"{cell.peak_fragmentation:.2f}",
            ))
        return rows

    def render(self) -> str:
        table = render_table(
            ["racks", "shards", "rate (/s)", "mode", "ok", "rej",
             "p50 (ms)", "p99 (ms)", "wait p50 (ms)", "queue",
             "queue max", "util", "frag peak"],
            self.rows(),
            title=f"Cluster control plane: {self.allocation_count} "
                  f"open-loop allocations per cell, "
                  f"batch={BATCH_SIZE} vs per-request dispatch, "
                  f"sharded SDM-C vs single reservation domain")
        lines = [table]
        top = max(self.rates)
        for racks in self.rack_counts:
            for shards in self.shard_counts(racks):
                base = self.cell(racks, top, "per-request", shards)
                batched = self.cell(racks, top, "batched", shards)
                gain = (base.p99_ms / batched.p99_ms
                        if batched.p99_ms else float("inf"))
                lines.append(
                    f"{racks}-rack pod / {shards} shard(s) at "
                    f"{top:.0f}/s: p99 {base.p99_ms:.0f} ms per-request "
                    f"vs {batched.p99_ms:.0f} ms batched "
                    f"({gain:.1f}x tail win from amortized config push)")
            shard_axis = self.shard_counts(racks)
            if len(shard_axis) > 1:
                single = self.cell(racks, top, "per-request",
                                   shard_axis[0])
                sharded = self.cell(racks, top, "per-request",
                                    shard_axis[-1])
                gain = (single.p99_ms / sharded.p99_ms
                        if sharded.p99_ms else float("inf"))
                lines.append(
                    f"{racks}-rack pod at {top:.0f}/s per-request: "
                    f"sharding {shard_axis[0]} -> {shard_axis[-1]} "
                    f"domains cuts p99 {single.p99_ms:.0f} ms -> "
                    f"{sharded.p99_ms:.0f} ms ({gain:.1f}x: the "
                    f"saturation point moves with shard count)")
        lines.append(
            "(per-rack reservation shards + brick-side completion "
            "offload: adding racks now adds controller capacity too)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

def _build_system(rack_count: int,
                  shard_count: int) -> DisaggregatedSystem:
    """A deliberately controller-bound pod.

    The controller is always the sharded facade so the comparison is
    apples-to-apples: ``shard_count=1`` is the centralized baseline
    (one reservation domain), ``shard_count=rack_count`` is per-rack
    sharding.
    """
    return (PodBuilder(f"cluster{rack_count}")
            .with_racks(rack_count)
            .with_compute_bricks(4, cores=16, local_memory=gib(4))
            .with_memory_bricks(3, modules=4, module_size=gib(4))
            .with_section_size(mib(128))
            .with_sdm_timings(POD_SDM_TIMINGS)
            .with_controller_shards(shard_count)
            .build())


def _boot_population(system: DisaggregatedSystem,
                     vm_count: int) -> list[str]:
    """Boot the resident VMs the allocation traffic will target.

    Their RAM fits local DRAM, so the open-loop traffic measures pure
    runtime allocation (the Fig. 10 operation), not boot attachment.
    The population is large (same-tenant operations are serialized, so
    few VMs would bottleneck on per-VM chains instead of the SDM-C) and
    core-sized to fill every compute brick, spreading traffic over all
    RMSTs instead of capping at one brick's 32 entries.
    """
    vm_ids = []
    for index in range(vm_count):
        vm_id = f"vm-{index}"
        system.boot_vm(VmAllocationRequest(
            vm_id=vm_id, vcpus=1, ram_bytes=mib(256)))
        vm_ids.append(vm_id)
    return vm_ids


def _run_cell(rack_count: int, shard_count: int, rate_hz: float,
              mode: str, allocation_count: int,
              seed: int) -> ClusterScaleCell:
    system = _build_system(rack_count, shard_count)
    vm_ids = _boot_population(system, vm_count=64 * rack_count)
    batched = mode == "batched"
    plane = ControlPlane(
        system,
        max_batch=BATCH_SIZE if batched else 1,
        batch_window_s=BATCH_WINDOW_S if batched else 0.0,
        workers=WORKER_COUNT)

    rng = RngRegistry(seed).stream(
        f"cluster_scale.r{rack_count}.s{shard_count}"
        f".a{rate_hz:g}.{mode}")
    gaps = rng.exponential(1.0 / rate_hz, size=allocation_count)
    sizes = rng.choice(SEGMENT_SIZES, size=allocation_count)

    clients = []

    def client(index: int):
        vm_id = vm_ids[index % len(vm_ids)]
        up = plane.submit("scale_up", vm_id,
                          size_bytes=int(sizes[index]))
        yield up.done
        if up.record.ok:
            yield plane.sim.timeout(HOLD_S)
            down = plane.submit(
                "scale_down", vm_id,
                segment_id=up.result.segment.segment_id)
            yield down.done

    def supervisor():
        for index in range(allocation_count):
            yield plane.sim.timeout(float(gaps[index]))
            clients.append(plane.sim.process(client(index)))
        yield plane.sim.all_of(clients)

    plane.sim.run(until=plane.sim.process(supervisor()))
    stats = plane.stats
    stats.duration_s = plane.sim.now

    return ClusterScaleCell(
        rack_count=rack_count,
        shards=shard_count,
        arrival_rate_hz=rate_hz,
        mode=mode,
        completed=len(stats.completed("scale_up")),
        rejected=len(stats.rejected()),
        p50_ms=to_milliseconds(stats.latency_percentile(50, "scale_up")),
        p99_ms=to_milliseconds(stats.latency_percentile(99, "scale_up")),
        p50_wait_ms=to_milliseconds(
            stats.wait_percentile(50, "scale_up")),
        mean_queue_depth=stats.mean_queue_depth,
        max_queue_depth=stats.max_queue_depth,
        utilization=stats.utilization,
        peak_fragmentation=stats.peak_fragmentation,
        final_fragmentation=stats.final_fragmentation,
    )


def run_cluster_scale(rack_counts: tuple[int, ...] = (1, 2, 4, 8),
                      arrival_rates_hz: tuple[float, ...] = (30, 50, 70),
                      allocation_count: int = 400,
                      seed: int = 2018,
                      shards: Optional[int] = None) -> ClusterScaleResult:
    """Sweep arrival rate × pod size × shard count in both modes.

    By default every pod size runs with one reservation domain
    (``shards=1``, the centralized baseline), with one shard per rack,
    and — on pods of 4+ racks — with a half-rack intermediate count
    (e.g. an 8-rack pod sweeps 1, 4 and 8 shards), so the sweep shows
    where between centralized and fully sharded the two-phase
    cross-shard traffic starts to matter.  An explicit *shards* (the
    CLI's ``--set shards=N``) pins the axis to that single count
    instead.
    """
    result = ClusterScaleResult(allocation_count=allocation_count)
    for rack_count in rack_counts:
        shard_axis = ((shards,) if shards is not None
                      else tuple(sorted({1, max(1, rack_count // 2),
                                         rack_count})))
        for shard_count in shard_axis:
            for rate_hz in arrival_rates_hz:
                for mode in ("per-request", "batched"):
                    result.cells.append(_run_cell(
                        rack_count, shard_count, float(rate_hz), mode,
                        allocation_count, seed))
    return result
