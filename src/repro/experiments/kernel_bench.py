"""Kernel throughput trajectory: events/sec across workload shapes.

Every other experiment in this package measures the *simulated* system
(latencies on the DES clock).  This one measures the simulator itself:
how many events per wall-clock second the kernel retires across
workload shapes drawn from the repo's own traffic — so a kernel
regression shows up as a number, not as "the sweeps feel slow".

Shapes
------

``engine_swarm``
    A large population of coroutines, each waiting out a few short
    timeouts drawn from the datamover's grant-serialization band — the
    kernel alone: coroutine resume, timeout pooling, the pending-event
    heap and the run loop.

``admission_70rps``
    The cluster control plane (2 racks, per-rack shards, batched
    admission, completion offload) under open-loop Poisson allocation
    traffic at 70 req/s — the highest rate in the ``cluster_scale``
    sweep.  Mixed event population: batch windows, SDM latencies,
    holds, worker wakeups.

``federation_3pod``
    The 3-pod federation tier serving a skewed multi-tenant Poisson
    trace with spill and the idle-window rebalancer — the deepest
    stack in the repo (placement scoring, two-phase claims,
    migration) on one clock.

Protocol: each shape runs ``reps`` rounds; the reported throughput is
the best round (noise on a shared machine only ever subtracts).  GC is
paused during timed sections — collections traverse the pending set
and would charge the round an arbitrary toll.  Determinism is
asserted, not assumed: each shape fingerprints its final state and the
run fails if any round diverges from the first.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.tables import render_table
from repro.cluster.trace import poisson_trace
from repro.errors import ConfigurationError
from repro.experiments.cluster_scale import (
    BATCH_SIZE,
    BATCH_WINDOW_S,
    HOLD_S,
    SEGMENT_SIZES,
    WORKER_COUNT,
    _boot_population,
    _build_system,
)
from repro.experiments.federation import (
    HOT_POD_SHARE,
    MEAN_LIFETIME_S,
    TENANT_RAM_BYTES,
    TENANT_VCPUS,
    _home_of,
)
from repro.federation.controller import build_federation
from repro.federation.rebalancer import FederationRebalancer
from repro.cluster.control_plane import ControlPlane
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Grant-serialization band: a 64 KiB..192 KiB message on a 25 Gb/s
#: link takes ~20..60 us; the absolute scale is irrelevant to the
#: scheduler (only the spread matters), the bounded shape is the point.
SWARM_DELAY_BAND_S = (0.0005, 0.0015)

#: Engine swarm: coroutines alive at once, and the timeouts they wait
#: out between them.
ENGINE_SWARM_POPULATION = 200_000
ENGINE_SWARM_EVENTS = 400_000

#: The admission shape reuses the cluster_scale cell at its highest
#: swept rate.
ADMISSION_RATE_HZ = 70.0
ADMISSION_RACKS = 2
ADMISSION_ALLOCATIONS = 400

#: Federation shape: the 3-pod sweep column at its highest rate.
FEDERATION_PODS = 3
FEDERATION_RATE_HZ = 20.0
FEDERATION_TENANTS = 120


@dataclass
class KernelBenchCell:
    """One shape's best measured round."""

    shape: str
    events: int
    best_s: float
    events_per_s: float
    peak_queue: int
    fingerprint: str

    @property
    def mevents_per_s(self) -> float:
        return self.events_per_s / 1e6


def host_facts() -> dict:
    """Host metadata stamped into benchmark JSON artifacts: wall-clock
    numbers are meaningless without the interpreter and core count
    that produced them."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class KernelBenchResult:
    """All cells of one benchmark run."""

    reps: int
    seed: int
    #: Wall-clock seconds the whole benchmark took (all reps included —
    #: the cost of regenerating the artifact, not a throughput number).
    wall_s: float = 0.0
    cells: list[KernelBenchCell] = field(default_factory=list)

    def shapes(self) -> list[str]:
        return [cell.shape for cell in self.cells]

    def rows(self) -> list[tuple]:
        return [(cell.shape, cell.events, f"{cell.mevents_per_s:.3f}",
                 cell.peak_queue)
                for cell in self.cells]

    def render(self) -> str:
        return render_table(
            ("shape", "events", "Mev/s", "peak queue"),
            self.rows(),
            title=f"Kernel throughput (best of {self.reps}, "
                  f"seed {self.seed})")

    def to_json(self) -> str:
        payload = {
            "benchmark": "kernel",
            "reps": self.reps,
            "seed": self.seed,
            "wall_s": round(self.wall_s, 3),
            "host": host_facts(),
            "shapes": [
                {
                    "shape": cell.shape,
                    "events": cell.events,
                    "events_per_s": round(cell.events_per_s),
                    "peak_queue": cell.peak_queue,
                    "fingerprint": cell.fingerprint,
                }
                for cell in self.cells
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shape drivers
# ---------------------------------------------------------------------------
#
# Each driver takes a seed and returns
# ``(events, elapsed_s, peak_queue, fingerprint)`` for one round.

def _timed(run: Callable[[], object]) -> tuple[float, object]:
    """Run *run* with GC paused, returning (elapsed_s, its result)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result


def _run_engine_swarm(seed: int) -> tuple[int, float, int, str]:
    rng = random.Random(seed)
    low, high = SWARM_DELAY_BAND_S
    mask = (1 << 16) - 1
    delays = [rng.uniform(low, high) for _ in range(mask + 1)]
    resumes_each = ENGINE_SWARM_EVENTS // ENGINE_SWARM_POPULATION

    sim = Simulator()

    def waiter(offset: int):
        for round_index in range(resumes_each):
            yield sim.timeout(
                delays[(offset + round_index) & mask])

    for offset in range(ENGINE_SWARM_POPULATION):
        sim.process(waiter(offset))

    def run() -> float:
        sim.run()
        return sim.now

    elapsed, now = _timed(run)
    processed = sim.events_processed
    fingerprint = f"t={now:.9f} processed={processed}"
    return processed, elapsed, sim.queue_peak_size, fingerprint


def _run_admission(seed: int) -> tuple[int, float, int, str]:
    # Mirrors cluster_scale._run_cell at the sweep's top rate: same
    # build, same trace, same client shape.
    system = _build_system(ADMISSION_RACKS, ADMISSION_RACKS)
    vm_ids = _boot_population(system, vm_count=64 * ADMISSION_RACKS)
    plane = ControlPlane(
        system, max_batch=BATCH_SIZE, batch_window_s=BATCH_WINDOW_S,
        workers=WORKER_COUNT, offload=True)

    rng = RngRegistry(seed).stream(
        f"kernel_bench.admission.a{ADMISSION_RATE_HZ:g}")
    gaps = rng.exponential(1.0 / ADMISSION_RATE_HZ,
                           size=ADMISSION_ALLOCATIONS)
    sizes = rng.choice(SEGMENT_SIZES, size=ADMISSION_ALLOCATIONS)
    sim = plane.sim
    clients = []

    def client(index: int):
        vm_id = vm_ids[index % len(vm_ids)]
        up = plane.submit("scale_up", vm_id, size_bytes=int(sizes[index]))
        yield up.done
        if up.record.ok:
            yield sim.timeout(HOLD_S)
            down = plane.submit("scale_down", vm_id,
                                segment_id=up.result.segment.segment_id)
            yield down.done

    def supervisor():
        for index in range(ADMISSION_ALLOCATIONS):
            yield sim.timeout(float(gaps[index]))
            clients.append(sim.process(client(index)))
        yield sim.all_of(clients)

    def run() -> float:
        sim.run(until=sim.process(supervisor()))
        return sim.now

    elapsed, now = _timed(run)
    stats = plane.stats
    fingerprint = (f"t={now:.9f} processed={sim.events_processed} "
                   f"completed={len(stats.completed('scale_up'))} "
                   f"rejected={len(stats.rejected())}")
    return sim.events_processed, elapsed, sim.queue_peak_size, fingerprint


def _run_federation(seed: int) -> tuple[int, float, int, str]:
    # Mirrors federation._run_cell (least-loaded spill + rebalancer)
    # at the sweep's 3-pod column and top rate.
    federation = build_federation(
        FEDERATION_PODS, spill_policy="least-loaded",
        rebalancer=FederationRebalancer(interval_s=0.25,
                                        imbalance_threshold=0.2))
    trace = poisson_trace(
        FEDERATION_TENANTS, FEDERATION_RATE_HZ, vcpus=TENANT_VCPUS,
        ram_bytes=TENANT_RAM_BYTES, mean_lifetime_s=MEAN_LIFETIME_S,
        scale_fraction=0.0, seed=seed,
        name=f"kernel-fed-a{FEDERATION_RATE_HZ:g}")
    home_of = _home_of(sorted(federation.pods), HOT_POD_SHARE)

    elapsed, stats = _timed(
        lambda: federation.serve_trace(trace, home_of=home_of))
    sim = federation.sim
    fingerprint = (f"t={sim.now:.9f} processed={sim.events_processed} "
                   f"admitted={stats.boots_admitted} "
                   f"rejected={stats.boots_rejected} "
                   f"spills={stats.spills}")
    return sim.events_processed, elapsed, sim.queue_peak_size, fingerprint


#: shape name -> driver(seed) -> (events, s, peak, fingerprint).
SHAPES: dict[str, Callable[[int], tuple[int, float, int, str]]] = {
    "engine_swarm": _run_engine_swarm,
    "admission_70rps": _run_admission,
    "federation_3pod": _run_federation,
}


def run_kernel_bench(shapes: tuple[str, ...] = tuple(SHAPES),
                     reps: int = 3,
                     seed: int = 2018) -> KernelBenchResult:
    """Measure events/sec per shape; best of *reps* rounds.

    Every round of a shape must fingerprint identically (same final
    time and final counters) — the determinism contract, enforced here.
    """
    for shape in shapes:
        if shape not in SHAPES:
            known = ", ".join(SHAPES)
            raise ConfigurationError(
                f"unknown shape {shape!r}; known: {known}")
    if reps < 1:
        raise ConfigurationError(f"need >= 1 rep, got {reps}")

    wall_start = time.perf_counter()
    result = KernelBenchResult(reps=reps, seed=seed)
    for shape in shapes:
        driver = SHAPES[shape]
        best = driver(seed)
        for _ in range(reps - 1):
            run = driver(seed)
            if run[3] != best[3]:
                raise AssertionError(
                    f"{shape} diverged between rounds: "
                    f"{best[3]} != {run[3]}")
            if run[1] < best[1]:
                best = run
        events, elapsed, peak, fingerprint = best
        result.cells.append(KernelBenchCell(
            shape=shape, events=events, best_s=elapsed,
            events_per_s=events / elapsed, peak_queue=peak,
            fingerprint=fingerprint))
    result.wall_s = time.perf_counter() - wall_start
    return result
