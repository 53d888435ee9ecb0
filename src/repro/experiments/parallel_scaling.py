"""Parallel federation scaling: wall-clock and events/sec vs workers.

The federation tier is the repo's deepest stack and its slowest sweep;
``repro.federation.parallel`` re-hosts it as one OS process per pod
under conservative time-window synchronization.  This driver measures
what that buys: the same 4-pod trace served by

* the **direct-call serial controller** (``build_federation`` — the
  default backend everywhere else; context row, different semantics),
* the parallel backend's **in-process reference** (``workers=0``: same
  message protocol, same rounds, zero process machinery), and
* the parallel backend over **1, 2 and 4 worker processes**.

Reported per cell: wall-clock, events retired across every clock
(coordinator plus pods), events/sec, barrier rounds, and the runner's
busy-time decomposition — ``lp_busy_s`` (total pod work),
``hub_overlapped_s`` (hub work that ran concurrently with the pods'
windows under the pipelined grant) and ``critical_path_s`` (the sum
over rounds of each round's slowest clock).

Two speedups, and why both are reported
---------------------------------------

**Measured speedup** is wall-clock of ``workers=0`` over wall-clock of
``workers=N`` — what this machine actually delivered.  On a box with
fewer free cores than workers it can sit at or below 1x no matter how
parallel the model is: four worker processes on one core just take
turns, and pay pickling on top.

**Critical-path speedup** is the structural bound the decomposition
implies: ``wall / (critical_path + other)``, where ``critical_path``
sums each barrier round's slowest clock — ``max(slowest pod, hub
overlap)``, since the pipelined runner advances the hub *while* the
pods run their windows — and ``other`` is the runner overhead outside
any clock (``wall - lp_busy - hub_overlapped``, floored at zero).
That ratio is the wall-clock a machine with one core per pod plus one
for the hub would approach, with the barrier rounds (the serial
fraction, by Amdahl) charged in full.  It is measured from the same
run, not modeled: the fleet times every LP's advance in every round,
and the runner times the overlapped hub slice.

The timed serves run with the cyclic garbage collector frozen and
paused (restored afterwards): generation-2 collections otherwise land
on arbitrary rounds of arbitrary cells and show up as fake per-pod
spikes in the per-round maxima.  The pause is bench hygiene applied
identically to every backend, not a semantic knob — allocation still
happens, refcounting still frees.

The benchmark asserts the *structural* number and records both; the
checked-in ``BENCH_parallel.json`` carries the host's core count so a
reader can tell which regime produced the measured column.

The scaling cells use a **balanced** home-pod distribution (each pod
homes ~1/pods of the tenants) rather than the federation sweep's 75 %
hot-pod skew: with the skew, one LP owns three quarters of the work
and the critical path collapses to that pod — a placement-policy
property, not a synchronization one.  The sweep's skewed cells remain
the domain experiments; this driver benchmarks the runtime.

Determinism is asserted, not assumed: every parallel cell must produce
the same federation fingerprint whatever the worker count, or the run
fails.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.cluster.trace import poisson_trace
from repro.errors import ConfigurationError
from repro.experiments.federation import (
    TENANT_RAM_BYTES,
    TENANT_VCPUS,
    _home_of,
)
from repro.experiments.kernel_bench import host_facts
from repro.federation.parallel import (
    DEFAULT_SYNC_WINDOW_S,
    federation_fingerprint,
)
from repro.federation.rebalancer import FederationRebalancer
from repro.topology import TopologySpec, compile_spec, load_spec
from repro.units import mib, to_milliseconds

#: The compiled topology of every cell when ``--topology`` is absent.
#: Template ``L`` is this driver's shape made declarative: 4 wide pods
#: (8 compute bricks, 4x8x8GiB memory per rack) under spread
#: placement, so every pod's event stream stays dense and the
#: per-round maxima reflect real work rather than one straggler pod;
#: ``max_batch=1`` admits each boot the moment it arrives (batching
#: idles pods between windows); and a 24 ms conservative sync window —
#: wider windows amortize the per-round hub/runner overhead over more
#: pod work, and 24 ms beat 12, 16, 20 and 32 on the structural number
#: for this trace.
DEFAULT_TOPOLOGY = "L"

#: Fixed load of every cell: a high-rate short-lifetime trace with
#: ballooning, so every pod churns steadily through the run; spill +
#: rebalancer on (the full message vocabulary crosses the wire).
ARRIVAL_RATE_HZ = 200.0
TENANT_COUNT = 800
MEAN_LIFETIME_S = 0.8

#: Worker-process axis (0 = the in-process reference fleet).
DEFAULT_WORKER_AXIS = (0, 1, 2, 4)

#: The structural (critical-path) speedup the 4-pod decomposition must
#: reach at any worker count >= the pod count.
CRITICAL_PATH_TARGET = 2.5


@dataclass
class ParallelScalingCell:
    """One backend's run of the fixed trace."""

    #: ``None`` = the direct-call serial controller; otherwise the
    #: parallel backend's worker-process count (0 = in-process fleet).
    workers: Optional[int]
    wall_s: float
    #: Events retired across every clock: the coordinator's plus (for
    #: parallel cells) every pod LP's.
    events: int
    events_per_s: float
    rounds: int
    lp_busy_s: float
    lp_critical_s: float
    #: Hub work overlapped with pod windows by the pipelined grant.
    hub_overlapped_s: float
    #: Sum over rounds of max(slowest pod, overlapped hub slice).
    critical_path_s: float
    admitted: int
    rejected: int
    spills: int
    p99_boot_ms: float
    fingerprint: str

    @property
    def label(self) -> str:
        if self.workers is None:
            return "serial direct"
        if self.workers == 0:
            return "parallel w=0"
        return f"parallel w={self.workers}"


@dataclass
class ParallelScalingResult:
    """All cells of one scaling run."""

    pod_count: int
    tenant_count: int
    arrival_rate_hz: float
    seed: int
    sync_window_s: float
    wall_s: float = 0.0
    cells: list[ParallelScalingCell] = field(default_factory=list)

    def cell(self, workers: Optional[int]) -> ParallelScalingCell:
        for cell in self.cells:
            if cell.workers == workers:
                return cell
        raise KeyError(f"no cell for workers={workers!r}")

    def measured_speedup(self, workers: int) -> float:
        """Wall-clock of the in-process reference over *workers*."""
        return self.cell(0).wall_s / self.cell(workers).wall_s

    def critical_path_speedup(self) -> float:
        """The structural bound, from the reference run's decomposition.

        In the ``workers=0`` fleet every clock — hub and pods — runs
        on one thread, so its wall-clock is hub work plus total pod
        work plus runner overhead.  Replaying the same rounds with one
        core per pod plus one for the hub would take each round's
        slowest clock instead (``critical_path_s``: the pipelined
        runner advances the hub concurrently with the pods' windows),
        plus the same off-clock runner overhead, charged in full.
        """
        reference = self.cell(0)
        other_s = max(0.0, reference.wall_s - reference.lp_busy_s
                      - reference.hub_overlapped_s)
        parallel_s = reference.critical_path_s + other_s
        return reference.wall_s / parallel_s if parallel_s > 0 else 1.0

    def rows(self) -> list[tuple]:
        rows: list[tuple] = []
        for cell in self.cells:
            if cell.workers is None or cell.workers == 0:
                measured = "--"
            else:
                measured = f"{self.measured_speedup(cell.workers):.2f}x"
            rows.append((
                cell.label,
                f"{cell.wall_s:.2f}",
                cell.events,
                f"{cell.events_per_s / 1e3:.1f}",
                cell.rounds if cell.rounds else "--",
                f"{cell.lp_busy_s:.2f}" if cell.workers is not None
                else "--",
                f"{cell.critical_path_s:.2f}" if cell.workers is not None
                else "--",
                measured,
                cell.admitted,
                cell.spills,
            ))
        return rows

    def render(self) -> str:
        facts = host_facts()
        lines = [render_table(
            ("backend", "wall (s)", "events", "kev/s", "rounds",
             "busy (s)", "crit (s)", "speedup", "ok", "spills"),
            self.rows(),
            title=f"Parallel federation scaling: {self.pod_count} pods, "
                  f"{self.tenant_count} tenants at "
                  f"{self.arrival_rate_hz:g}/s, balanced homes, "
                  f"seed {self.seed}")]
        lines.append("")
        lines.append(
            f"critical-path speedup (structural, >= 1 core/pod): "
            f"{self.critical_path_speedup():.2f}x "
            f"(target >= {CRITICAL_PATH_TARGET:g}x)")
        lines.append(
            f"host: python {facts['python']}, "
            f"{facts['cpu_count']} cpu(s) — the measured column is "
            f"core-count-bound; the structural number is not")
        lines.append(
            "(the serial-direct row is context, not baseline: it "
            "models zero coordinator<->pod latency, so its cell "
            "differs physically from the parallel backend's)")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "benchmark": "parallel_federation",
            "pod_count": self.pod_count,
            "tenant_count": self.tenant_count,
            "arrival_rate_hz": self.arrival_rate_hz,
            "seed": self.seed,
            "sync_window_s": self.sync_window_s,
            "wall_s": round(self.wall_s, 3),
            "host": host_facts(),
            "critical_path_speedup": round(
                self.critical_path_speedup(), 3),
            "critical_path_target": CRITICAL_PATH_TARGET,
            "cells": [
                {
                    "backend": cell.label,
                    "workers": cell.workers,
                    "wall_s": round(cell.wall_s, 3),
                    "events": cell.events,
                    "events_per_s": round(cell.events_per_s),
                    "rounds": cell.rounds,
                    "lp_busy_s": round(cell.lp_busy_s, 3),
                    "lp_critical_s": round(cell.lp_critical_s, 3),
                    "hub_overlapped_s": round(cell.hub_overlapped_s, 3),
                    "critical_path_s": round(cell.critical_path_s, 3),
                    "measured_speedup": (
                        round(self.measured_speedup(cell.workers), 3)
                        if cell.workers else None),
                    "fingerprint": cell.fingerprint,
                }
                for cell in self.cells
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

def _trace(tenant_count: int, seed: int):
    return poisson_trace(
        tenant_count, ARRIVAL_RATE_HZ, vcpus=TENANT_VCPUS,
        ram_bytes=TENANT_RAM_BYTES, mean_lifetime_s=MEAN_LIFETIME_S,
        scale_fraction=1.0, scale_bytes=mib(512), seed=seed,
        name=f"pscale-a{ARRIVAL_RATE_HZ:g}")


def _rebalancer() -> FederationRebalancer:
    return FederationRebalancer(interval_s=0.25,
                                imbalance_threshold=0.2)


class _quiet_gc:
    """Freeze and pause the cyclic GC around a timed serve."""

    def __enter__(self):
        gc.collect()
        gc.freeze()
        gc.disable()

    def __exit__(self, *exc_info):
        gc.enable()
        gc.unfreeze()


def _run_direct(spec: TopologySpec, tenant_count: int,
                seed: int) -> ParallelScalingCell:
    federation = compile_spec(spec, rebalancer=_rebalancer()).federation
    trace = _trace(tenant_count, seed)
    home_of = _home_of(sorted(federation.pods), 1.0 / spec.pods)
    with _quiet_gc():
        start = time.perf_counter()
        stats = federation.serve_trace(trace, home_of=home_of)
        wall = time.perf_counter() - start
    events = federation.sim.events_processed
    return ParallelScalingCell(
        workers=None, wall_s=wall, events=events,
        events_per_s=events / wall, rounds=0,
        lp_busy_s=0.0, lp_critical_s=0.0,
        hub_overlapped_s=0.0, critical_path_s=0.0,
        admitted=stats.boots_admitted, rejected=stats.boots_rejected,
        spills=stats.spills,
        p99_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(99)),
        fingerprint=federation_fingerprint(stats))


def _run_parallel(spec: TopologySpec, workers: int, tenant_count: int,
                  seed: int) -> ParallelScalingCell:
    topo = compile_spec(spec, workers=workers,
                        rebalancer=_rebalancer())
    federation = topo.federation
    try:
        trace = _trace(tenant_count, seed)
        home_of = _home_of(sorted(federation.pods), 1.0 / spec.pods)
        with _quiet_gc():
            start = time.perf_counter()
            stats = federation.serve_trace(trace, home_of=home_of)
            wall = time.perf_counter() - start
        report = federation.window_report
        events = (federation.sim.events_processed
                  + sum(report.lp_events.values()))
    finally:
        federation.close()
    return ParallelScalingCell(
        workers=workers, wall_s=wall, events=events,
        events_per_s=events / wall, rounds=report.rounds,
        lp_busy_s=report.lp_busy_s,
        lp_critical_s=report.lp_critical_s,
        hub_overlapped_s=report.hub_overlapped_s,
        critical_path_s=report.critical_path_s,
        admitted=stats.boots_admitted, rejected=stats.boots_rejected,
        spills=stats.spills,
        p99_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(99)),
        fingerprint=federation_fingerprint(stats))


def run_parallel_scaling(
        worker_axis: tuple[int, ...] = DEFAULT_WORKER_AXIS,
        tenant_count: int = TENANT_COUNT,
        seed: int = 2018,
        profile: bool = False,
        topology: Optional[str] = None) -> ParallelScalingResult:
    """Serve the fixed trace on every backend and compare.

    The topology compiles from *topology* (the CLI ``--topology``
    flag; default template ``L``, this driver's canonical 4-pod
    shape) — its ``fabric.sync_window_s`` sets the conservative
    lookahead.  The worker axis must start at 0 (the in-process
    reference is both the determinism anchor and the wall-clock
    denominator).  Raises :class:`AssertionError` if any parallel
    cell's fingerprint differs from the reference's — worker count
    must never change the simulation.
    """
    del profile  # handled by the runner; accepted for signature parity
    if not worker_axis or worker_axis[0] != 0:
        raise ConfigurationError(
            f"the worker axis must start with 0 (the in-process "
            f"reference), got {worker_axis!r}")
    if any(workers < 0 for workers in worker_axis):
        raise ConfigurationError(
            f"worker counts must be >= 0, got {worker_axis!r}")
    if len(set(worker_axis)) != len(worker_axis):
        raise ConfigurationError(
            f"duplicate worker counts in {worker_axis!r}")
    spec = load_spec(topology if topology is not None
                     else DEFAULT_TOPOLOGY)

    wall_start = time.perf_counter()
    result = ParallelScalingResult(
        pod_count=spec.pods, tenant_count=tenant_count,
        arrival_rate_hz=ARRIVAL_RATE_HZ, seed=seed,
        sync_window_s=(spec.fabric.sync_window_s
                       if spec.fabric.sync_window_s is not None
                       else DEFAULT_SYNC_WINDOW_S))
    result.cells.append(_run_direct(spec, tenant_count, seed))
    for workers in worker_axis:
        result.cells.append(
            _run_parallel(spec, workers, tenant_count, seed))
    reference = result.cell(0).fingerprint
    for workers in worker_axis[1:]:
        cell = result.cell(workers)
        if cell.fingerprint != reference:
            raise AssertionError(
                f"parallel backend diverged at workers={workers}: "
                f"{cell.fingerprint} != {reference}")
    result.wall_s = time.perf_counter() - wall_start
    return result
