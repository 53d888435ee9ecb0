"""Federation serve benchmark: one workload, one seed, one run.

From the repository root::

    python3 fedbench/run.py --workload steady_L --seed 1 --seconds 25 --trace 0

A run serves the workload's seeded trace parts again and again until
``--seconds`` have passed.  Each serve runs in a forked child of this
process — set-up, serve, settle, correctness audit — so the child's
resident-memory high-water mark belongs to that serve alone, and every
serve pays its own set-up.  ``--trace 0`` prints the end-to-end
metrics: host figures are medians over the serves, scaled to a
reference host speed by a calibration loop timed in the same process
right before and after the serve; simulated figures are pooled over
trace parts ``0 .. pool-1``.  ``--trace 1`` alternates
untraced and traced serves of the same parts and prints the per-layer
metrics (see ``fedbench/tracer.py``).  Metric names and units are those
of ``BENCHMARK.json``.  The last line of standard output is one JSON
object; the run also appends a full result record to
``.fedbench/results.jsonl`` (``--results``), which
``fedbench/compare.py`` reads.  The exit status is non-zero when any
correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

# The benchmark forks one child per serve; forking is only safe while
# the process has no helper threads, so numerical libraries stay
# single-threaded (the serve path does no linear algebra).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import numpy as np

    from fedbench.tracer import Tracer
    from fedbench.workloads import (
        WORKLOADS,
        FederationRun,
        Workload,
        make_inputs,
        outcome,
        percentile_ms,
    )
    from repro.experiments.kernel_bench import host_facts
except ImportError as exc:
    sys.exit(f"fedbench: cannot import the program under test ({exc}); "
             f"run from the root of a repository checkout")

SCHEMA = "fedbench/1"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_RESULTS = ROOT / ".fedbench" / "results.jsonl"
#: The calibration: a fixed pure-Python loop of this many iterations,
#: timed (best of CALIBRATION_REPEATS) before and after every serve.
CALIBRATION_LOOPS = 200_000
CALIBRATION_REPEATS = 3
#: Calibration time of the reference host speed host metrics are
#: scaled to: the 2-core bench host at its quietest.  The bench host
#: slows by 25-50 % for minutes at a time, and the loop, timed in the
#: serving process, slows with it.
REFERENCE_CALIBRATION_S = 0.0085
#: Fewest untraced/traced pairs a ``--trace 1`` run makes.
TRACED_MIN_PAIRS = 2
#: Registry walks counted as ``orchestration.availability_*``.
AVAILABILITY_CALLS = ("ResourceRegistry.compute_availability",
                      "ResourceRegistry.memory_availability")


# ---------------------------------------------------------------------------
# one serve (runs in a forked child)
# ---------------------------------------------------------------------------

def serve_once(workload: Workload, seed: int, part: int,
               traced: bool) -> dict:
    """Set up, serve, settle and audit one trace part; returns plain
    data, with per-layer figures under their metric names (``layers``
    simulated, ``traced_layers`` host).  Raises when a correctness
    check fails."""
    calibration_s = calibrate()
    tracer = Tracer().install() if traced else None
    try:
        started = time.perf_counter()
        inputs = make_inputs(workload, seed, part)
        compile_started = time.perf_counter()
        run = FederationRun(workload, inputs)
        ready = time.perf_counter()
        try:
            if tracer is not None:
                tracer.reset()
            begin = time.perf_counter()
            stats = run.serve()
            serve_s = time.perf_counter() - begin
            peak_rss_kib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.uninstall()
            report = getattr(run.federation, "window_report", None)
            result = outcome(stats, inputs.trace)
            result.update(
                setup_s=ready - started,
                compile_s=ready - compile_started,
                serve_s=serve_s,
                peak_rss_mib=peak_rss_kib / 1024,
                events=run.events())
            layers = result["layers"]
            layers.update({
                "sim.events": result["events"],
                "sim.queue_peak": run.federation.sim.queue_peak_size,
                "federation.rebalance_passes": run.rebalancer.report.passes,
                "parallel.rounds": report.rounds if report else 0})
            if tracer is not None:
                result["traced_layers"] = traced_layers(tracer, serve_s,
                                                        report)
                result["rows"] = tracer.rows()
                result["missing"] = tracer.missing
            run.settle()
            layers["federation.leaked_tenants"] = len(run.audit(stats))
            layers["memory.leaked_bytes"] = run.leaked_bytes()
            waits = run.reserve_waits_s()
            layers["orchestration.reserve_waits"] = len(waits)
            layers["orchestration.reserve_wait_p99_ms"] = percentile_ms(
                waits, 99)
            layers.update(operations(run))
            result["drains_refused"] = run.drains_refused
            result["calibration_s"] = (calibration_s + calibrate()) / 2
            return result
        finally:
            run.close()
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_layers(tracer: Tracer, serve_s: float, report) -> dict:
    """Host per-layer metrics of one traced serve."""
    self_s = tracer.layer_self_s()
    # Wall time of the serve outside every span (the harness's own
    # call overhead) completes the attribution.
    self_s["unattributed"] += serve_s - tracer.root_s
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update({
        "sim.queue_s": sum(row["total_s"] for row in tracer.rows()
                           if row["layer"] == "sim"
                           and row["entry"].startswith("queue.")),
        "orchestration.availability_calls": sum(
            tracer.calls("orchestration", key)
            for key in AVAILABILITY_CALLS),
        "orchestration.availability_s": sum(
            tracer.inclusive_s("orchestration", key)
            for key in AVAILABILITY_CALLS),
        "federation.placements": tracer.calls("federation",
                                              "GlobalPlacer.place"),
        "federation.snapshots": tracer.calls("federation",
                                             "GlobalPlacer.snapshot"),
        "memory.allocs": tracer.calls("memory", "SegmentAllocator.allocate"),
        "memory.frees": tracer.calls("memory", "SegmentAllocator.free"),
    })
    for name in ("lp_busy_s", "critical_path_s", "hub_overlapped_s"):
        metrics[f"parallel.{name}"] = getattr(report, name) if report else 0.0
    return metrics


def operations(run: FederationRun) -> dict:
    """Drain and fault outcomes as per-layer metrics (``ops_M``; zeros
    elsewhere)."""
    reports = run.supervisor.reports if run.supervisor is not None else []
    started = len(reports)
    committed = sum(1 for r in reports if r.committed)
    metrics = run.injector.metrics if run.injector is not None else None
    return {
        "maintenance.drains": started,
        "maintenance.drains_aborted": sum(1 for r in reports if r.aborted),
        "maintenance.drain_commit_fraction": (committed / started
                                              if started else 0.0),
        "maintenance.tenants_moved": sum(r.tenants_migrated
                                         for r in reports),
        "maintenance.segments_moved": sum(r.segments_moved for r in reports),
        "maintenance.rollback_moves": sum(r.rollback_moves for r in reports),
        "faults.fired": metrics.fault_count() if metrics else 0,
        "faults.downtime_tenant_s": metrics.finalize() if metrics else 0.0,
    }


def in_child(function, *args) -> dict:
    """Run ``function(*args)`` in a forked child and return its result
    (or ``{"error": ...}``); always waits for the child to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                payload = function(*args)
                status = 0
            except Exception as exc:
                payload = {"error": f"{type(exc).__name__}: {exc}",
                           "traceback": traceback.format_exc()}
            with os.fdopen(write_end, "w") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end) as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"serve process ended without a result "
                         f"(wait status {status})"}
    return json.loads(data)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Best-of-N seconds of a fixed pure-Python loop: the speed of the
    host, as this process sees it, right now."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for index in range(CALIBRATION_LOOPS):
            total += index
        best = min(best, time.perf_counter() - start)
    return best


def speed(serve: dict) -> float:
    """The serve's host speed relative to the reference host (> 1 on a
    host running faster than the reference)."""
    return REFERENCE_CALIBRATION_S / serve["calibration_s"]


def measure(workload: Workload, seed: int, seconds: float,
            trace: int) -> list[dict]:
    """Serve until *seconds* have passed (and at least the minimum).

    ``--trace 0`` cycles parts ``0 .. pool-1``; ``--trace 1`` serves
    each part untraced and then traced.  A new serve (pair) starts only
    when a typical one still fits in the time left.
    """
    step = 2 if trace else 1
    minimum = 2 * TRACED_MIN_PAIRS if trace else workload.pool
    serves: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(serves)
        part = (index // step) % workload.pool
        traced = bool(trace) and index % 2 == 1
        cycle_start = time.perf_counter()
        result = in_child(serve_once, workload, seed, part, traced)
        result.update(part=part, traced=traced,
                      cycle_s=time.perf_counter() - cycle_start)
        serves.append(result)
        if "error" in result:
            return serves
        if len(serves) % step:
            continue
        elapsed = time.perf_counter() - started
        typical = step * statistics.median(s["cycle_s"] for s in serves)
        if len(serves) >= minimum and elapsed + typical > seconds:
            return serves


def source_digest(workload: Workload) -> str:
    """Digest of the program's sources and the workload's definition:
    fingerprints are per program and workload."""
    digest = hashlib.sha256(repr(workload).encode())
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprints(workload: Workload, seed: int, serves: list[dict],
                       store: Path) -> list[str]:
    """Every serve of one part must fingerprint alike — traced or not,
    in this run or any earlier run of the same program and seed."""
    problems = []
    digest = source_digest(workload)
    known = json.loads(store.read_text()) if store.exists() else {}
    for serve in serves:
        key = f"{workload.name} seed={seed} part={serve['part']} src={digest}"
        reference = known.setdefault(key, serve["fingerprint"])
        if serve["fingerprint"] != reference:
            kind = "traced" if serve["traced"] else "untraced"
            problems.append(
                f"part {serve['part']} ({kind}) fingerprint "
                f"{serve['fingerprint'][:16]} differs from "
                f"{reference[:16]} of an earlier serve with this seed")
    store.parent.mkdir(parents=True, exist_ok=True)
    scratch = store.with_suffix(".tmp")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(scratch, store)
    return problems


def end_to_end(workload: Workload, serves: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics as ``name -> (value, kind)``, and the
    related figures printed beside them as ``name -> (value, unit,
    kind)`` (not part of the JSON result)."""
    parts = {}
    for serve in serves:
        parts.setdefault(serve["part"], serve)
    pooled = [parts[part] for part in sorted(parts)]
    latencies = [ms for serve in pooled for ms in serve["boot_latencies_ms"]]
    offered = sum(s["offered"] for s in pooled)
    admitted = sum(s["admitted"] for s in pooled)
    requests = sum(s["requests"] for s in pooled)
    failed = sum(s["failed_requests"] for s in pooled)
    values = {
        "tenants_per_s": (statistics.median(
            s["served"] / s["serve_s"] / speed(s) for s in serves), "host"),
        "events_per_s": (statistics.median(
            s["events"] / s["serve_s"] / speed(s) for s in serves), "host"),
        "peak_rss_mib": (statistics.median(
            s["peak_rss_mib"] for s in serves), "host"),
        "setup_s": (statistics.median(
            s["setup_s"] * speed(s) for s in serves), "host"),
        "boot_mean_ms": (statistics.fmean(latencies), "simulated"),
        "boot_p99_ms": (float(np.percentile(latencies, 99)), "simulated"),
        "boot_admit_fraction": (admitted / offered, "simulated"),
        "op_success_fraction": (1.0 - failed / requests, "simulated"),
    }
    extra = {
        # The median is printed, not reported: where boots rarely
        # queue (hotspot_M) it is the fixed uncontended boot time on
        # every seed, and a timing that never moves tells nothing.
        "boot_p50_ms": (float(np.percentile(latencies, 50)), "ms",
                        "simulated"),
        "admitted_boots": (admitted, "count", "simulated"),
        "offered_tenants": (offered, "count", "simulated"),
        "boot_reject_fraction": (1.0 - admitted / offered, "ratio",
                                 "simulated"),
        "op_fail_fraction": (failed / requests, "ratio", "simulated"),
        "served_tenants": (sum(s["served"] for s in pooled), "count",
                           "simulated"),
        "leaked_tenants": (sum(s["layers"]["federation.leaked_tenants"]
                               for s in pooled), "count", "simulated"),
        "tenants_per_s_unscaled": (statistics.median(
            s["served"] / s["serve_s"] for s in serves), "tenants/s", "host"),
        "setup_s_unscaled": (statistics.median(
            s["setup_s"] for s in serves), "s", "host"),
        "host_speed": (statistics.median(speed(s) for s in serves),
                       "ratio", "host"),
    }
    if workload.ops:
        started = sum(s["layers"]["maintenance.drains"] for s in pooled)
        committed = sum(s["layers"]["maintenance.drain_commit_fraction"]
                        * s["layers"]["maintenance.drains"] for s in pooled)
        extra["drain_commit_fraction"] = (
            committed / started if started else 0.0, "ratio", "simulated")
        extra["downtime_tenant_s"] = (
            sum(s["layers"]["faults.downtime_tenant_s"] for s in pooled),
            "tenant_s", "simulated")
    return values, extra


def per_layer(serves: list[dict]) -> dict:
    """Per-layer metrics as ``name -> (value, kind)``: means over the
    traced serves, so the layer self times plus ``unattributed.self_s``
    add up to ``trace.serve_s``; ``trace.overhead`` is the median
    traced/untraced wall ratio of one part."""
    traced = [s for s in serves if s["traced"]]
    values = {}
    for key, kind in (("traced_layers", "host"), ("layers", "simulated")):
        for name in traced[0][key]:
            values[name] = (statistics.fmean(s[key][name] for s in traced),
                            kind)
    values["topology.compile_s"] = (statistics.median(
        s["compile_s"] for s in serves), "host")
    values["trace.serve_s"] = (statistics.fmean(
        s["serve_s"] for s in traced), "host")
    # Serves alternate untraced, traced over the same part.
    values["trace.overhead"] = (statistics.median(
        serves[index + 1]["serve_s"] * speed(serves[index + 1])
        / (serves[index]["serve_s"] * speed(serves[index]))
        for index in range(0, len(serves) - 1, 2)), "host")
    return values


def render(workload: Workload, args, serves: list[dict], metrics: dict,
           kinds: dict, extra: dict, problems: list[str]) -> str:
    calibrations = [s["calibration_s"] for s in serves
                    if "calibration_s" in s]
    calibration = statistics.median(calibrations) if calibrations else 0.0
    host = host_facts()
    lines = [
        f"fedbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(serves)} serve(s) of {workload.tenants} tenants, simulated "
        f"figures pooled over {workload.pool} part(s); "
        f"Python {host['python']}, {host['cpu_count']} CPU(s), "
        f"calibration loop median {calibration * 1e3:.1f} ms",
        f"  {'metric':36s} {'value':>14s}  {'unit':10s} kind",
    ]
    for name, entry in metrics.items():
        lines.append(f"  {name:36s} {entry['value']:14.6g}  "
                     f"{entry['unit']:10s} {kinds[name]}")
    for name, (value, unit, kind) in extra.items():
        lines.append(f"  {name:36s} {value:14.6g}  {unit:10s} {kind} "
                     f"(printed only)")
    fingerprints = sorted({(s['part'], s['fingerprint'][:16])
                           for s in serves if 'fingerprint' in s})
    lines.append("  fingerprints: " + ", ".join(
        f"part {part} {digest}" for part, digest in fingerprints))
    lines.append("  the federation model is unvalidated: no hardware "
                 "reference exists, so no error figure is given")
    for problem in problems:
        lines.append(f"  CORRECTNESS FAILURE: {problem}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="JSON-lines file the run's record is "
                             "appended to (a fingerprint store lives "
                             "beside it)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))[section]

    serves = measure(workload, args.seed, args.seconds, args.trace)
    problems = [f"serve of part {s['part']}: {s['error']}"
                for s in serves if "error" in s]
    for serve in serves:
        if "traceback" in serve:
            print(serve["traceback"], file=sys.stderr)
    fingerprinted = [s for s in serves if "error" not in s]
    problems += check_fingerprints(
        workload, args.seed, fingerprinted,
        args.results.parent / "fingerprints.json")
    metrics: dict = {}
    kinds: dict = {}
    extra: dict = {}
    if not problems:
        if args.trace:
            values = per_layer(serves)
        else:
            values, extra = end_to_end(workload, serves)
        for metric in declared:
            value, kinds[metric["name"]] = values[metric["name"]]
            metrics[metric["name"]] = {"value": value,
                                       "unit": metric["unit"]}
    correct = not problems
    result = {"correct": correct, "attempted": len(serves),
              "failed": sum(1 for s in serves if "error" in s),
              "metrics": metrics}
    record = {
        "schema": SCHEMA, "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "tenants": workload.tenants, "pool": workload.pool,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "host": host_facts(),
        "calibration_s": [s.get("calibration_s") for s in serves],
        "source_digest": source_digest(workload),
        "fingerprints": {str(s["part"]): s["fingerprint"]
                         for s in fingerprinted},
        **result,
        "extra": {name: {"value": value, "unit": unit}
                  for name, (value, unit, _) in extra.items()},
        "problems": problems,
        "rows": [s["rows"] for s in serves if "rows" in s],
        "serves": [{key: value for key, value in s.items()
                    if key not in ("boot_latencies_ms", "rows",
                                   "traceback")} for s in serves],
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    print(render(workload, args, serves, metrics, kinds, extra, problems))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
