"""Parallel federation: worker-count equivalence and barrier edges.

The contract under test is the PR's headline: the worker count is a
*physical* knob — 0 (inline), 1, 2 or 4 OS processes must produce
field-for-field identical federation statistics, down to the
fingerprint that folds in every counter, record and timestamp.
"""

from __future__ import annotations

import pytest

from repro.cluster.trace import poisson_trace
from repro.errors import ParallelSimError
from repro.federation.parallel import (
    build_parallel_federation,
    federation_fingerprint,
)
from repro.federation.rebalancer import FederationRebalancer
from repro.units import gib, mib

SEED = 2018
PODS = 2


def small_trace(tenants=24, rate_hz=40.0, seed=SEED):
    """Small but full-vocabulary: boots, scale up/down, migration,
    departures — every message kind crosses the wire."""
    return poisson_trace(
        tenants, rate_hz, vcpus=2, ram_bytes=gib(1),
        mean_lifetime_s=0.5, scale_fraction=0.5, scale_bytes=mib(256),
        migrate_fraction=0.25, seed=seed, name="pfed-test")


def build(workers: int, pods: int = PODS, **kwargs):
    kwargs.setdefault("racks_per_pod", 1)
    kwargs.setdefault("spill_policy", "least-loaded")
    kwargs.setdefault("rebalancer", FederationRebalancer(
        interval_s=0.25, imbalance_threshold=0.2))
    return build_parallel_federation(pods, workers=workers, **kwargs)


def serve(workers: int, **kwargs):
    with build(workers, **kwargs) as fed:
        stats = fed.serve_trace(small_trace())
        report = fed.window_report
    return stats, report


def fields_of(stats):
    """The cell-level fields the experiment reports, extracted for a
    direct field-for-field comparison (the fingerprint then covers
    everything else, records and timestamps included)."""
    return {
        "admitted": stats.boots_admitted,
        "rejected": stats.boots_rejected,
        "spills": stats.spills,
        "migrations": stats.migrations,
        "bytes_migrated": stats.bytes_migrated,
        "duration_s": stats.duration_s,
        "p50_boot_s": stats.admission_latency_percentile(50),
        "p99_boot_s": stats.admission_latency_percentile(99),
        "fingerprint": federation_fingerprint(stats),
    }


class TestWorkerCountEquivalence:
    def test_worker_count_never_changes_the_simulation(self):
        reference_stats, reference_report = serve(workers=0)
        reference = fields_of(reference_stats)
        assert reference["admitted"] > 0
        for workers in (1, 2, 4):
            stats, report = serve(workers=workers)
            assert fields_of(stats) == reference, f"workers={workers}"
            assert report.rounds == reference_report.rounds
            assert report.lp_events == reference_report.lp_events

    def test_equivalence_survives_a_different_seed(self):
        with build(0) as fed:
            ref = fed.serve_trace(small_trace(seed=7))
        with build(2) as fed:
            par = fed.serve_trace(small_trace(seed=7))
        # This seed crosses a rebalancer-driven inter-pod migration, so
        # the migrator's wire exchanges cross a process boundary too.
        assert ref.migrations >= 1
        assert fields_of(ref) == fields_of(par)

    def test_different_seeds_differ(self):
        with build(0) as fed:
            one = fed.serve_trace(small_trace(seed=7))
        with build(0) as fed:
            two = fed.serve_trace(small_trace(seed=8))
        assert (federation_fingerprint(one)
                != federation_fingerprint(two))

    def test_sync_window_is_physics_not_noise(self):
        """Unlike the worker count, the sync window (inter-pod link
        latency) is part of the simulated system: changing it changes
        arrival times, so the fingerprint must move."""
        with build(0) as fed:
            base = fed.serve_trace(small_trace())
        with build(0, sync_window_s=5e-3) as fed:
            wide = fed.serve_trace(small_trace())
        assert (federation_fingerprint(base)
                != federation_fingerprint(wide))


class TestBarrierEdges:
    @pytest.mark.parametrize("window", [0.0, -1e-6, float("inf"),
                                        float("nan")])
    def test_degenerate_sync_window_rejected(self, window):
        with pytest.raises(ParallelSimError, match="sync window"):
            build_parallel_federation(PODS, workers=0,
                                      sync_window_s=window)

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelSimError, match=">= 0"):
            build_parallel_federation(PODS, workers=-1)

    def test_worker_crash_mid_run_is_a_clean_error(self):
        fed = build(workers=1)
        try:
            for worker in fed.fleet._workers:
                worker.terminate()
                worker.join(timeout=5.0)
            with pytest.raises(ParallelSimError,
                               match="died mid-barrier|is gone"):
                fed.serve_trace(small_trace(tenants=4))
        finally:
            fed.close()

    def test_close_is_idempotent(self):
        fed = build(workers=2)
        fed.close()
        fed.close()

    def test_report_decomposition_is_consistent(self):
        _, report = serve(workers=0)
        assert report.rounds > 0
        assert report.lp_busy_s >= report.lp_critical_s > 0
        assert report.critical_path_s >= report.lp_critical_s
        assert report.hub_overlapped_s >= 0.0
        assert isinstance(fed_events_total(report), int)


def fed_events_total(report):
    return sum(report.lp_events.values())
