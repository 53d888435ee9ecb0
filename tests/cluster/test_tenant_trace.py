"""Unit tests for the tenant trace generators and the replay loader."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster.trace import (
    ReplayTrace,
    ScaleEvent,
    TenantTrace,
    TenantSpec,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    start_arrivals,
)
from repro.errors import ConfigurationError
from repro.units import gib

AZURE_FIXTURE = Path(__file__).parent / "fixtures" / "azure_sample.csv"


class TestTraceBasics:
    def test_trace_is_sorted_by_arrival(self):
        trace = poisson_trace(200, arrival_rate_hz=50.0)
        arrivals = [t.arrival_s for t in trace.tenants]
        assert arrivals == sorted(arrivals)

    def test_requested_count_generated(self):
        trace = poisson_trace(137, arrival_rate_hz=10.0)
        assert len(trace) == 137

    def test_request_count_covers_lifecycle(self):
        spec = TenantSpec("t", 0.0, 1, gib(1), 1.0,
                          scale_events=(ScaleEvent(0.1, "up", gib(1)),),
                          migrate_at_s=0.5)
        trace = TenantTrace("unit", [spec])
        # boot + 1 scale + migrate + depart
        assert trace.request_count() == 4

    def test_scales_to_thousands_of_tenants(self):
        trace = poisson_trace(5000, arrival_rate_hz=100.0)
        assert len(trace) == 5000
        assert trace.arrival_rate_hz == pytest.approx(100.0, rel=0.15)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_trace(0, arrival_rate_hz=1.0)
        with pytest.raises(ConfigurationError):
            poisson_trace(1, arrival_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            ScaleEvent(0.1, "sideways", gib(1))


class TestReproducibility:
    @pytest.mark.parametrize("generator", [
        poisson_trace, diurnal_trace, bursty_trace])
    def test_same_seed_same_trace(self, generator):
        first = generator(100, 20.0, seed=42)
        second = generator(100, 20.0, seed=42)
        assert first.tenants == second.tenants

    @pytest.mark.parametrize("generator", [
        poisson_trace, diurnal_trace, bursty_trace])
    def test_different_seed_different_trace(self, generator):
        first = generator(100, 20.0, seed=42)
        second = generator(100, 20.0, seed=43)
        assert first.tenants != second.tenants


class TestShapes:
    def test_poisson_mean_rate(self):
        trace = poisson_trace(2000, arrival_rate_hz=40.0)
        assert trace.arrival_rate_hz == pytest.approx(40.0, rel=0.1)

    def test_diurnal_rate_oscillates(self):
        period = 10.0
        trace = diurnal_trace(3000, base_rate_hz=20.0, peak_factor=4.0,
                              period_s=period)
        # Split arrivals by position in the day: the half-period around
        # the sine peak must hold clearly more arrivals than the trough.
        peak, trough = 0, 0
        for tenant in trace.tenants:
            phase = (tenant.arrival_s % period) / period
            if 0.0 <= phase < 0.5:
                peak += 1
            else:
                trough += 1
        assert peak > 1.5 * trough

    def test_bursty_clusters_arrivals(self):
        trace = bursty_trace(2000, arrival_rate_hz=40.0,
                             mean_burst_size=10.0,
                             intra_burst_gap_s=0.001)
        gaps = [b.arrival_s - a.arrival_s
                for a, b in zip(trace.tenants, trace.tenants[1:])]
        tiny = sum(1 for gap in gaps if gap <= 0.001 + 1e-9)
        # Most inter-arrival gaps are intra-burst.
        assert tiny > 0.7 * len(gaps)

    def test_scale_events_sorted_and_bounded(self):
        trace = poisson_trace(500, arrival_rate_hz=50.0,
                              scale_fraction=1.0, mean_lifetime_s=2.0)
        for tenant in trace.tenants:
            offsets = [e.at_s for e in tenant.scale_events]
            assert offsets == sorted(offsets)
            assert all(0 <= at <= tenant.lifetime_s for at in offsets)

    def test_migrate_fraction(self):
        trace = poisson_trace(1000, arrival_rate_hz=50.0,
                              migrate_fraction=0.5)
        migrating = sum(1 for t in trace.tenants
                        if t.migrate_at_s is not None)
        assert 300 < migrating < 700


def _spec(tenant_id: str, arrival_s: float) -> TenantSpec:
    return TenantSpec(tenant_id, arrival_s, 1, gib(1), lifetime_s=1.0)


class TestStartArrivals:
    def test_lifecycles_start_at_arrival_and_the_event_fires_last(self, sim):
        trace = TenantTrace("unit", [_spec("a", 0.5), _spec("b", 1.25)])
        started = []

        def lifecycle(spec):
            started.append((spec.tenant_id, sim.now))
            yield sim.timeout(spec.lifetime_s)

        done = start_arrivals(sim, trace, lifecycle)
        assert sim.run(until=done) is None
        assert started == [("a", 0.5), ("b", 1.25)]
        assert sim.now == 2.25

    def test_tied_arrivals_start_back_to_back_in_trace_order(self, sim):
        trace = TenantTrace("unit", [
            _spec("a", 1.0), _spec("b", 1.0), _spec("c", 2.0)])
        log = []

        def lifecycle(spec):
            log.append(f"start {spec.tenant_id}")
            scheduled = sim.event().succeed()
            scheduled.callbacks.append(
                lambda _event: log.append(f"event {spec.tenant_id}"))
            yield scheduled

        sim.run(until=start_arrivals(sim, trace, lifecycle))
        assert log == ["start a", "start b", "event a", "event b",
                       "start c", "event c"]

    def test_empty_trace_fires_at_once(self, sim):
        done = start_arrivals(sim, TenantTrace("empty"), lambda spec: None)
        sim.run(until=done)
        assert sim.now == 0.0

    def test_a_raising_lifecycle_fails_the_event_when_it_raises(self, sim):
        trace = TenantTrace("unit", [_spec("a", 0.5), _spec("b", 1.0)])

        def lifecycle(spec):
            yield sim.timeout(0.25)
            if spec.tenant_id == "b":
                raise ValueError("boom")
            yield sim.timeout(10.0)

        with pytest.raises(ValueError, match="boom"):
            sim.run(until=start_arrivals(sim, trace, lifecycle))
        assert sim.now == 1.25


class TestReplayTrace:
    def test_loads_azure_column_shape(self):
        trace = ReplayTrace.from_csv(AZURE_FIXTURE)
        assert len(trace) == 8
        assert trace.source == str(AZURE_FIXTURE)
        by_id = {t.tenant_id: t for t in trace.tenants}
        first = by_id["az-0001"]
        # Arrivals are re-based to t=0 at the earliest row.
        assert first.arrival_s == 0.0
        assert by_id["az-0002"].arrival_s == 30.0
        # Lifetime derived from the created/deleted pair.
        assert first.lifetime_s == 3600.0
        # Azure's vmmemory column is GiB; vmcorecount is honoured.
        assert first.ram_bytes == gib(4)
        assert first.vcpus == 2

    def test_is_a_tenant_trace(self):
        trace = ReplayTrace.from_csv(AZURE_FIXTURE)
        assert isinstance(trace, TenantTrace)
        arrivals = [t.arrival_s for t in trace.tenants]
        assert arrivals == sorted(arrivals)
        # Same per-tenant event stream as the generators: boot + depart.
        assert trace.request_count() == 2 * len(trace)

    def test_google_style_columns_and_bytes(self, tmp_path):
        path = tmp_path / "google.csv"
        path.write_text(
            "machine_id,submit_time,duration_s,mem_bytes\n"
            "g-1,5,100,1073741824\n"
            "g-2,9,50,2147483648\n",
            encoding="utf-8")
        trace = ReplayTrace.from_csv(path, default_vcpus=4)
        assert [t.tenant_id for t in trace.tenants] == ["g-1", "g-2"]
        assert trace.tenants[0].ram_bytes == gib(1)
        assert trace.tenants[1].arrival_s == 4.0  # re-based to first row
        assert all(t.vcpus == 4 for t in trace.tenants)

    def test_max_tenants_truncates(self):
        trace = ReplayTrace.from_csv(AZURE_FIXTURE, max_tenants=3)
        assert len(trace) == 3

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("vmid,vmcreated\nx,1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="missing required"):
            ReplayTrace.from_csv(path)

    def test_non_positive_lifetime_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "vmid,vmcreated,vmdeleted,vmmemory\nx,100,100,2\n",
            encoding="utf-8")
        with pytest.raises(ConfigurationError, match="lifetime"):
            ReplayTrace.from_csv(path)

    def test_malformed_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "vmid,vmcreated,vmdeleted,vmmemory\nx,soon,100,2\n",
            encoding="utf-8")
        with pytest.raises(ConfigurationError, match="malformed"):
            ReplayTrace.from_csv(path)

    def test_replay_drives_the_control_plane(self):
        from repro.cluster.control_plane import ControlPlane
        from repro.core.builder import RackBuilder

        system = (RackBuilder("replay")
                  .with_compute_bricks(2, cores=16, local_memory=gib(4))
                  .with_memory_bricks(2, modules=2, module_size=gib(16))
                  .build())
        plane = ControlPlane(system, workers=4)
        # Compress the measured timeline so the test stays fast.
        raw = ReplayTrace.from_csv(AZURE_FIXTURE)
        trace = TenantTrace(name="replay", tenants=[
            TenantSpec(tenant_id=t.tenant_id,
                       arrival_s=t.arrival_s / 1000.0,
                       vcpus=t.vcpus, ram_bytes=t.ram_bytes,
                       lifetime_s=t.lifetime_s / 1000.0)
            for t in raw.tenants])
        stats = plane.serve_trace(trace)
        assert len(stats.completed("boot")) == len(trace)
        assert len(stats.completed("depart")) == len(trace)
        assert system.vms == []
