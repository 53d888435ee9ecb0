"""Maintenance study: acceptance headlines, axes, flags, determinism.

The acceptance-critical asserts live here: a full-pod rolling drain
commits with admission availability >= 99.9 % of the no-drain cell
and bounded p99 inflation; the drain+faults cell's scripted in-scope
domain outage aborts the drain, which rolls back with conservation
holding; and the whole study replays bit-identically per seed.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import AllocationError, ConfigurationError
from repro.experiments.maintenance import (
    AVAILABILITY_FLOOR,
    _conserved,
    run_maintenance,
)
from repro.federation.controller import build_federation
from repro.experiments.runner import parse_assignments, run_all


@pytest.fixture(scope="module")
def study():
    return run_maintenance(seed=2018)


class TestHeadlines:
    def test_rolling_drain_commits_with_zero_admission_downtime(
            self, study):
        drain = study.cell("drain")
        assert drain.drain_committed, drain.abort_reason
        assert drain.racks_retired == 2
        assert drain.tenants_migrated > 0
        assert study.availability_ratio("drain") >= AVAILABILITY_FLOOR
        # Bounded p99 inflation: the drain is invisible at the tail
        # beyond a small constant factor.
        assert study.p99_inflation("drain") <= 1.5
        assert drain.conserved

    def test_correlated_outage_aborts_and_rolls_back(self, study):
        faulted = study.cell("drain+faults")
        assert faulted.drain_aborted and not faulted.drain_committed
        assert "fault" in faulted.abort_reason
        assert faulted.domain_outages >= 1
        assert faulted.fault_count >= 1
        assert faulted.conserved

    def test_every_cell_conserves(self, study):
        assert all(cell.conserved for cell in study.cells)

    def test_render_carries_the_headlines(self, study):
        rendered = study.render()
        assert "Rolling maintenance" in rendered
        assert "admission availability" in rendered
        assert "rolled back" in rendered
        assert "conservation holds" in rendered


class TestDeterminism:
    def test_same_seed_replays_the_identical_study(self, study):
        again = run_maintenance(seed=2018)
        for first, second in zip(study.cells, again.cells):
            assert first == second


class TestAxes:
    def test_workers_are_rejected(self):
        # The study declares neither parallel-backend axis, so the
        # runner refuses both before anything runs.
        with pytest.raises(ConfigurationError, match="'workers'"):
            run_all(["maintenance"], workers=2)
        with pytest.raises(ConfigurationError, match="'sync_window'"):
            run_all(["maintenance"], sync_window=0.5)

    def test_drain_must_name_a_pod(self):
        with pytest.raises(ConfigurationError,
                           match="drain must name a pod"):
            run_maintenance(drain="rack3")

    def test_unknown_domain_set_rejected(self):
        with pytest.raises(ConfigurationError, match="domain set"):
            run_maintenance(domains="blast-radius")

    def test_malformed_hazard_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="unknown hazard kind"):
            run_maintenance(hazard="bathtub:1:2")


class TestCliFlags:
    def test_maintenance_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "maintenance", "--set", "drain=pod1",
             "--set", "hazard=weibull:30:0.7", "--set", "domains=both"])
        assert args.experiment == "maintenance"
        assert parse_assignments(["maintenance"], args.set) == {
            "drain": "pod1", "hazard": "weibull:30:0.7",
            "domains": "both"}

    def test_replica_groups_flag_parsed(self):
        args = build_parser().parse_args(
            ["run", "federation", "--set", "replica_groups=2"])
        assert parse_assignments(["federation"], args.set) == {
            "replica_groups": 2}

    def test_domains_choices_enforced(self, capsys):
        assert main(["run", "maintenance", "--set", "domains=nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown domain set 'nope'" in err


class TestConservationAudit:
    """The post-run audit reads a corrupt allocator as not conserved
    and lets every other error through."""

    @staticmethod
    def _allocator(federation):
        pod = next(iter(federation.pods.values()))
        return pod.system.sdm.registry.memory_entries[0].allocator

    def test_a_corrupt_allocator_reads_not_conserved(self, monkeypatch):
        federation = build_federation(1, racks_per_pod=1)
        assert _conserved(federation)

        def corrupt():
            raise AllocationError("spans cover 0 of 1 bytes")

        monkeypatch.setattr(self._allocator(federation),
                            "check_invariants", corrupt)
        assert not _conserved(federation)

    def test_any_other_error_propagates(self, monkeypatch):
        federation = build_federation(1, racks_per_pod=1)

        def broken():
            raise TypeError("not an audit finding")

        monkeypatch.setattr(self._allocator(federation),
                            "check_invariants", broken)
        with pytest.raises(TypeError, match="not an audit finding"):
            _conserved(federation)
