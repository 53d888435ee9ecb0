"""Availability sweep: inertness, axis pinning, flags, validation.

The acceptance-critical test here is the inertness guarantee: the
sweep's zero-fault cell must be **bit-identical** to the federation
sweep's ``(3 pods, 5/s, least-loaded)`` cell — every fault-injection
hook is an inert no-op when no fault ever fires.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments import availability
from repro.experiments.availability import (
    _parse_classes,
    _run_cell,
    _scripted_plan,
    run_availability,
)
from repro.experiments.federation import _run_cell as federation_cell
from repro.experiments.runner import (
    EXPERIMENTS,
    parse_assignments,
    run_all,
)
from repro.topology import template


class TestInertness:
    def test_zero_fault_cell_bit_identical_to_federation_sweep(self):
        fault_free = _run_cell(template("M"), "none", True, 2018)
        baseline = federation_cell(template("M"), 3, 5.0,
                                   "least-loaded", 120, 2018)
        assert fault_free.faults == 0
        assert fault_free.downtime_ts == 0.0
        assert fault_free.readmissions == 0
        # Bit-identical, not approximately equal: the injector's hooks
        # never perturbed a single event on the shared clock.
        assert fault_free.admitted == baseline.admitted
        assert fault_free.rejected == baseline.rejected
        assert fault_free.spills == baseline.spills
        assert fault_free.migrations == baseline.migrations
        assert fault_free.p50_boot_ms == baseline.p50_boot_ms
        assert fault_free.p99_boot_ms == baseline.p99_boot_ms
        assert fault_free.duration_s == baseline.duration_s


class TestSweep:
    def test_pinned_axes_shape(self, monkeypatch):
        monkeypatch.setattr(availability, "TENANT_COUNT", 24)
        result = run_availability(mtbf=15.0, fault_classes="switch,shard",
                                  self_heal="on", seed=7)
        # One MTBF row, the scripted pair row, the zero-fault row —
        # each in the single pinned heal mode.
        assert result.labels == ["mtbf=15s", "scripted", "none"]
        assert all(cell.self_heal for cell in result.cells)
        assert result.fault_classes == ("switch", "shard")
        assert result.cell("none", True).faults == 0
        rendered = result.render()
        assert "Availability under fault injection" in rendered
        assert "switch, shard" in rendered

    def test_scripted_pair_self_heal_reduces_downtime(self, monkeypatch):
        monkeypatch.setattr(availability, "TENANT_COUNT", 40)
        monkeypatch.setattr(availability, "SCRIPTED_OUTAGES",
                            ((1.0, "pod", "pod0", 8.0),))
        plan = _scripted_plan()
        healed = _run_cell(template("M"), "scripted", True, 11,
                           plan=plan, classes=())
        unhealed = _run_cell(template("M"), "scripted", False, 11,
                             plan=_scripted_plan(), classes=())
        assert healed.faults == unhealed.faults == 1
        assert healed.readmissions > 0
        assert healed.downtime_ts < unhealed.downtime_ts
        assert len(plan) == 1

    def test_downtime_reduction_handles_zero_downtime(self):
        result = availability.AvailabilityResult(
            tenant_count=1, arrival_rate_hz=1.0, fault_classes=("pod",))

        def cell(heal, downtime):
            return availability.AvailabilityCell(
                label="x", mtbf_s=None, self_heal=heal, faults=1,
                downtime_ts=downtime, mttr_s=0.0, readmissions=0,
                readmission_failures=0, admitted=1, rejected=0,
                spills=0, migrations=0, p50_boot_ms=0.0,
                p99_boot_ms=0.0, duration_s=1.0)

        result.cells = [cell(True, 0.0), cell(False, 5.0)]
        assert result.downtime_reduction("x") == float("inf")
        result.cells = [cell(True, 0.0), cell(False, 0.0)]
        assert result.downtime_reduction("x") == 1.0


class TestValidation:
    def test_parse_classes(self):
        assert _parse_classes(None) is None
        assert _parse_classes("pod, shard") == ("pod", "shard")

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            run_availability(fault_classes="pod,bogus")

    def test_empty_classes_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_availability(fault_classes=" , ")

    def test_non_positive_mtbf_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="mtbf must be positive"):
            run_availability(mtbf=-1.0)

    def test_bad_self_heal_rejected(self):
        with pytest.raises(ConfigurationError, match="self_heal must be"):
            run_availability(self_heal="maybe")


class TestFlags:
    def test_registry_has_availability(self):
        assert "availability" in EXPERIMENTS

    def test_cli_parses_fault_flags(self):
        args = build_parser().parse_args(
            ["run", "availability", "--set", "mtbf=25",
             "--set", "fault_classes=pod,shard", "--set", "self_heal=off"])
        values = parse_assignments(["availability"], args.set)
        assert values == {"mtbf": 25.0, "fault_classes": "pod,shard",
                          "self_heal": "off"}
        assert type(values["mtbf"]) is float
        args = build_parser().parse_args(["run-all", "--set", "mtbf=40"])
        assert parse_assignments(None, args.set) == {"mtbf": 40.0}

    def test_bad_self_heal_flag_rejected(self, capsys):
        assert main(["run", "availability",
                     "--set", "self_heal=sometimes"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "self_heal must be 'on' or 'off'" in err

    def test_parallel_backend_axes_not_declared(self):
        # The sweep has no fault path on the parallel backend, so it
        # declares neither of that backend's axes.
        for axis, value in (("workers", 2), ("sync_window", 0.5)):
            with pytest.raises(ConfigurationError, match=axis):
                run_all(["availability"], **{axis: value})

    def test_runner_forwards_fault_axes_only_where_declared(self,
                                                           monkeypatch):
        captured = {}

        class Result:
            def render(self):
                return "stub"

        def fake_availability(seed=None, mtbf: Optional[float] = None,
                              fault_classes: Optional[str] = None,
                              self_heal: Optional[str] = None):
            captured.update(seed=seed, mtbf=mtbf,
                            fault_classes=fault_classes,
                            self_heal=self_heal)
            return Result()

        def fake_table1(seed=None):
            # Declares no fault axis: forwarding it would TypeError.
            return Result()

        monkeypatch.setitem(EXPERIMENTS, "availability",
                            fake_availability)
        monkeypatch.setitem(EXPERIMENTS, "table1", fake_table1)
        report = run_all(["table1", "availability"], seed=9, mtbf=33.0,
                         fault_classes="pod", self_heal="on")
        assert captured == {"seed": 9, "mtbf": 33.0,
                            "fault_classes": "pod", "self_heal": "on"}
        assert [run.name for run in report.runs] == ["table1",
                                                     "availability"]
