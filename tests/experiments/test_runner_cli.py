"""Tests for the experiment runner and the CLI."""

from __future__ import annotations

import functools
from typing import Optional

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    EXPERIMENTS,
    axes,
    parse_assignments,
    run_all,
)


class _Rendered:
    def render(self):
        return "ok"


#: Every declared axis with a ``--set`` text and the value it parses
#: to, per driver.
SETTABLE = {
    "cluster_scale": {"shards": ("2", 2)},
    "federation": {"pods": ("2", 2), "spill_policy": ("never", "never"),
                   "workers": ("2", 2), "sync_window": ("0.5", 0.5),
                   "replica_groups": ("3", 3), "topology": ("S", "S")},
    "availability": {"mtbf": ("25", 25.0),
                     "fault_classes": ("pod,shard", "pod,shard"),
                     "self_heal": ("off", "off"), "topology": ("M", "M")},
    "maintenance": {"drain": ("pod1", "pod1"),
                    "hazard": ("weibull:30:0.7", "weibull:30:0.7"),
                    "domains": ("both", "both"), "topology": ("M", "M")},
}


class TestRunner:
    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig7", "fig8", "fig10", "fig12", "fig13",
            "pod_scale", "datamover", "cluster_scale", "federation",
            "availability", "maintenance", "kernel_bench"}

    def test_every_driver_accepts_a_seed(self):
        import inspect
        for name, driver in EXPERIMENTS.items():
            assert "seed" in inspect.signature(driver).parameters, name

    def test_seed_threads_through_run_all(self):
        first = run_all(["table1"], seed=7).runs[0].rendered
        again = run_all(["table1"], seed=7).runs[0].rendered
        other = run_all(["table1"], seed=8).runs[0].rendered
        assert first == again
        assert first != other

    def test_run_selected(self):
        report = run_all(["table1"])
        assert len(report.runs) == 1
        assert report.runs[0].name == "table1"
        assert "TABLE I" in report.runs[0].rendered

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_all(["fig99"])

    def test_rendered_concatenation(self):
        report = run_all(["table1", "fig8"])
        text = report.rendered()
        assert "Experiment: table1" in text
        assert "Experiment: fig8" in text

    def test_shards_forwarded_only_to_shard_aware_drivers(self,
                                                          monkeypatch):
        # table1 has no `shards` keyword: forwarding it would TypeError.
        captured = {}

        def fake_driver(seed=None, shards: Optional[int] = None):
            captured["shards"] = shards
            return _Rendered()

        monkeypatch.setitem(EXPERIMENTS, "cluster_scale", fake_driver)
        report = run_all(["table1", "cluster_scale"], shards=2)
        assert "TABLE I" in report.runs[0].rendered
        assert captured == {"shards": 2}

    def test_undeclared_axis_rejected_before_anything_runs(self):
        with pytest.raises(ConfigurationError,
                           match="declares axis 'shards'"):
            run_all(["table1"], shards=2)
        with pytest.raises(ConfigurationError, match="'bogus'"):
            run_all(None, bogus=1)

    def test_declared_axes(self):
        declared = {name: axes(driver)
                    for name, driver in EXPERIMENTS.items()
                    if axes(driver)}
        assert declared == {
            name: {axis: type(value) for axis, (_text, value)
                   in settable.items()}
            for name, settable in SETTABLE.items()}

    def test_shards_forwarded_to_shard_aware_driver(self, monkeypatch):
        captured = {}

        def fake_driver(seed=None, shards: Optional[int] = None):
            captured["shards"] = shards
            return _Rendered()

        monkeypatch.setitem(EXPERIMENTS, "cluster_scale", fake_driver)
        run_all(["cluster_scale"], shards=3)
        assert captured["shards"] == 3

    def test_shards_pins_cluster_scale_axis(self):
        from repro.experiments.cluster_scale import run_cluster_scale
        result = run_cluster_scale(rack_counts=(2,),
                                   arrival_rates_hz=(30,),
                                   allocation_count=40, shards=2)
        assert result.cells
        assert all(cell.shards == 2 for cell in result.cells)

    def test_intermediate_shard_axis_on_large_pods(self):
        from repro.experiments.cluster_scale import run_cluster_scale
        result = run_cluster_scale(rack_counts=(4,),
                                   arrival_rates_hz=(30,),
                                   allocation_count=40)
        # 4-rack pods sweep centralized, half-rack and per-rack shards.
        assert result.shard_counts(4) == [1, 2, 4]

    def test_federation_axes_forwarded(self, monkeypatch):
        captured = {}

        def fake_driver(seed=None, pods: Optional[int] = None,
                        spill_policy: Optional[str] = None):
            captured.update(pods=pods, spill_policy=spill_policy)
            return _Rendered()

        monkeypatch.setitem(EXPERIMENTS, "federation", fake_driver)
        run_all(["federation"], pods=2, spill_policy="never")
        assert captured == {"pods": 2, "spill_policy": "never"}

    def test_profile_attaches_stats_to_the_run(self):
        report = run_all(["table1"], profile=True)
        run = report.runs[0]
        assert run.profile is not None
        assert "cumulative" in run.profile
        assert "run_table1" in run.profile
        # The profile section rides along in the concatenated report.
        assert "Profile: table1" in report.rendered()

    def test_no_profile_by_default(self):
        report = run_all(["table1"])
        assert report.runs[0].profile is None
        assert "Profile:" not in report.rendered()

    def test_pods_pins_federation_axis(self):
        from repro.experiments.federation import run_federation
        result = run_federation(arrival_rates_hz=(10,), tenant_count=20,
                                pods=2, spill_policy="least-loaded")
        assert result.cells
        assert all(cell.pod_count == 2 for cell in result.cells)
        assert all(cell.spill_policy == "least-loaded"
                   for cell in result.cells)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        lines = {line.split()[0]: line.split()[1:]
                 for line in capsys.readouterr().out.splitlines()}
        assert list(lines) == list(EXPERIMENTS)
        assert lines["table1"] == []
        assert lines["cluster_scale"] == ["shards=int"]
        assert "sync_window=float" in lines["federation"]
        assert "workers=int" not in lines["availability"]

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_run_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_flag_parsed(self):
        args = build_parser().parse_args(["run", "table1", "--seed", "7"])
        assert args.seed == 7
        args = build_parser().parse_args(["run-all", "--seed", "9"])
        assert args.seed == 9
        args = build_parser().parse_args(["run", "table1"])
        assert args.seed is None

    def test_shards_flag_parsed(self):
        args = build_parser().parse_args(
            ["run", "cluster_scale", "--set", "shards=2"])
        assert parse_assignments(["cluster_scale"], args.set) == {
            "shards": 2}
        args = build_parser().parse_args(["run-all", "--set", "shards=4"])
        assert parse_assignments(None, args.set) == {"shards": 4}
        args = build_parser().parse_args(["run", "cluster_scale"])
        assert args.set == []

    def test_federation_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "federation", "--set", "pods=3",
             "--set", "spill_policy=least-loaded"])
        assert parse_assignments(["federation"], args.set) == {
            "pods": 3, "spill_policy": "least-loaded"}
        args = build_parser().parse_args(["run-all", "--set", "pods=2"])
        assert parse_assignments(None, args.set) == {"pods": 2}

    def test_bad_spill_policy_rejected(self, capsys):
        assert main(["run", "federation",
                     "--set", "spill_policy=random"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown spill policy 'random'" in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "federation", "--set", "pods=two"],
         "axis 'pods' takes int, got 'two'"),
        (["run", "federation", "--set", "sync_window=soon"],
         "axis 'sync_window' takes float"),
        (["run", "fig7", "--set", "shards=2"],
         "no selected experiment declares axis 'shards'"),
        (["run-all", "--set", "bogus=1"],
         "no selected experiment declares axis 'bogus'"),
        (["run", "federation", "--set", "pods"],
         "--set takes AXIS=VALUE, got 'pods'"),
        (["run", "federation", "--set", "pods=0"], "need >= 1 pod"),
        (["run", "federation", "--set", "workers=0",
          "--set", "sync_window=0"], "sync_window must be positive"),
        (["run", "federation", "--set", "replica_groups=1"],
         "replica_groups needs groups of >= 2"),
        (["run", "availability", "--set", "mtbf=0"],
         "mtbf must be positive"),
        (["run", "maintenance", "--set", "hazard=bathtub:1:2"],
         "hazard: unknown hazard kind 'bathtub'"),
        (["run", "maintenance", "--set", "hazard=weibull:-1:2"],
         "hazard: Weibull scale must be positive"),
        (["topology", "describe", "nosuch"],
         "no template or spec file 'nosuch'"),
    ])
    def test_bad_input_exits_2_with_one_line(self, capsys, argv,
                                             message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("dredbox-repro: error: ")
        assert message in err

    @pytest.mark.parametrize("name", sorted(SETTABLE))
    def test_every_axis_settable_with_its_type(self, monkeypatch, name):
        captured = {}
        real = EXPERIMENTS[name]

        @functools.wraps(real)
        def fake_driver(**kwargs):
            captured.update(kwargs)
            return _Rendered()

        monkeypatch.setitem(EXPERIMENTS, name, fake_driver)
        argv = ["run", name]
        for axis, (text, _value) in SETTABLE[name].items():
            argv += ["--set", f"{axis}={text}"]
        assert main(argv) == 0
        assert captured == {axis: value for axis, (_text, value)
                            in SETTABLE[name].items()}
        assert {axis: type(value) for axis, value
                in captured.items()} == axes(real)

    def test_run_single_with_seed(self, capsys):
        assert main(["run", "table1", "--seed", "7"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_profile_flag_parsed(self):
        args = build_parser().parse_args(["run", "table1", "--profile"])
        assert args.profile is True
        args = build_parser().parse_args(["run-all", "--profile"])
        assert args.profile is True
        args = build_parser().parse_args(["run", "table1"])
        assert args.profile is False

    def test_run_single_with_profile_prints_stats(self, capsys):
        assert main(["run", "table1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "cumulative" in out


class TestTopologyCli:
    def test_topology_flag_parsed(self):
        args = build_parser().parse_args(
            ["run", "federation", "--set", "topology=L"])
        assert parse_assignments(["federation"], args.set) == {
            "topology": "L"}
        args = build_parser().parse_args(
            ["run-all", "--set", "topology=S"])
        assert parse_assignments(None, args.set) == {"topology": "S"}

    def test_topology_forwarded_only_to_aware_drivers(self, monkeypatch):
        captured = {}

        def fake_driver(seed=None, topology: Optional[str] = None):
            captured.update(topology=topology)
            return _Rendered()

        monkeypatch.setitem(EXPERIMENTS, "federation", fake_driver)
        run_all(["federation"], topology="S")
        assert captured == {"topology": "S"}
        # table1's driver has no topology axis; forwarding must not crash.
        assert len(run_all(["table1", "federation"],
                           topology="S").runs) == 2

    def test_validate_templates_and_examples(self, capsys):
        assert main(["topology", "validate", "S", "M", "L", "XL",
                     "examples/topologies/paper-m.json"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 5
        assert "paper-m" in out

    def test_validate_rejects_invalid_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad-topo.json"
        bad.write_text('{"pods": 2, "rack": {"compute_bricks": 0}}')
        assert main(["topology", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"INVALID {bad}" in err
        assert "rack.compute_bricks" in err

    def test_describe_prints_canonical_json(self, capsys):
        import json as _json

        assert main(["topology", "describe", "M"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["pods"] == 3
        assert doc["rack"]["compute_bricks"] == 2
