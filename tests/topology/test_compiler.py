"""Compiler: spec → federation + operational surface.

The anchor test proves the compiled M template is bit-identical to the
hand-built three-pod federation — same fingerprint over a full trace —
so migrating the experiments to compiled specs cannot have moved any
number.
"""

from __future__ import annotations

import pytest

from repro.cluster.trace import poisson_trace, replica_group_of
from repro.errors import TopologyError
from repro.faults.domains import pod_network_domains, rack_power_domains
from repro.federation import build_federation
from repro.federation.parallel import federation_fingerprint
from repro.topology import (
    TEMPLATE_NAMES,
    compile_spec,
    template,
    validate_spec,
)


def _serve(federation, trace):
    return federation_fingerprint(federation.serve_trace(trace))


def _domain_facts(domains):
    return sorted(
        (d.name, d.mtbf_s, d.mttr_s, tuple(sorted(map(repr, d.members))))
        for d in domains)


class TestFidelity:
    def test_compiled_m_matches_hand_built_federation(self):
        def trace():
            return poisson_trace(
                40, 5.0, mean_lifetime_s=0.5, migrate_fraction=0.25,
                seed=7, name="topo-identity")

        hand = build_federation(3)
        compiled = compile_spec("M")
        assert (_serve(compiled.federation, trace())
                == _serve(hand, trace()))

    def test_emitted_domains_match_hand_built(self):
        compiled = compile_spec("M")
        hand = build_federation(3)
        expect = _domain_facts(
            rack_power_domains(hand, mtbf_s=60.0, mttr_s=4.0)
            + pod_network_domains(hand, mtbf_s=60.0, mttr_s=4.0))
        got = _domain_facts(compiled.failure_domains())
        assert got == expect

    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_every_template_compiles(self, name):
        compiled = compile_spec(name)
        assert len(compiled.federation.pods) == compiled.spec.pods
        compiled.close()

    def test_describe_recompile_is_a_fixed_point(self):
        compiled = compile_spec("S")
        again = compile_spec(compiled.describe())
        assert again.describe() == compiled.describe()


class TestOperationalSurface:
    def test_kinds_filter(self):
        compiled = compile_spec("M")
        power = compiled.failure_domains(kinds=("rack-power",))
        assert power and all(d.name.startswith("power.") for d in power)
        net = compiled.failure_domains(kinds=("pod-network",))
        assert net and all(d.name.startswith("net.") for d in net)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError) as excinfo:
            compile_spec("M").failure_domains(kinds=("cosmic-ray",))
        assert "cosmic-ray" in str(excinfo.value)

    def test_scoped_domains_cover_only_their_pods(self):
        spec = template("M", {"domains": [
            {"kind": "pod-network", "mtbf_s": 60, "mttr_s": 4,
             "pods": ["pod0", "pod2"]}]})
        domains = compile_spec(spec).failure_domains()
        assert sorted(d.name for d in domains) == ["net.pod0", "net.pod2"]

    def test_hazard_from_spec_and_override(self):
        spec = template("M", {"domains": [
            {"kind": "rack-power", "mtbf_s": 120, "mttr_s": 6,
             "hazard": "weibull:120:2.5"}]})
        compiled = compile_spec(spec)
        from_spec = compiled.failure_domains()
        assert all(d.hazard is not None for d in from_spec)
        overridden = compiled.failure_domains(hazard="exponential:50")
        assert all(d.hazard is not None for d in overridden)
        assert {d.hazard.mean_s for d in overridden} == {50.0}

    def test_maintenance_schedule_drives_supervisor(self):
        compiled = compile_spec("M")  # one pod0 window at t=4s
        supervisor = compiled.supervisor()
        reports = compiled.install_maintenance(supervisor)
        compiled.federation.sim.run()
        assert len(reports) == 1
        assert reports[0].pod_id == "pod0"
        assert reports[0].committed

    def test_replica_groups_wire_anti_affinity(self):
        spec = template("M", {"replica_groups": 3})
        compiled = compile_spec(spec)
        assert (compiled.federation.placer.anti_affinity
                is replica_group_of)
        plain = compile_spec("M")
        assert plain.federation.placer.anti_affinity is None


class TestParallelBackend:
    def test_parallel_compile_round_trips(self):
        compiled = compile_spec("S", workers=0)
        try:
            assert compiled.workers == 0
            assert sorted(compiled.federation.pods)
        finally:
            compiled.close()

    def test_operational_surface_needs_serial_backend(self):
        compiled = compile_spec("S", workers=0)
        try:
            with pytest.raises(TopologyError) as excinfo:
                compiled.failure_domains()
            assert excinfo.value.path == "domains"
            with pytest.raises(TopologyError):
                compiled.supervisor()
        finally:
            compiled.close()


class TestValidateSpec:
    def test_valid_passes(self):
        assert validate_spec("M").pods == 3

    def test_invalid_raises_with_path(self):
        with pytest.raises(TopologyError) as excinfo:
            validate_spec({"pods": 0})
        assert excinfo.value.path == "pods"
