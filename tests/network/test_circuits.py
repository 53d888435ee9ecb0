"""Unit tests for multi-hop circuit management."""

from __future__ import annotations

import pytest

from repro.errors import CircuitError
from repro.network.optical.circuits import CircuitManager
from repro.network.optical.switch import OpticalCircuitSwitch


@pytest.fixture
def manager() -> CircuitManager:
    switch = OpticalCircuitSwitch("sw0", port_count=48)
    mgr = CircuitManager(switch)
    mgr.attach_endpoint("cb0.cbn0", launch_dbm=-3.7)
    mgr.attach_endpoint("mb0.cbn0", launch_dbm=-3.7)
    return mgr


class TestEstablish:
    def test_single_hop_uses_two_ports(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=1)
        assert circuit.hops == 1
        assert len(circuit.switch_ports) == 2
        assert manager.switch.ports_in_use == 2

    def test_eight_hops_use_loopbacks(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=8)
        # 2 endpoints + 7 loopback pairs = 16 ports, 8 cross-connects.
        assert len(circuit.switch_ports) == 16
        assert manager.switch.cross_connect_count == 8

    def test_loss_grows_with_hops(self, manager):
        eight = manager.establish("cb0.cbn0", "mb0.cbn0", hops=8)
        received_8 = eight.link_ab.received_dbm
        manager.teardown(eight.circuit_id)
        six = manager.establish("cb0.cbn0", "mb0.cbn0", hops=6)
        assert six.link_ab.received_dbm > received_8

    def test_zero_hops_rejected(self, manager):
        with pytest.raises(CircuitError):
            manager.establish("cb0.cbn0", "mb0.cbn0", hops=0)

    def test_same_endpoint_rejected(self, manager):
        with pytest.raises(CircuitError):
            manager.establish("cb0.cbn0", "cb0.cbn0")

    def test_busy_endpoint_rejected(self, manager):
        manager.establish("cb0.cbn0", "mb0.cbn0")
        with pytest.raises(CircuitError, match="already in a circuit"):
            manager.establish("cb0.cbn0", "mb0.cbn0")

    def test_port_exhaustion_raises(self):
        switch = OpticalCircuitSwitch("small", port_count=6)
        manager = CircuitManager(switch)
        manager.attach_endpoint("a", -3.7)
        manager.attach_endpoint("b", -3.7)
        # 4 free ports left -> at most 2 loopbacks -> hops <= 3.
        with pytest.raises(CircuitError, match="loopback"):
            manager.establish("a", "b", hops=4)

    def test_unattached_endpoint_rejected(self, manager):
        with pytest.raises(CircuitError):
            manager.establish("ghost", "mb0.cbn0")

    def test_setup_time_is_switch_time(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0")
        assert circuit.setup_time_s == manager.switch.switching_time_s

    def test_circuit_closes_at_paper_operating_point(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=8)
        assert circuit.closes(1e-12)
        assert circuit.worst_ber <= 1e-12


class TestTeardown:
    def test_frees_all_ports(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=4)
        manager.teardown(circuit.circuit_id)
        assert manager.switch.ports_in_use == 0
        assert not circuit.active

    def test_loopback_attachments_released(self, manager):
        free_before = len(manager.switch.free_attachment_ports())
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=4)
        manager.teardown(circuit.circuit_id)
        assert len(manager.switch.free_attachment_ports()) == free_before

    def test_endpoints_stay_attached(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0", hops=2)
        manager.teardown(circuit.circuit_id)
        assert manager.switch.port_of("cb0.cbn0") is not None
        # And reusable:
        manager.establish("cb0.cbn0", "mb0.cbn0", hops=2)

    def test_unknown_circuit_rejected(self, manager):
        with pytest.raises(CircuitError):
            manager.teardown("ghost")

    def test_double_teardown_rejected(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0")
        manager.teardown(circuit.circuit_id)
        with pytest.raises(CircuitError):
            manager.teardown(circuit.circuit_id)


class TestQueries:
    def test_circuit_between(self, manager):
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0")
        assert manager.circuit_between("mb0.cbn0", "cb0.cbn0") is circuit
        assert manager.circuit_between("cb0.cbn0", "ghost") is None

    def test_active_circuits(self, manager):
        assert manager.active_circuits == []
        circuit = manager.establish("cb0.cbn0", "mb0.cbn0")
        assert manager.active_circuits == [circuit]

    def test_launch_power_recorded(self, manager):
        assert manager.launch_power_dbm("cb0.cbn0") == -3.7
        with pytest.raises(CircuitError):
            manager.launch_power_dbm("ghost")

    def test_attach_takes_the_lowest_free_port(self, manager):
        assert manager.attach_endpoint("cb1.cbn0", -3.7) == 2
        manager.switch.detach(0)
        assert manager.attach_endpoint("cb2.cbn0", -3.7) == 0
        assert manager.attach_endpoint("cb3.cbn0", -3.7) == 3
        assert manager.switch.port_of("cb2.cbn0") == 0
