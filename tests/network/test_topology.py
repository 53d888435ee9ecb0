"""Unit tests for the optical fabric facade."""

from __future__ import annotations

import pytest

from repro.errors import CircuitError
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.network.optical.topology import OpticalFabric


class TestAttachment:
    def test_attach_all_cbn_ports(self, compute_brick):
        fabric = OpticalFabric()
        attached = fabric.attach_brick(compute_brick)
        assert attached == len(compute_brick.circuit_ports)
        assert fabric.is_attached(compute_brick)

    def test_double_attach_rejected(self, compute_brick):
        fabric = OpticalFabric()
        fabric.attach_brick(compute_brick)
        with pytest.raises(CircuitError):
            fabric.attach_brick(compute_brick)


class TestConnect:
    def test_connect_allocates_ports(self, fabric, compute_brick,
                                     memory_brick):
        circuit = fabric.connect(compute_brick, memory_brick)
        assert circuit.port_a.peer is circuit.port_b
        assert circuit.brick_a is compute_brick
        assert fabric.circuit_between(compute_brick, memory_brick) is circuit

    def test_port_toward(self, fabric, compute_brick, memory_brick):
        circuit = fabric.connect(compute_brick, memory_brick)
        assert circuit.port_toward(compute_brick) is circuit.port_a
        assert circuit.port_toward(memory_brick) is circuit.port_b
        stranger = ComputeBrick("cb9")
        with pytest.raises(CircuitError):
            circuit.port_toward(stranger)

    def test_unattached_brick_rejected(self, fabric, compute_brick):
        stranger = MemoryBrick("mb9")
        with pytest.raises(CircuitError, match="not attached"):
            fabric.connect(compute_brick, stranger)

    def test_powered_off_brick_rejected(self, fabric, compute_brick,
                                        memory_brick):
        memory_brick.power_off()
        with pytest.raises(CircuitError, match="powered off"):
            fabric.connect(compute_brick, memory_brick)

    def test_multiple_circuits_between_same_pair(self, fabric,
                                                 compute_brick, memory_brick):
        first = fabric.connect(compute_brick, memory_brick)
        second = fabric.connect(compute_brick, memory_brick)
        assert first.circuit_id != second.circuit_id
        assert len(fabric.circuits_of(compute_brick)) == 2

    def test_port_exhaustion(self, compute_brick):
        # A brick with a single CBN port supports a single circuit.
        small_a = ComputeBrick("one-a", cbn_ports=1)
        small_b = MemoryBrick("one-b", cbn_ports=1)
        fabric = OpticalFabric()
        fabric.attach_brick(small_a)
        fabric.attach_brick(small_b)
        fabric.connect(small_a, small_b)
        with pytest.raises(CircuitError, match="no free CBN port"):
            fabric.connect(small_a, small_b)


class TestConnectChannels:
    def test_pins_requested_lanes(self, fabric, compute_brick, memory_brick):
        circuit = fabric.connect_channels(compute_brick, 3, memory_brick, 5)
        assert circuit.port_a is compute_brick.mbo.channel(3).port
        assert circuit.port_b is memory_brick.mbo.channel(5).port

    def test_busy_lane_rejected(self, fabric, compute_brick, memory_brick):
        fabric.connect_channels(compute_brick, 0, memory_brick, 0)
        with pytest.raises(CircuitError, match="busy"):
            fabric.connect_channels(compute_brick, 0, memory_brick, 1)

    def test_circuit_between_returns_the_oldest_live_circuit(
            self, fabric, compute_brick, memory_brick):
        older = fabric.connect_channels(compute_brick, 1, memory_brick, 2)
        newer = fabric.connect_channels(compute_brick, 3, memory_brick, 4)
        for a, b in ((compute_brick, memory_brick),
                     (memory_brick, compute_brick)):
            assert fabric.circuit_between(a, b) is older
        fabric.disconnect(older)
        for a, b in ((compute_brick, memory_brick),
                     (memory_brick, compute_brick)):
            assert fabric.circuit_between(a, b) is newer
        fabric.disconnect(newer)
        assert fabric.circuit_between(compute_brick, memory_brick) is None


class TestDisconnect:
    def test_frees_everything(self, fabric, compute_brick, memory_brick):
        circuit = fabric.connect(compute_brick, memory_brick, hops=3)
        fabric.disconnect(circuit)
        assert fabric.circuit_between(compute_brick, memory_brick) is None
        assert circuit.port_a.is_free and circuit.port_b.is_free
        assert fabric.switch.ports_in_use == 0

    def test_double_disconnect_rejected(self, fabric, compute_brick,
                                        memory_brick):
        circuit = fabric.connect(compute_brick, memory_brick)
        fabric.disconnect(circuit)
        with pytest.raises(CircuitError):
            fabric.disconnect(circuit)

    def test_power_draw_follows_circuits(self, fabric, compute_brick,
                                         memory_brick):
        assert fabric.power_draw_w == 0.0
        circuit = fabric.connect(compute_brick, memory_brick)
        assert fabric.power_draw_w > 0.0
        fabric.disconnect(circuit)
        assert fabric.power_draw_w == 0.0
