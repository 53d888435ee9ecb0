"""Unit tests for Pod / InterRackSwitch topology and the pod fabric."""

from __future__ import annotations

import pytest

from repro.errors import CircuitError, FabricError
from repro.fabric.fabric import InterRackCircuit, PodFabric
from repro.fabric.interconnect import PathScope
from repro.fabric.pod import InterRackSwitch, Pod
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.hardware.rack import Rack
from repro.network.optical.switch import OpticalCircuitSwitch
from repro.network.optical.topology import OpticalFabric


def build_pod(racks: int = 2, uplinks: int = 2, cbn_ports: int = 4):
    """A pod of *racks*, each with one compute and one memory brick."""
    pod = Pod("p0")
    fabrics: dict[str, OpticalFabric] = {}
    bricks: dict[str, tuple[ComputeBrick, MemoryBrick]] = {}
    for index in range(racks):
        rack = Rack(f"p0.rack{index}")
        switch = OpticalCircuitSwitch(f"{rack.rack_id}.switch",
                                      port_count=48)
        fabric = OpticalFabric(switch)
        pod.add_rack(rack, switch, uplinks=uplinks)
        tray = rack.new_tray()
        compute = ComputeBrick(f"{rack.rack_id}.cb0", cbn_ports=cbn_ports)
        memory = MemoryBrick(f"{rack.rack_id}.mb0", cbn_ports=cbn_ports)
        tray.plug(compute)
        tray.plug(memory)
        fabrics[rack.rack_id] = fabric
        bricks[rack.rack_id] = (compute, memory)
    pod_fabric = PodFabric(pod, fabrics)
    for compute, memory in bricks.values():
        pod_fabric.attach_brick(compute)
        pod_fabric.attach_brick(memory)
    return pod, pod_fabric, bricks


class TestInterRackSwitch:
    def test_pod_scale_defaults(self):
        switch = InterRackSwitch("pod.sw")
        assert switch.port_count == 192
        assert switch.switching_time_s > 0.025  # bigger matrix, slower

    def test_is_an_optical_circuit_switch(self):
        assert isinstance(InterRackSwitch("pod.sw"), OpticalCircuitSwitch)


class TestPodTopology:
    def test_racks_get_positions(self):
        pod, _fabric, _bricks = build_pod(racks=3)
        positions = [pod.slot(r.rack_id).position for r in pod.racks]
        assert positions == [0, 1, 2]
        for rack in pod.racks:
            assert rack.pod_id == "p0"
        assert pod.rack("p0.rack1").pod_position == 1

    def test_duplicate_rack_rejected(self):
        pod, _fabric, _bricks = build_pod()
        rack = pod.rack("p0.rack0")
        with pytest.raises(FabricError):
            pod.add_rack(rack, OpticalCircuitSwitch("again"))

    def test_rack_of_brick(self):
        pod, _fabric, bricks = build_pod()
        compute0, _ = bricks["p0.rack0"]
        assert pod.rack_of(compute0).rack_id == "p0.rack0"
        assert pod.rack_of_brick_id("p0.rack1.mb0").rack_id == "p0.rack1"
        with pytest.raises(FabricError):
            pod.rack_of(ComputeBrick("stranger"))

    def test_same_rack_and_tray_queries(self):
        pod, _fabric, bricks = build_pod()
        compute0, memory0 = bricks["p0.rack0"]
        _compute1, memory1 = bricks["p0.rack1"]
        assert pod.same_rack(compute0, memory0)
        assert pod.same_tray(compute0, memory0)
        assert not pod.same_rack(compute0, memory1)

    def test_hop_path_scopes(self):
        pod, _fabric, bricks = build_pod()
        compute0, memory0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        assert pod.hop_path(compute0, memory0).scope is PathScope.TRAY
        assert pod.hop_path(compute0, memory1).scope is PathScope.POD
        # Circuits always cross the rack switch, even within a tray.
        assert (pod.circuit_hop_path(compute0, memory0).scope
                is PathScope.RACK)

    def test_fibre_length_composes_from_hop_table(self):
        pod, _fabric, bricks = build_pod()
        compute0, memory0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        assert pod.fibre_length_m(compute0, memory0) == 0.0  # same tray
        assert pod.fibre_length_m(compute0, memory1) == 110.0

    def test_uplink_claim_and_exhaustion(self):
        pod, _fabric, _bricks = build_pod(uplinks=1)
        uplink = pod.claim_uplink("p0.rack0", "c-0")
        assert not uplink.is_free
        with pytest.raises(FabricError):
            pod.claim_uplink("p0.rack0", "c-1")
        pod.release_uplink(uplink)
        assert pod.claim_uplink("p0.rack0", "c-2") is uplink

    def test_inventory_spans_racks(self):
        pod, _fabric, _bricks = build_pod(racks=2)
        inventory = pod.inventory()
        assert inventory["dCOMPUBRICK"] == 2
        assert inventory["dMEMBRICK"] == 2


class TestPodFabric:
    def test_same_rack_connect_delegates_and_annotates(self):
        _pod, fabric, bricks = build_pod()
        compute0, memory0 = bricks["p0.rack0"]
        circuit = fabric.connect(compute0, memory0)
        assert circuit.hop_path is not None
        assert circuit.hop_path.scope is PathScope.RACK
        assert fabric.circuit_between(compute0, memory0) is circuit
        assert fabric.inter_rack_circuits == []

    def test_inter_rack_connect_spans_pod_switch(self):
        pod, fabric, bricks = build_pod()
        compute0, _memory0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        circuit = fabric.connect(compute0, memory1)
        assert isinstance(circuit.circuit, InterRackCircuit)
        assert circuit.hop_path.scope is PathScope.POD
        assert circuit.circuit.hops == 3
        assert pod.switch.cross_connect_count == 1
        assert len(pod.free_uplinks("p0.rack0")) == 1
        assert len(pod.free_uplinks("p0.rack1")) == 1
        assert fabric.circuit_between(compute0, memory1) is circuit
        assert circuit in fabric.circuits_of(compute0)
        assert circuit in fabric.active_circuits

    def test_inter_rack_propagation_exceeds_intra(self):
        _pod, fabric, bricks = build_pod()
        compute0, memory0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        intra = fabric.connect(compute0, memory0)
        inter = fabric.connect(compute0, memory1)
        assert (inter.propagation_delay_s > intra.propagation_delay_s)

    def test_inter_rack_link_budget_closes(self):
        _pod, fabric, bricks = build_pod()
        compute0, _m0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        circuit = fabric.connect(compute0, memory1)
        # 3 switch hops + 4 connector pairs + 110 m of fibre still close
        # at the FEC-free target with default launch power.
        assert circuit.circuit.closes(1e-12)
        assert circuit.circuit.worst_ber < 1e-12

    def test_disconnect_releases_uplinks_and_ports(self):
        pod, fabric, bricks = build_pod()
        compute0, _m0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        circuit = fabric.connect(compute0, memory1)
        port_a = circuit.port_a
        fabric.disconnect(circuit)
        assert port_a.is_free
        assert len(pod.free_uplinks("p0.rack0")) == 2
        assert len(pod.free_uplinks("p0.rack1")) == 2
        assert pod.switch.cross_connect_count == 0
        assert fabric.circuit_between(compute0, memory1) is None

    def test_circuit_between_returns_the_oldest_inter_rack_circuit(self):
        _pod, fabric, bricks = build_pod()
        compute0, _m0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        older = fabric.connect(compute0, memory1)
        newer = fabric.connect(compute0, memory1)
        assert older.circuit_id != newer.circuit_id
        for a, b in ((compute0, memory1), (memory1, compute0)):
            assert fabric.circuit_between(a, b) is older
        fabric.disconnect(older)
        for a, b in ((compute0, memory1), (memory1, compute0)):
            assert fabric.circuit_between(a, b) is newer
        fabric.disconnect(newer)
        assert fabric.circuit_between(compute0, memory1) is None

    def test_uplink_exhaustion_raises_circuit_error(self):
        _pod, fabric, bricks = build_pod(uplinks=1)
        compute0, memory0 = bricks["p0.rack0"]
        compute1, memory1 = bricks["p0.rack1"]
        fabric.connect(compute0, memory1)  # consumes the only uplinks
        with pytest.raises(CircuitError):
            fabric.connect(compute1, memory0)

    def test_can_connect_accounts_for_uplinks(self):
        _pod, fabric, bricks = build_pod(uplinks=1)
        compute0, memory0 = bricks["p0.rack0"]
        compute1, memory1 = bricks["p0.rack1"]
        assert fabric.can_connect(compute0, memory1)
        fabric.connect(compute0, memory1)
        # The established pair stays reachable (live circuit) but a new
        # cross-rack pair cannot get an uplink.
        assert fabric.can_connect(compute0, memory1)
        assert not fabric.can_connect(compute1, memory0)
        # Same-rack connectivity is unaffected by uplink exhaustion.
        assert fabric.can_connect(compute1, memory1)

    def test_power_draw_includes_pod_switch(self):
        pod, fabric, bricks = build_pod()
        compute0, _m0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        before = fabric.power_draw_w
        fabric.connect(compute0, memory1)
        # 2 ports on each rack switch + 2 on the pod switch light up.
        assert fabric.power_draw_w == pytest.approx(
            before + 6 * pod.switch.port_power_w)

    def test_budget_uses_each_traversed_switch_loss(self):
        """A lossier switch in rack B must not tax rack A's paths."""
        pod = Pod("p1")
        fabrics: dict[str, OpticalFabric] = {}
        bricks = {}
        for index, loss in ((0, 1.0), (1, 3.0)):
            rack = Rack(f"p1.rack{index}")
            switch = OpticalCircuitSwitch(f"{rack.rack_id}.switch",
                                          port_count=48, hop_loss_db=loss)
            fabric = OpticalFabric(switch)
            pod.add_rack(rack, switch, uplinks=2)
            tray = rack.new_tray()
            compute = ComputeBrick(f"{rack.rack_id}.cb0", cbn_ports=4)
            memory = MemoryBrick(f"{rack.rack_id}.mb0", cbn_ports=4)
            tray.plug(compute)
            tray.plug(memory)
            fabrics[rack.rack_id] = fabric
            bricks[rack.rack_id] = (compute, memory)
        pod_fabric = PodFabric(pod, fabrics)
        for compute, memory in bricks.values():
            pod_fabric.attach_brick(compute)
            pod_fabric.attach_brick(memory)
        # The nominal hop model is untouched by rack-switch diversity.
        assert pod.interconnect.rack_switch_loss_db == 1.0
        # Rack-local circuit in rack 0 pays 1 dB of switch loss.
        compute0, memory0 = bricks["p1.rack0"]
        intra = pod_fabric.connect(compute0, memory0)
        assert intra.circuit.link_ab.budget.switch_loss_db == \
            pytest.approx(1.0)
        # The inter-rack budget sums the switches actually traversed:
        # rack0 (1 dB) + pod (1 dB) + rack1 (3 dB).
        _c1, memory1 = bricks["p1.rack1"]
        inter = pod_fabric.connect(compute0, memory1)
        assert inter.circuit.link_ab.budget.switch_loss_db == \
            pytest.approx(5.0)

    def test_powered_off_brick_cannot_connect(self):
        _pod, fabric, bricks = build_pod()
        compute0, _m0 = bricks["p0.rack0"]
        _c1, memory1 = bricks["p0.rack1"]
        memory1.power_off()
        with pytest.raises(CircuitError):
            fabric.connect(compute0, memory1)
