"""The pod-wide software-defined optical interconnect.

:class:`PodFabric` presents the same facade as the single-rack
:class:`~repro.network.optical.topology.OpticalFabric` — attach bricks,
connect/disconnect brick pairs, enumerate circuits — but routes through
the pod topology: rack-local pairs delegate to that rack's fabric, while
cross-rack pairs get an :class:`InterRackCircuit` spanning rack switch A,
the :class:`~repro.fabric.pod.InterRackSwitch`, and rack switch B over
pre-cabled uplink fibres.  Orchestration code is oblivious: the SDM
controller keeps asking for "a light path from brick X to brick Y".
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import CircuitError, FabricError, PortError
from repro.fabric.interconnect import HopPath
from repro.fabric.pod import Pod, Uplink
from repro.hardware.bricks import Brick
from repro.network.optical.ber import ReceiverModel
from repro.network.optical.link import LinkBudget, OpticalLink
from repro.network.optical.switch import OpticalCircuitSwitch
from repro.network.optical.topology import (
    FabricCircuit,
    OpticalFabric,
    pair_index_add,
    pair_index_discard,
    pair_key,
)

#: Mated connector pairs on an inter-rack light path: one at each brick
#: endpoint plus one at each uplink patch panel.
INTER_RACK_CONNECTOR_PAIRS = 4


class InterRackCircuit:
    """A light path spanning the second switch tier.

    Duck-type compatible with :class:`~repro.network.optical.circuits.Circuit`
    (the SDM controller and access paths only use the shared surface:
    ``circuit_id``, ``setup_time_s``, ``propagation_delay_s``,
    ``worst_ber``, ``closes``).
    """

    def __init__(self, circuit_id: str, endpoint_a: str, endpoint_b: str,
                 hop_path: HopPath, link_ab: OpticalLink,
                 link_ba: OpticalLink, setup_time_s: float,
                 uplink_a: Uplink, uplink_b: Uplink,
                 cross_connects: list[tuple[OpticalCircuitSwitch, int]],
                 ) -> None:
        self.circuit_id = circuit_id
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.hop_path = hop_path
        self.hops = hop_path.switch_hops
        self.link_ab = link_ab
        self.link_ba = link_ba
        self.setup_time_s = setup_time_s
        self.uplink_a = uplink_a
        self.uplink_b = uplink_b
        #: ``(switch, port)`` pairs to disconnect on teardown.
        self.cross_connects = cross_connects
        self.active = True

    @property
    def worst_ber(self) -> float:
        """The worse of the two directional theoretical BERs."""
        return max(self.link_ab.theoretical_ber, self.link_ba.theoretical_ber)

    @property
    def propagation_delay_s(self) -> float:
        """One-way propagation delay (both directions are symmetric)."""
        return self.hop_path.propagation_delay_s

    def closes(self, target_ber: float = 1e-12) -> bool:
        """True when both directions meet *target_ber*."""
        return (self.link_ab.closes(target_ber)
                and self.link_ba.closes(target_ber))

    def __repr__(self) -> str:
        return (f"InterRackCircuit({self.circuit_id!r}, "
                f"{self.endpoint_a} <-> {self.endpoint_b}, "
                f"{self.hops} switch hops)")


class PodFabric:
    """The pod's unified optical interconnect over per-rack fabrics."""

    def __init__(self, pod: Pod, rack_fabrics: dict[str, OpticalFabric],
                 receiver: Optional[ReceiverModel] = None) -> None:
        unknown = set(rack_fabrics) - {r.rack_id for r in pod.racks}
        if unknown:
            raise FabricError(
                f"fabrics for racks not in pod {pod.pod_id}: {sorted(unknown)}")
        self.pod = pod
        self._rack_fabrics = dict(rack_fabrics)
        self.receiver = receiver or ReceiverModel()
        #: brick_id -> rack_id, filled at attach time.
        self._locations: dict[str, str] = {}
        self._inter_circuits: dict[str, FabricCircuit] = {}
        #: Inter-rack circuits by unordered brick-id pair, oldest first.
        self._inter_pairs: dict[tuple[str, str], list[FabricCircuit]] = {}
        self._ids = itertools.count()

    # -- wiring --------------------------------------------------------------------

    def rack_fabric(self, rack_id: str) -> OpticalFabric:
        try:
            return self._rack_fabrics[rack_id]
        except KeyError:
            raise FabricError(
                f"pod fabric has no rack fabric for {rack_id!r}") from None

    def attach_brick(self, brick: Brick) -> int:
        """Fibre the brick into its own rack's switch."""
        rack = self.pod.rack_of(brick)
        attached = self.rack_fabric(rack.rack_id).attach_brick(brick)
        self._locations[brick.brick_id] = rack.rack_id
        return attached

    def is_attached(self, brick: Brick) -> bool:
        return brick.brick_id in self._locations

    def rack_id_of(self, brick: Brick) -> str:
        try:
            return self._locations[brick.brick_id]
        except KeyError:
            raise FabricError(
                f"brick {brick.brick_id} is not attached to the pod "
                f"fabric") from None

    # -- circuits -------------------------------------------------------------------

    def connect(self, brick_a: Brick, brick_b: Brick,
                hops: int = 1) -> FabricCircuit:
        """Establish a circuit; spans the pod switch when racks differ."""
        rack_a = self.rack_id_of(brick_a)
        rack_b = self.rack_id_of(brick_b)
        if rack_a == rack_b:
            circuit = self.rack_fabric(rack_a).connect(
                brick_a, brick_b, hops=hops)
            circuit.hop_path = self.pod.circuit_hop_path(brick_a, brick_b)
            return circuit
        return self._connect_inter_rack(brick_a, rack_a, brick_b, rack_b)

    def _connect_inter_rack(self, brick_a: Brick, rack_a: str,
                            brick_b: Brick, rack_b: str) -> FabricCircuit:
        for brick in (brick_a, brick_b):
            if not brick.is_powered:
                raise CircuitError(f"brick {brick.brick_id} is powered off")
        circuit_id = f"podcircuit-{next(self._ids)}"
        try:
            uplink_a = self.pod.claim_uplink(rack_a, circuit_id)
        except FabricError as exc:
            raise CircuitError(str(exc)) from exc
        try:
            uplink_b = self.pod.claim_uplink(rack_b, circuit_id)
        except FabricError as exc:
            self.pod.release_uplink(uplink_a)
            raise CircuitError(str(exc)) from exc
        try:
            port_a = brick_a.circuit_ports.allocate()
            port_b = brick_b.circuit_ports.allocate()
        except PortError as exc:
            self.pod.release_uplink(uplink_a)
            self.pod.release_uplink(uplink_b)
            raise CircuitError(f"no free CBN port: {exc}") from exc
        port_a.connect(port_b)

        switch_a = self.pod.slot(rack_a).switch
        switch_b = self.pod.slot(rack_b).switch
        pod_switch = self.pod.switch
        cross_connects: list[tuple[OpticalCircuitSwitch, int]] = []
        switch_a.connect(switch_a.port_of(port_a.port_id),
                         uplink_a.rack_switch_port)
        cross_connects.append((switch_a, uplink_a.rack_switch_port))
        pod_switch.connect(uplink_a.pod_switch_port, uplink_b.pod_switch_port)
        cross_connects.append((pod_switch, uplink_a.pod_switch_port))
        switch_b.connect(uplink_b.rack_switch_port,
                         switch_b.port_of(port_b.port_id))
        cross_connects.append((switch_b, uplink_b.rack_switch_port))

        hop_path = self.pod.circuit_hop_path(brick_a, brick_b)
        # Budget the actual switches on the path, not the hop model's
        # nominal figures — racks may carry different switch modules.
        switch_loss_db = (switch_a.hop_loss_db + pod_switch.hop_loss_db
                          + switch_b.hop_loss_db)
        link_ab = self._directional_link(
            f"{circuit_id}.ab", rack_a, port_a.port_id, hop_path,
            switch_loss_db)
        link_ba = self._directional_link(
            f"{circuit_id}.ba", rack_b, port_b.port_id, hop_path,
            switch_loss_db)
        # The SDM-C pushes the three switch reconfigurations in parallel;
        # setup completes when the slowest matrix settles.
        setup_time_s = max(switch_a.switching_time_s,
                           pod_switch.switching_time_s,
                           switch_b.switching_time_s)
        circuit = InterRackCircuit(
            circuit_id=circuit_id,
            endpoint_a=port_a.port_id,
            endpoint_b=port_b.port_id,
            hop_path=hop_path,
            link_ab=link_ab,
            link_ba=link_ba,
            setup_time_s=setup_time_s,
            uplink_a=uplink_a,
            uplink_b=uplink_b,
            cross_connects=cross_connects,
        )
        fabric_circuit = FabricCircuit(circuit, brick_a, port_a,
                                       brick_b, port_b, hop_path=hop_path)
        self._inter_circuits[circuit_id] = fabric_circuit
        pair_index_add(self._inter_pairs, fabric_circuit)
        return fabric_circuit

    def _directional_link(self, name: str, source_rack: str,
                          source_port_id: str, hop_path: HopPath,
                          switch_loss_db: float) -> OpticalLink:
        """Power budget of one direction of an inter-rack light path."""
        manager = self.rack_fabric(source_rack).manager
        switch_hops = hop_path.switch_hops
        budget = LinkBudget(
            launch_dbm=manager.launch_power_dbm(source_port_id),
            switch_hops=switch_hops,
            connector_pairs=INTER_RACK_CONNECTOR_PAIRS,
            fibre_length_m=hop_path.fibre_length_m,
            # LinkBudget charges a uniform per-hop figure; spread the
            # composed per-switch losses evenly so the total is exact.
            hop_loss_db=switch_loss_db / max(1, switch_hops),
        )
        return OpticalLink(name, budget, self.receiver)

    def disconnect(self, fabric_circuit: FabricCircuit) -> None:
        """Tear the circuit down and free ports (and uplinks)."""
        circuit_id = fabric_circuit.circuit_id
        if circuit_id in self._inter_circuits:
            circuit = fabric_circuit.circuit
            for switch, port in circuit.cross_connects:
                switch.disconnect(port)
            self.pod.release_uplink(circuit.uplink_a)
            self.pod.release_uplink(circuit.uplink_b)
            fabric_circuit.port_a.disconnect()
            circuit.active = False
            pair_index_discard(self._inter_pairs,
                               self._inter_circuits.pop(circuit_id))
            return
        rack_id = self.rack_id_of(fabric_circuit.brick_a)
        self.rack_fabric(rack_id).disconnect(fabric_circuit)

    # -- queries -------------------------------------------------------------------

    def circuit_between(self, brick_a: Brick,
                        brick_b: Brick) -> Optional[FabricCircuit]:
        rack_a = self.rack_id_of(brick_a)
        rack_b = self.rack_id_of(brick_b)
        if rack_a == rack_b:
            return self.rack_fabric(rack_a).circuit_between(brick_a, brick_b)
        circuits = self._inter_pairs.get(
            pair_key(brick_a.brick_id, brick_b.brick_id))
        return circuits[0] if circuits else None

    def circuits_of(self, brick: Brick) -> list[FabricCircuit]:
        rack_id = self.rack_id_of(brick)
        circuits = self.rack_fabric(rack_id).circuits_of(brick)
        circuits.extend(fc for fc in self._inter_circuits.values()
                        if brick in (fc.brick_a, fc.brick_b))
        return circuits

    def can_connect(self, brick_a: Brick, brick_b: Brick) -> bool:
        """Reachability probe: live circuit, or ports (and uplinks) free."""
        if self.circuit_between(brick_a, brick_b):
            return True
        if not (brick_a.circuit_ports.free_ports
                and brick_b.circuit_ports.free_ports):
            return False
        rack_a = self.rack_id_of(brick_a)
        rack_b = self.rack_id_of(brick_b)
        if rack_a == rack_b:
            return True
        return bool(self.pod.free_uplinks(rack_a)
                    and self.pod.free_uplinks(rack_b))

    @property
    def active_circuits(self) -> list[FabricCircuit]:
        circuits: list[FabricCircuit] = []
        for fabric in self._rack_fabrics.values():
            circuits.extend(fabric.active_circuits)
        circuits.extend(self._inter_circuits.values())
        return circuits

    @property
    def inter_rack_circuits(self) -> list[FabricCircuit]:
        return list(self._inter_circuits.values())

    @property
    def power_draw_w(self) -> float:
        """Every rack switch plus the pod switch."""
        return (sum(f.power_draw_w for f in self._rack_fabrics.values())
                + self.pod.switch.power_draw_w)
