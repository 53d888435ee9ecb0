"""Rack-level optical fabric facade.

Ties together the pieces of the CBN: brick transceiver ports behind MBO
channels, the rack circuit switch, and the circuit manager.  Orchestration
code (the SDM controller) talks to this facade: *"give me a light path
from compute brick X to memory brick Y"*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import CircuitError, PortError
from repro.hardware.bricks import Brick
from repro.hardware.ports import TransceiverPort
from repro.network.optical.ber import ReceiverModel
from repro.network.optical.circuits import Circuit, CircuitManager
from repro.network.optical.switch import OpticalCircuitSwitch

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.fabric.interconnect import HopPath


@dataclass
class FabricCircuit:
    """A brick-to-brick circuit: the light path plus the endpoint ports.

    ``circuit`` is the single-switch :class:`Circuit` for rack-local
    paths, or an :class:`~repro.fabric.fabric.InterRackCircuit` when the
    light path spans the second switch tier; both expose the same
    interface.  ``hop_path`` carries the interconnect hop list when the
    owning fabric is topology-aware (pod deployments), letting latency
    accounting itemize per-tier propagation.
    """

    circuit: Circuit
    brick_a: Brick
    port_a: TransceiverPort
    brick_b: Brick
    port_b: TransceiverPort
    hop_path: Optional["HopPath"] = None

    @property
    def circuit_id(self) -> str:
        return self.circuit.circuit_id

    @property
    def setup_time_s(self) -> float:
        return self.circuit.setup_time_s

    @property
    def propagation_delay_s(self) -> float:
        return self.circuit.propagation_delay_s

    def port_toward(self, brick: Brick) -> TransceiverPort:
        """The local endpoint port on *brick*."""
        if brick is self.brick_a:
            return self.port_a
        if brick is self.brick_b:
            return self.port_b
        raise CircuitError(
            f"brick {brick.brick_id} is not an endpoint of {self.circuit_id}")


def pair_key(brick_id_a: str, brick_id_b: str) -> tuple[str, str]:
    """The unordered brick-id pair as a dict key."""
    if brick_id_a <= brick_id_b:
        return brick_id_a, brick_id_b
    return brick_id_b, brick_id_a


def pair_index_add(index: dict, circuit: FabricCircuit) -> None:
    """File *circuit* last under its brick pair in *index*."""
    index.setdefault(pair_key(circuit.brick_a.brick_id,
                              circuit.brick_b.brick_id), []).append(circuit)


def pair_index_discard(index: dict, circuit: FabricCircuit) -> None:
    """Drop *circuit* from its brick pair in *index*."""
    key = pair_key(circuit.brick_a.brick_id, circuit.brick_b.brick_id)
    circuits = index[key]
    # By identity: FabricCircuit's dataclass equality compares fields.
    for position, filed in enumerate(circuits):
        if filed is circuit:
            del circuits[position]
            break
    if not circuits:
        del index[key]


class OpticalFabric:
    """The rack's software-defined optical interconnect."""

    def __init__(self, switch: Optional[OpticalCircuitSwitch] = None,
                 receiver: Optional[ReceiverModel] = None,
                 fibre_length_m: float = 10.0) -> None:
        self.switch = switch or OpticalCircuitSwitch("rack-switch")
        self.manager = CircuitManager(
            self.switch, receiver=receiver, fibre_length_m=fibre_length_m)
        self._attached_bricks: dict[str, Brick] = {}
        self._fabric_circuits: dict[str, FabricCircuit] = {}
        #: Live circuits by unordered brick-id pair, oldest first.
        self._pair_circuits: dict[tuple[str, str], list[FabricCircuit]] = {}

    # -- wiring --------------------------------------------------------------------

    def attach_brick(self, brick: Brick) -> int:
        """Fibre every CBN port of *brick* into the switch.

        Returns the number of ports attached.  Each port's launch power is
        taken from its MBO channel.
        """
        if brick.brick_id in self._attached_bricks:
            raise CircuitError(f"brick {brick.brick_id} is already attached")
        attached = 0
        for port in brick.circuit_ports:
            channel = brick.mbo.channel_for_port(port)
            self.manager.attach_endpoint(port.port_id, channel.launch_power_dbm)
            attached += 1
        self._attached_bricks[brick.brick_id] = brick
        return attached

    def is_attached(self, brick: Brick) -> bool:
        return brick.brick_id in self._attached_bricks

    # -- circuits -------------------------------------------------------------------

    def connect(self, brick_a: Brick, brick_b: Brick,
                hops: int = 1) -> FabricCircuit:
        """Establish a circuit between free CBN ports of the two bricks."""
        for brick in (brick_a, brick_b):
            if brick.brick_id not in self._attached_bricks:
                raise CircuitError(
                    f"brick {brick.brick_id} is not attached to the fabric")
            if not brick.is_powered:
                raise CircuitError(
                    f"brick {brick.brick_id} is powered off")
        try:
            port_a = brick_a.circuit_ports.allocate()
            port_b = brick_b.circuit_ports.allocate()
        except PortError as exc:
            raise CircuitError(
                f"no free CBN port: {exc}") from exc
        circuit = self.manager.establish(port_a.port_id, port_b.port_id, hops=hops)
        port_a.connect(port_b)
        fabric_circuit = FabricCircuit(circuit, brick_a, port_a, brick_b, port_b)
        self._fabric_circuits[circuit.circuit_id] = fabric_circuit
        pair_index_add(self._pair_circuits, fabric_circuit)
        return fabric_circuit

    def connect_channels(self, brick_a: Brick, channel_a: int,
                         brick_b: Brick, channel_b: int,
                         hops: int = 1) -> FabricCircuit:
        """Establish a circuit between two *specific* MBO channels.

        The Fig. 7 characterisation drives each MBO channel through a
        known hop count; this entry point pins the endpoints instead of
        taking the first free port.
        """
        port_a = brick_a.mbo.channel(channel_a).port
        port_b = brick_b.mbo.channel(channel_b).port
        if port_a is None or port_b is None:
            raise CircuitError("both MBO channels must have attached ports")
        for brick, port in ((brick_a, port_a), (brick_b, port_b)):
            if brick.brick_id not in self._attached_bricks:
                raise CircuitError(
                    f"brick {brick.brick_id} is not attached to the fabric")
            if not port.is_free:
                raise CircuitError(f"port {port.port_id} is busy")
        circuit = self.manager.establish(port_a.port_id, port_b.port_id,
                                         hops=hops)
        port_a.connect(port_b)
        fabric_circuit = FabricCircuit(circuit, brick_a, port_a, brick_b, port_b)
        self._fabric_circuits[circuit.circuit_id] = fabric_circuit
        pair_index_add(self._pair_circuits, fabric_circuit)
        return fabric_circuit

    def disconnect(self, fabric_circuit: FabricCircuit) -> None:
        """Tear the circuit down and free both endpoint ports."""
        circuit_id = fabric_circuit.circuit_id
        if circuit_id not in self._fabric_circuits:
            raise CircuitError(f"unknown fabric circuit {circuit_id!r}")
        self.manager.teardown(circuit_id)
        fabric_circuit.port_a.disconnect()
        pair_index_discard(self._pair_circuits,
                           self._fabric_circuits.pop(circuit_id))

    def can_connect(self, brick_a: Brick, brick_b: Brick) -> bool:
        """Can traffic flow between the two bricks?

        True when a live circuit already joins them, or both still have
        a free CBN port for a new one.  Pod-scale fabrics override this
        with uplink-aware logic; orchestration must use this probe
        instead of reasoning about ports directly.
        """
        if self.circuit_between(brick_a, brick_b):
            return True
        return bool(brick_a.circuit_ports.free_ports
                    and brick_b.circuit_ports.free_ports)

    def circuit_between(self, brick_a: Brick,
                        brick_b: Brick) -> Optional[FabricCircuit]:
        """The oldest active circuit joining the two bricks, if one
        exists."""
        circuits = self._pair_circuits.get(
            pair_key(brick_a.brick_id, brick_b.brick_id))
        return circuits[0] if circuits else None

    def circuits_of(self, brick: Brick) -> list[FabricCircuit]:
        """All active circuits touching *brick*."""
        return [fc for fc in self._fabric_circuits.values()
                if brick in (fc.brick_a, fc.brick_b)]

    @property
    def active_circuits(self) -> list[FabricCircuit]:
        return list(self._fabric_circuits.values())

    @property
    def power_draw_w(self) -> float:
        """Electrical draw of the switch module."""
        return self.switch.power_draw_w
