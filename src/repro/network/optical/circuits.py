"""Multi-hop optical circuit construction and lifetime management.

A circuit is a light path between two brick ports.  The minimal circuit
traverses the switch once (one hop); the Fig. 7 characterisation drove
links through **six and eight hops** by looping the path back through the
switch over external patch fibres.  :class:`CircuitManager` reproduces
that: an *n*-hop circuit consumes the two endpoint ports plus ``n - 1``
loopback patch pairs, and accrues ``n`` hops of insertion loss plus the
extra connector losses of each patch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import CircuitError
from repro.network.optical.link import LinkBudget, OpticalLink
from repro.network.optical.ber import ReceiverModel
from repro.network.optical.switch import OpticalCircuitSwitch


@dataclass
class Circuit:
    """An established bidirectional light path between two brick ports.

    Attributes:
        circuit_id: Manager-assigned identifier.
        endpoint_a / endpoint_b: Labels of the brick ports at each end.
        switch_ports: Every switch port the path occupies, in path order
            (endpoint port, loopback pairs..., endpoint port).
        hops: Number of traversals of the switch (cross-connects).
        link_ab / link_ba: Directional links carrying the power budgets.
        setup_time_s: Time the establishment took (switch reconfiguration).
    """

    circuit_id: str
    endpoint_a: str
    endpoint_b: str
    switch_ports: list[int]
    hops: int
    link_ab: OpticalLink
    link_ba: OpticalLink
    setup_time_s: float
    active: bool = True

    @property
    def worst_ber(self) -> float:
        """The worse of the two directional theoretical BERs."""
        return max(self.link_ab.theoretical_ber, self.link_ba.theoretical_ber)

    @property
    def propagation_delay_s(self) -> float:
        """One-way propagation delay (both directions are symmetric)."""
        return self.link_ab.propagation_delay_s

    def closes(self, target_ber: float = 1e-12) -> bool:
        """True when both directions meet *target_ber*."""
        return self.link_ab.closes(target_ber) and self.link_ba.closes(target_ber)


class CircuitManager:
    """Allocates switch ports and builds :class:`Circuit` objects.

    The manager owns the mapping of endpoint labels (brick port ids) to
    switch ports: callers attach endpoints once, then establish and tear
    down circuits between them.
    """

    def __init__(self, switch: OpticalCircuitSwitch,
                 receiver: Optional[ReceiverModel] = None,
                 fibre_length_m: float = 10.0) -> None:
        self.switch = switch
        self.receiver = receiver or ReceiverModel()
        self.fibre_length_m = fibre_length_m
        self._circuits: dict[str, Circuit] = {}
        self._ids = itertools.count()
        #: Launch power per endpoint label, set at attach time.
        self._launch_dbm: dict[str, float] = {}

    # -- attachment ---------------------------------------------------------------

    def attach_endpoint(self, endpoint_label: str, launch_dbm: float,
                        switch_port: Optional[int] = None) -> int:
        """Fibre an endpoint into the switch; returns the port used."""
        if switch_port is None:
            switch_port = self.switch.first_free_attachment_port()
            if switch_port is None:
                raise CircuitError("switch has no free port for attachment")
        self.switch.attach(switch_port, endpoint_label)
        self._launch_dbm[endpoint_label] = launch_dbm
        return switch_port

    def launch_power_dbm(self, endpoint_label: str) -> float:
        try:
            return self._launch_dbm[endpoint_label]
        except KeyError:
            raise CircuitError(
                f"endpoint {endpoint_label!r} was never attached") from None

    # -- circuit lifecycle ------------------------------------------------------------

    def establish(self, endpoint_a: str, endpoint_b: str,
                  hops: int = 1) -> Circuit:
        """Build an *hops*-traversal circuit between two endpoints.

        ``hops - 1`` loopback patch pairs are allocated from free switch
        ports; running out of ports raises :class:`CircuitError` (this is
        the "running low on physical ports" situation that motivates the
        packet-switched fallback in §III).
        """
        if hops < 1:
            raise CircuitError(f"a circuit needs >= 1 hop, got {hops}")
        if endpoint_a == endpoint_b:
            raise CircuitError("circuit endpoints must differ")
        port_a = self.switch.port_of(endpoint_a)
        port_b = self.switch.port_of(endpoint_b)
        if self.switch.is_connected(port_a):
            raise CircuitError(f"endpoint {endpoint_a!r} is already in a circuit")
        if self.switch.is_connected(port_b):
            raise CircuitError(f"endpoint {endpoint_b!r} is already in a circuit")

        loopback_pairs = self._allocate_loopbacks(hops - 1)

        # Wire the path: a -> lb1_in ~ lb1_out -> lb2_in ~ ... -> b
        path_ports = [port_a]
        for lb_in, lb_out in loopback_pairs:
            path_ports.extend((lb_in, lb_out))
        path_ports.append(port_b)
        for left, right in zip(path_ports[0::2], path_ports[1::2]):
            self.switch.connect(left, right)

        # Connectors: one pair at each endpoint plus one per loopback patch.
        connector_pairs = 2 + len(loopback_pairs)
        budget_ab = LinkBudget(
            launch_dbm=self.launch_power_dbm(endpoint_a),
            switch_hops=hops,
            connector_pairs=connector_pairs,
            fibre_length_m=self.fibre_length_m,
            hop_loss_db=self.switch.hop_loss_db,
        )
        budget_ba = LinkBudget(
            launch_dbm=self.launch_power_dbm(endpoint_b),
            switch_hops=hops,
            connector_pairs=connector_pairs,
            fibre_length_m=self.fibre_length_m,
            hop_loss_db=self.switch.hop_loss_db,
        )
        circuit_id = f"circuit-{next(self._ids)}"
        circuit = Circuit(
            circuit_id=circuit_id,
            endpoint_a=endpoint_a,
            endpoint_b=endpoint_b,
            switch_ports=path_ports,
            hops=hops,
            link_ab=OpticalLink(f"{circuit_id}.ab", budget_ab, self.receiver),
            link_ba=OpticalLink(f"{circuit_id}.ba", budget_ba, self.receiver),
            setup_time_s=self.switch.switching_time_s,
        )
        self._circuits[circuit_id] = circuit
        return circuit

    def _allocate_loopbacks(self, count: int) -> list[tuple[int, int]]:
        """Claim *count* externally patched port pairs from free ports."""
        if count == 0:
            return []
        free = self.switch.free_attachment_ports()
        if len(free) < 2 * count:
            raise CircuitError(
                f"need {2 * count} free switch ports for {count} loopback "
                f"patches, only {len(free)} free")
        pairs = []
        for index in range(count):
            lb_in, lb_out = free[2 * index], free[2 * index + 1]
            self.switch.attach(lb_in, f"loopback-{lb_in}-{lb_out}.in")
            self.switch.attach(lb_out, f"loopback-{lb_in}-{lb_out}.out")
            pairs.append((lb_in, lb_out))
        return pairs

    def teardown(self, circuit_id: str) -> Circuit:
        """Release a circuit: drop its cross-connects and loopback ports."""
        circuit = self.get(circuit_id)
        if not circuit.active:
            raise CircuitError(f"circuit {circuit_id!r} is already torn down")
        for port in circuit.switch_ports:
            if self.switch.is_connected(port):
                self.switch.disconnect(port)
        # Free loopback attachments (interior ports); endpoints stay fibred.
        for port in circuit.switch_ports[1:-1]:
            self.switch.detach(port)
        circuit.active = False
        del self._circuits[circuit_id]
        return circuit

    def get(self, circuit_id: str) -> Circuit:
        try:
            return self._circuits[circuit_id]
        except KeyError:
            raise CircuitError(f"unknown circuit {circuit_id!r}") from None

    @property
    def active_circuits(self) -> list[Circuit]:
        return list(self._circuits.values())

    def circuit_between(self, endpoint_a: str,
                        endpoint_b: str) -> Optional[Circuit]:
        """The active circuit joining two endpoints, if any (either order)."""
        for circuit in self._circuits.values():
            ends = {circuit.endpoint_a, circuit.endpoint_b}
            if ends == {endpoint_a, endpoint_b}:
                return circuit
        return None
