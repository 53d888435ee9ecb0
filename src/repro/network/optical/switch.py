"""The rack optical circuit switch.

Models the "low loss 48-port optical switch module provided by
HUBER+SUHNER Polatis" (§III): a non-blocking cross-connect matrix with

* ~1 dB insertion loss per traversal,
* ~100 mW electrical power per port,
* millisecond-scale (piezo/beam-steering) reconfiguration time.

The paper notes a next generation "doubling the optical port density and
halving the per port power consumption" — available through
:meth:`OpticalCircuitSwitch.next_generation`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CircuitError
from repro.network.optical.link import SWITCH_HOP_LOSS_DB

#: Port count of the prototype's switch module.
DEFAULT_PORT_COUNT = 48

#: Electrical power per port (W): "approximately 100 mW/port".
DEFAULT_PORT_POWER_W = 0.1

#: Time to (re)configure a set of cross-connects.  Beam-steering optical
#: switches reconfigure in the low tens of milliseconds.
DEFAULT_SWITCHING_TIME_S = 0.025


class OpticalCircuitSwitch:
    """A non-blocking all-optical cross-connect.

    Ports are numbered ``0 .. port_count-1``.  A *cross-connect* joins an
    ingress port to an egress port bidirectionally; each traversal of the
    switch (one cross-connect on a light path) is one "hop" and costs
    :attr:`hop_loss_db`.

    External devices (brick MBO channels, loopback patch fibres) are
    *attached* to ports by label so circuit bookkeeping can resolve what
    sits behind each port.
    """

    def __init__(self, switch_id: str,
                 port_count: int = DEFAULT_PORT_COUNT,
                 hop_loss_db: float = SWITCH_HOP_LOSS_DB,
                 port_power_w: float = DEFAULT_PORT_POWER_W,
                 switching_time_s: float = DEFAULT_SWITCHING_TIME_S) -> None:
        if port_count < 2:
            raise CircuitError(f"switch needs >= 2 ports, got {port_count}")
        if hop_loss_db < 0 or port_power_w < 0 or switching_time_s < 0:
            raise CircuitError("switch physical parameters must be non-negative")
        self.switch_id = switch_id
        self.port_count = port_count
        self.hop_loss_db = hop_loss_db
        self.port_power_w = port_power_w
        self.switching_time_s = switching_time_s
        self._cross_connects: dict[int, int] = {}
        self._attachments: dict[int, str] = {}
        #: label -> the port :meth:`port_of` returns: the first port, in
        #: ``_attachments`` order, carrying that label.
        self._port_of_label: dict[str, int] = {}
        self.reconfigurations = 0

    @classmethod
    def next_generation(cls, switch_id: str) -> "OpticalCircuitSwitch":
        """The successor module: double density, half per-port power."""
        return cls(switch_id,
                   port_count=DEFAULT_PORT_COUNT * 2,
                   port_power_w=DEFAULT_PORT_POWER_W / 2)

    # -- attachments -------------------------------------------------------------

    def attach(self, port: int, endpoint_label: str) -> None:
        """Declare that *endpoint_label* is fibred into *port*."""
        self._check_port(port)
        if port in self._attachments:
            raise CircuitError(
                f"port {port} already carries {self._attachments[port]!r}")
        self._attachments[port] = endpoint_label
        self._port_of_label.setdefault(endpoint_label, port)

    def detach(self, port: int) -> str:
        """Remove the attachment on *port*; the port must be unconnected."""
        self._check_port(port)
        if port in self._cross_connects:
            raise CircuitError(f"port {port} is cross-connected; disconnect first")
        if port not in self._attachments:
            raise CircuitError(f"port {port} has no attachment")
        label = self._attachments.pop(port)
        if self._port_of_label[label] == port:
            # The next port carrying the same label, if any, takes over.
            del self._port_of_label[label]
            for other, other_label in self._attachments.items():
                if other_label == label:
                    self._port_of_label[label] = other
                    break
        return label

    def attachment(self, port: int) -> Optional[str]:
        """Label attached to *port*, or ``None``."""
        self._check_port(port)
        return self._attachments.get(port)

    def port_of(self, endpoint_label: str) -> int:
        """The port carrying *endpoint_label*."""
        port = self._port_of_label.get(endpoint_label)
        if port is None:
            raise CircuitError(
                f"{endpoint_label!r} is not attached to this switch")
        return port

    def free_attachment_ports(self) -> list[int]:
        """Ports with no attachment at all (available for new fibres)."""
        return [p for p in range(self.port_count) if p not in self._attachments]

    def first_free_attachment_port(self) -> Optional[int]:
        """The lowest port with no attachment, or ``None`` when every
        port carries one."""
        attachments = self._attachments
        for port in range(self.port_count):
            if port not in attachments:
                return port
        return None

    # -- cross-connects ---------------------------------------------------------------

    def connect(self, port_a: int, port_b: int) -> None:
        """Create a bidirectional cross-connect between two ports."""
        self._check_port(port_a)
        self._check_port(port_b)
        if port_a == port_b:
            raise CircuitError(f"cannot cross-connect port {port_a} to itself")
        if port_a in self._cross_connects:
            raise CircuitError(f"port {port_a} is already cross-connected")
        if port_b in self._cross_connects:
            raise CircuitError(f"port {port_b} is already cross-connected")
        self._cross_connects[port_a] = port_b
        self._cross_connects[port_b] = port_a
        self.reconfigurations += 1

    def disconnect(self, port: int) -> tuple[int, int]:
        """Tear down the cross-connect through *port*; returns the pair."""
        self._check_port(port)
        if port not in self._cross_connects:
            raise CircuitError(f"port {port} is not cross-connected")
        peer = self._cross_connects.pop(port)
        del self._cross_connects[peer]
        self.reconfigurations += 1
        return (port, peer) if port < peer else (peer, port)

    def peer_of(self, port: int) -> Optional[int]:
        """The port cross-connected to *port*, or ``None``."""
        self._check_port(port)
        return self._cross_connects.get(port)

    def is_connected(self, port: int) -> bool:
        self._check_port(port)
        return port in self._cross_connects

    @property
    def cross_connect_count(self) -> int:
        """Number of active cross-connects (pairs)."""
        return len(self._cross_connects) // 2

    @property
    def ports_in_use(self) -> int:
        """Ports participating in a cross-connect."""
        return len(self._cross_connects)

    @property
    def power_draw_w(self) -> float:
        """Electrical draw: per-port figure times ports in use."""
        return self.port_power_w * self.ports_in_use

    @property
    def max_power_draw_w(self) -> float:
        """Draw with every port lit."""
        return self.port_power_w * self.port_count

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.port_count:
            raise CircuitError(
                f"switch {self.switch_id} has ports 0..{self.port_count - 1}, "
                f"got {port}")

    def __repr__(self) -> str:
        return (f"OpticalCircuitSwitch({self.switch_id!r}, "
                f"{self.cross_connect_count} circuits on {self.port_count} ports)")
