"""Unit tests for the optical circuit switch."""

from __future__ import annotations

import pytest

from repro.errors import CircuitError
from repro.network.optical.switch import OpticalCircuitSwitch


@pytest.fixture
def switch() -> OpticalCircuitSwitch:
    return OpticalCircuitSwitch("sw0", port_count=8)


class TestCrossConnects:
    def test_connect_is_bidirectional(self, switch):
        switch.connect(0, 5)
        assert switch.peer_of(0) == 5
        assert switch.peer_of(5) == 0
        assert switch.cross_connect_count == 1

    def test_connect_to_self_rejected(self, switch):
        with pytest.raises(CircuitError):
            switch.connect(3, 3)

    def test_busy_port_rejected(self, switch):
        switch.connect(0, 1)
        with pytest.raises(CircuitError):
            switch.connect(1, 2)

    def test_disconnect_returns_ordered_pair(self, switch):
        switch.connect(6, 2)
        assert switch.disconnect(6) == (2, 6)
        assert switch.peer_of(2) is None

    def test_disconnect_unconnected_rejected(self, switch):
        with pytest.raises(CircuitError):
            switch.disconnect(0)

    def test_port_bounds(self, switch):
        with pytest.raises(CircuitError):
            switch.connect(0, 8)
        with pytest.raises(CircuitError):
            switch.peer_of(-1)

    def test_reconfiguration_counter(self, switch):
        switch.connect(0, 1)
        switch.disconnect(0)
        assert switch.reconfigurations == 2

    def test_is_connected(self, switch):
        switch.connect(0, 1)
        assert switch.is_connected(0)
        assert not switch.is_connected(2)


class TestAttachments:
    def test_attach_and_lookup(self, switch):
        switch.attach(3, "cb0.cbn0")
        assert switch.attachment(3) == "cb0.cbn0"
        assert switch.port_of("cb0.cbn0") == 3

    def test_double_attach_rejected(self, switch):
        switch.attach(3, "a")
        with pytest.raises(CircuitError):
            switch.attach(3, "b")

    def test_detach_requires_unconnected(self, switch):
        switch.attach(0, "a")
        switch.attach(1, "b")
        switch.connect(0, 1)
        with pytest.raises(CircuitError, match="cross-connected"):
            switch.detach(0)

    def test_detach_returns_label(self, switch):
        switch.attach(0, "a")
        assert switch.detach(0) == "a"
        assert switch.attachment(0) is None

    def test_detach_empty_rejected(self, switch):
        with pytest.raises(CircuitError):
            switch.detach(0)

    def test_port_of_unknown_rejected(self, switch):
        with pytest.raises(CircuitError):
            switch.port_of("ghost")

    def test_free_attachment_ports(self, switch):
        switch.attach(0, "a")
        switch.attach(7, "b")
        assert switch.free_attachment_ports() == [1, 2, 3, 4, 5, 6]

    def test_port_of_is_the_first_attached_port_of_a_label(self, switch):
        switch.attach(5, "a")
        switch.attach(2, "a")
        assert switch.port_of("a") == 5
        switch.detach(5)
        assert switch.port_of("a") == 2
        switch.attach(5, "a")
        assert switch.port_of("a") == 2
        switch.detach(2)
        assert switch.port_of("a") == 5
        switch.detach(5)
        with pytest.raises(CircuitError):
            switch.port_of("a")


class TestPower:
    def test_draw_follows_ports_in_use(self, switch):
        assert switch.power_draw_w == 0.0
        switch.connect(0, 1)
        assert switch.power_draw_w == pytest.approx(0.2)
        switch.connect(2, 3)
        assert switch.power_draw_w == pytest.approx(0.4)

    def test_max_draw(self, switch):
        assert switch.max_power_draw_w == pytest.approx(0.8)

    def test_next_generation_doubles_density_halves_power(self):
        current = OpticalCircuitSwitch("now")
        following = OpticalCircuitSwitch.next_generation("next")
        assert following.port_count == 2 * current.port_count
        assert following.port_power_w == pytest.approx(
            current.port_power_w / 2)

    def test_too_few_ports_rejected(self):
        with pytest.raises(CircuitError):
            OpticalCircuitSwitch("bad", port_count=1)
