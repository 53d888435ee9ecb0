"""Power states and power accounting.

The TCO study of Section VI rests on one mechanism: individually powered
units (bricks in dReDBox, whole servers conventionally) can be **powered
off** when unutilized.  Every modelled component therefore carries a
:class:`PowerProfile` (draw per state) and a :class:`PowerState`; a
:class:`PowerAccountant` sums draw over a set of components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol

from repro.errors import PowerStateError


class PowerState(enum.Enum):
    """Operational power state of a component."""

    #: Fully powered down; draws :attr:`PowerProfile.off_w`.
    OFF = "off"
    #: Powered but not serving load.
    IDLE = "idle"
    #: Powered and serving load.
    ACTIVE = "active"


#: Legal state transitions. Off components must be powered on (to idle)
#: before they can go active, mirroring brick bring-up in the prototype.
_ALLOWED_TRANSITIONS: dict[PowerState, frozenset[PowerState]] = {
    PowerState.OFF: frozenset({PowerState.IDLE}),
    PowerState.IDLE: frozenset({PowerState.OFF, PowerState.ACTIVE}),
    PowerState.ACTIVE: frozenset({PowerState.IDLE}),
}


@dataclass(frozen=True)
class PowerProfile:
    """Per-state electrical draw of a component, in watts."""

    active_w: float
    idle_w: float
    off_w: float = 0.0

    def __post_init__(self) -> None:
        if self.off_w < 0 or self.idle_w < 0 or self.active_w < 0:
            raise ValueError("power draws must be non-negative")
        if not (self.off_w <= self.idle_w <= self.active_w):
            raise ValueError(
                "expected off_w <= idle_w <= active_w, got "
                f"{self.off_w}/{self.idle_w}/{self.active_w}")

    def draw(self, state: PowerState) -> float:
        """Draw in watts for *state*."""
        if state is PowerState.ACTIVE:
            return self.active_w
        if state is PowerState.IDLE:
            return self.idle_w
        return self.off_w


class Powered:
    """Mixin giving a component a power profile and managed state.

    Components start :attr:`PowerState.IDLE` (the prototype boots every
    plugged brick; orchestration later powers the unused ones off).
    """

    def __init__(self, power_profile: PowerProfile,
                 initial_state: PowerState = PowerState.IDLE) -> None:
        self.power_profile = power_profile
        self._power_state = initial_state
        #: Called after every state change (``None`` when unwatched).
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def power_state(self) -> PowerState:
        return self._power_state

    @property
    def power_draw_w(self) -> float:
        """Instantaneous draw in watts."""
        return self.power_profile.draw(self._power_state)

    @property
    def is_powered(self) -> bool:
        return self._power_state is not PowerState.OFF

    def set_power_state(self, new_state: PowerState) -> None:
        """Transition to *new_state*, enforcing the legal state machine."""
        if new_state is self._power_state:
            return
        if new_state not in _ALLOWED_TRANSITIONS[self._power_state]:
            raise PowerStateError(
                f"illegal power transition {self._power_state.value} -> "
                f"{new_state.value}")
        self._power_state = new_state
        if self.on_change is not None:
            self.on_change()

    def power_off(self) -> None:
        """Power the component down (via idle if currently active)."""
        if self._power_state is PowerState.ACTIVE:
            self.set_power_state(PowerState.IDLE)
        if self._power_state is PowerState.IDLE:
            self.set_power_state(PowerState.OFF)

    def power_on(self) -> None:
        """Bring an off component to idle; no-op when already powered."""
        if self._power_state is PowerState.OFF:
            self.set_power_state(PowerState.IDLE)


class HasPowerDraw(Protocol):
    """Anything that reports an instantaneous power draw."""

    @property
    def power_draw_w(self) -> float: ...


class PowerAccountant:
    """Aggregates instantaneous draw over a collection of components."""

    def __init__(self, components: Iterable[HasPowerDraw] = ()) -> None:
        self._components: list[HasPowerDraw] = list(components)

    def attach(self, component: HasPowerDraw) -> None:
        """Register *component* for accounting."""
        self._components.append(component)

    @property
    def component_count(self) -> int:
        return len(self._components)

    def total_draw_w(self) -> float:
        """Sum of instantaneous draw across all registered components."""
        return sum(c.power_draw_w for c in self._components)

    def energy_j(self, duration_s: float) -> float:
        """Energy in joules if the current draw persisted for *duration_s*."""
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        return self.total_draw_w() * duration_s
