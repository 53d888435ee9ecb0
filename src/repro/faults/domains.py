"""Correlated failure domains and pluggable hazard functions.

PR 7's injector draws *independent* failures: a memory brick and its
rack's uplink die on unrelated clocks, which is kind to the placement
layer — real outages are not.  A PDU trip takes out every brick in the
rack *and* the uplink *and* the shard controller's host in one event; a
spine incident takes a pod's switch and uplinks together.  This module
models exactly that:

* :class:`FailureDomain` — a named group of ``(FaultClass, target)``
  members that fail **together**.  One domain event injects every
  member with the same repair horizon, so the blast radius is the
  union of the members' blast radii at a single instant.
* :class:`ExponentialHazard` / :class:`WeibullHazard` — pluggable
  inter-arrival distributions.  The Weibull shape parameter gives the
  bathtub's two interesting halves: ``shape < 1`` is infant mortality
  (burn-in), ``shape > 1`` is wear-out; ``shape == 1`` degenerates to
  the exponential.

**Determinism.**  Each domain draws from its own named stream
(``faults.domain.<name>``), so configuring domains never perturbs the
per-class streams — a seed that produced a given independent-failure
schedule in PR 7 still produces it bit-identically with domains layered
on top.

Builders (:func:`rack_power_domains`, :func:`pod_network_domains`)
derive the canonical domain sets from a federation's topology so
experiments don't hand-enumerate member lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.errors import FaultError
from repro.faults.metrics import FaultClass


class Hazard(Protocol):
    """Inter-arrival distribution for failures of one class/domain."""

    def draw(self, stream: np.random.Generator) -> float:
        """Next time-to-failure (s), consuming draws from *stream*."""
        ...


@dataclass(frozen=True)
class ExponentialHazard:
    """Memoryless hazard — constant failure rate ``1/mean_s``."""

    mean_s: float

    def __post_init__(self) -> None:
        if self.mean_s <= 0:
            raise FaultError(
                f"hazard mean must be positive, got {self.mean_s}")

    def draw(self, stream: np.random.Generator) -> float:
        return float(stream.exponential(self.mean_s))


@dataclass(frozen=True)
class WeibullHazard:
    """Weibull hazard: bathtub halves via the shape parameter.

    ``shape < 1`` — decreasing hazard (infant mortality): failures
    cluster early, survivors become more reliable.  ``shape > 1`` —
    increasing hazard (wear-out): the longer a component runs, the
    likelier its next failure.  ``scale_s`` is the characteristic life
    (the 63.2% quantile).
    """

    scale_s: float
    shape: float

    def __post_init__(self) -> None:
        if self.scale_s <= 0:
            raise FaultError(
                f"Weibull scale must be positive, got {self.scale_s}")
        if self.shape <= 0:
            raise FaultError(
                f"Weibull shape must be positive, got {self.shape}")

    def draw(self, stream: np.random.Generator) -> float:
        return float(self.scale_s * stream.weibull(self.shape))


def coerce_hazard(spec: str) -> Hazard:
    """Parse a CLI-shaped hazard spec.

    ``"exponential"`` (rate comes from the class MTBF) is expressed by
    returning ``None`` upstream; here the accepted forms are
    ``"weibull:<scale_s>:<shape>"`` and ``"exponential:<mean_s>"``.
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "weibull":
            scale_s, _, shape = rest.partition(":")
            return WeibullHazard(scale_s=float(scale_s), shape=float(shape))
        if kind == "exponential":
            return ExponentialHazard(mean_s=float(rest))
    except (TypeError, ValueError):
        raise FaultError(f"malformed hazard spec {spec!r}") from None
    raise FaultError(
        f"unknown hazard kind {kind!r}; known: exponential, weibull")


@dataclass(frozen=True)
class FailureDomain:
    """A named set of components that fail together.

    ``kind`` is descriptive ("power" or "network"); the semantics are
    entirely in the member list.  ``hazard`` defaults to an exponential
    with mean :attr:`mtbf_s`; pass a :class:`WeibullHazard` for bathtub
    behaviour.  All members repair together after the drawn (or
    scripted) outage duration.
    """

    name: str
    kind: str
    members: tuple[tuple[FaultClass, str], ...]
    mtbf_s: float
    mttr_s: float
    hazard: Optional[Hazard] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise FaultError(f"domain {self.name!r} has no members")
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise FaultError(
                f"domain {self.name!r}: MTBF/MTTR must be positive "
                f"(got {self.mtbf_s}/{self.mttr_s})")

    @property
    def effective_hazard(self) -> Hazard:
        return (self.hazard if self.hazard is not None
                else ExponentialHazard(self.mtbf_s))

    @property
    def member_set(self) -> frozenset[tuple[FaultClass, str]]:
        return frozenset(self.members)


@dataclass
class DomainOutage:
    """Runtime record of one active domain failure."""

    domain: FailureDomain
    failed_s: float
    #: Simulated time at which the domain (and all its members) repairs.
    until_s: float
    #: Members the injector actually failed for this outage (a member
    #: already down independently is not re-injected).
    injected: tuple[tuple[FaultClass, str], ...] = field(default=())

    def holds(self, klass: FaultClass, target: str, now: float) -> bool:
        """True while this outage pins ``(klass, target)`` down.

        Strict inequality on ``until_s`` makes repairs at exactly the
        domain's clear instant proceed regardless of same-timestamp
        event ordering.
        """
        return (klass, target) in self.domain.member_set and self.until_s > now


# -- topology-derived builders ------------------------------------------------


def rack_power_domains(federation, *, mtbf_s: float = 300.0,
                       mttr_s: float = 15.0,
                       hazard: Optional[Hazard] = None
                       ) -> list[FailureDomain]:
    """One power domain per (pod, rack): the rack's memory bricks, its
    uplink, and the shard controller managing it trip together — the
    PDU-failure model."""
    domains: list[FailureDomain] = []
    for pod_id in sorted(federation.pods):
        sdm = federation.pods[pod_id].system.sdm
        shard_of_rack: dict[str, str] = {}
        for shard, racks in sdm.shard_members().items():
            for rack in racks:
                shard_of_rack[rack] = shard
        for rack in sdm.registry.rack_ids():
            memory, _ = sdm.registry.rack_entries(rack)
            members: list[tuple[FaultClass, str]] = [
                (FaultClass.MEMORY_BRICK, f"{pod_id}:{e.brick.brick_id}")
                for e in memory]
            members.append((FaultClass.RACK_UPLINK, f"{pod_id}:{rack}"))
            members.append(
                (FaultClass.SHARD, f"{pod_id}:{shard_of_rack[rack]}"))
            domains.append(FailureDomain(
                name=f"power.{pod_id}.{rack}", kind="power",
                members=tuple(members), mtbf_s=mtbf_s, mttr_s=mttr_s,
                hazard=hazard))
    return domains


def pod_network_domains(federation, *, mtbf_s: float = 600.0,
                        mttr_s: float = 10.0,
                        hazard: Optional[Hazard] = None
                        ) -> list[FailureDomain]:
    """One network domain per pod: the inter-rack switch plus every
    rack uplink — the spine-incident model."""
    domains: list[FailureDomain] = []
    for pod_id in sorted(federation.pods):
        registry = federation.pods[pod_id].system.sdm.registry
        members: list[tuple[FaultClass, str]] = [
            (FaultClass.SWITCH, pod_id)]
        members.extend((FaultClass.RACK_UPLINK, f"{pod_id}:{rack}")
                       for rack in registry.rack_ids())
        domains.append(FailureDomain(
            name=f"net.{pod_id}", kind="network",
            members=tuple(members), mtbf_s=mtbf_s, mttr_s=mttr_s,
            hazard=hazard))
    return domains
