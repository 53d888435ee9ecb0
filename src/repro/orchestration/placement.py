"""Placement policies for the SDM controller.

Section IV.C requires the controller to "safely inspect resource
availability and make a power-consumption conscious selection of
resources".  At pod scale a second concern appears: the interconnect
hierarchy is the dominant term in remote-memory latency, so policies
score *distance* (same rack vs. across the pod switch) alongside power.
Three policies are provided:

* :class:`PowerAwarePackingPolicy` — the paper's choice: prefer the
  requester's own rack, then pack onto already-powered, already-used
  bricks so unused ones stay off.  This is what makes the Fig. 12
  power-off fractions possible.
* :class:`FirstFitPolicy` — the neutral baseline (registration order),
  local rack first.
* :class:`SpreadPolicy` — load-balancing anti-policy used by the
  placement ablation bench: most-free-first, which maximizes the number
  of powered bricks and deliberately ignores topology.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.orchestration.registry import (
    ComputeAvailability,
    MemoryAvailability,
)

#: Placement-policy names accepted by :func:`make_placement_policy`.
PLACEMENT_POLICIES = ("pack", "first-fit", "spread")


def make_placement_policy(name: str) -> "PlacementPolicy":
    """Instantiate a placement policy from its builder-facing name.

    The federation builders take the *name*, not an instance: a string
    survives pickling into the parallel federation's worker processes,
    and each worker then constructs its own (stateful) policy object
    alongside the pod it builds.
    """
    if name == "pack":
        return PowerAwarePackingPolicy()
    if name == "first-fit":
        return FirstFitPolicy()
    if name == "spread":
        return SpreadPolicy()
    known = ", ".join(PLACEMENT_POLICIES)
    raise ConfigurationError(
        f"unknown placement policy {name!r}; known: {known}")


class PlacementPolicy(Protocol):
    """Strategy interface for brick selection.

    ``origin_rack_id`` names the rack the request originates from (the
    requesting compute brick's rack for memory placement, an affinity
    hint for VM placement); ``None`` means topology-oblivious selection.
    """

    def select_memory_brick(
            self, candidates: Sequence[MemoryAvailability],
            size_bytes: int,
            origin_rack_id: Optional[str] = None) -> Optional[str]:
        """Pick the dMEMBRICK to carve *size_bytes* from, or ``None``."""
        ...

    def select_compute_brick(
            self, candidates: Sequence[ComputeAvailability],
            vcpus: int, ram_bytes: int,
            origin_rack_id: Optional[str] = None) -> Optional[str]:
        """Pick the dCOMPUBRICK to host a VM, or ``None``."""
        ...


def _memory_fits(candidate: MemoryAvailability, size_bytes: int) -> bool:
    return candidate.largest_span_bytes >= size_bytes


def _compute_fits(candidate: ComputeAvailability, vcpus: int,
                  ram_bytes: int) -> bool:
    return candidate.free_cores >= vcpus and candidate.free_ram_bytes >= ram_bytes


def rack_distance(candidate_rack_id: str,
                  origin_rack_id: Optional[str]) -> int:
    """Interconnect tiers between a candidate and the request origin.

    0 — same rack (or topology unknown on either side): traffic stays
    behind the in-rack switch.  1 — different rack: traffic crosses the
    pod's second switch tier.
    """
    if not origin_rack_id or not candidate_rack_id:
        return 0
    return 0 if candidate_rack_id == origin_rack_id else 1


class FirstFitPolicy:
    """Take the first fitting candidate, preferring the origin rack.

    Within each distance tier the registration order is preserved (the
    sort is stable), so single-rack behaviour is unchanged.
    """

    def select_memory_brick(self, candidates: Sequence[MemoryAvailability],
                            size_bytes: int,
                            origin_rack_id: Optional[str] = None
                            ) -> Optional[str]:
        ordered = sorted(candidates,
                         key=lambda c: rack_distance(c.rack_id,
                                                     origin_rack_id))
        for candidate in ordered:
            if _memory_fits(candidate, size_bytes):
                return candidate.brick_id
        return None

    def select_compute_brick(self, candidates: Sequence[ComputeAvailability],
                             vcpus: int, ram_bytes: int,
                             origin_rack_id: Optional[str] = None
                             ) -> Optional[str]:
        ordered = sorted(candidates,
                         key=lambda c: rack_distance(c.rack_id,
                                                     origin_rack_id))
        for candidate in ordered:
            if _compute_fits(candidate, vcpus, ram_bytes):
                return candidate.brick_id
        return None


class PowerAwarePackingPolicy:
    """Local rack first, then pack onto powered/used bricks, best fit.

    Ordering for memory bricks: fewest interconnect tiers to the
    requester, then bricks already serving *hot* segments (see below),
    then powered before off, then most-utilized first (tightest
    packing), then smallest adequate span.  For compute bricks: closest
    to the affinity hint, then powered and VM-hosting before idle, then
    fewest free cores.  Powering on a sleeping brick is the last resort
    within a distance tier; crossing the pod switch is a later resort
    still, because the inter-rack hop dominates every remote access
    while power-on is paid once.

    **Hot-segment co-location.**  The data-mover layer reports which
    dMEMBRICKs back heavily accessed segments
    (:meth:`~repro.datamover.mover.DataMover.hot_memory_bricks`); when
    ``colocate_hot`` is on, new segments within a distance tier prefer
    those bricks, so hot traffic concentrates on fewer circuits — the
    mover's cache and prefetcher then see deeper locality per light
    path.  With no hot hints recorded the ordering is unchanged.
    """

    def __init__(self, colocate_hot: bool = True) -> None:
        self.colocate_hot = colocate_hot
        self._hot_bricks: set[str] = set()

    def note_hot_brick(self, brick_id: str) -> None:
        """Record that *brick_id* backs hot segments."""
        self._hot_bricks.add(brick_id)

    def clear_hot_bricks(self) -> None:
        self._hot_bricks.clear()

    @property
    def hot_bricks(self) -> frozenset[str]:
        return frozenset(self._hot_bricks)

    def _hot_rank(self, brick_id: str) -> int:
        """0 for a hot brick when co-location is on, else 1."""
        if self.colocate_hot and brick_id in self._hot_bricks:
            return 0
        return 1

    def select_memory_brick(self, candidates: Sequence[MemoryAvailability],
                            size_bytes: int,
                            origin_rack_id: Optional[str] = None
                            ) -> Optional[str]:
        def key(c: MemoryAvailability) -> tuple:
            return (
                rack_distance(c.rack_id, origin_rack_id),  # stay in-rack
                self._hot_rank(c.brick_id),  # co-locate with hot segments
                not c.powered,            # powered bricks first
                -c.utilization,           # pack the fullest
                c.largest_span_bytes,     # then tightest fitting span
                c.brick_id,               # deterministic tie-break
            )
        # min(), not a sort: every key ends in the unique brick id, so
        # the least key is the brick a sort would put first.
        best = min((c for c in candidates if _memory_fits(c, size_bytes)),
                   key=key, default=None)
        return None if best is None else best.brick_id

    def select_compute_brick(self, candidates: Sequence[ComputeAvailability],
                             vcpus: int, ram_bytes: int,
                             origin_rack_id: Optional[str] = None
                             ) -> Optional[str]:
        def key(c: ComputeAvailability) -> tuple:
            return (
                rack_distance(c.rack_id, origin_rack_id),
                not c.powered,
                not c.hosts_vms,          # co-locate with existing VMs
                c.free_cores,             # tightest core fit
                c.brick_id,
            )
        best = min((c for c in candidates
                    if _compute_fits(c, vcpus, ram_bytes)),
                   key=key, default=None)
        return None if best is None else best.brick_id


class SpreadPolicy:
    """Most-free-first: maximizes brick count in use (ablation baseline).

    Deliberately topology-oblivious — the ablation contrasts it with the
    locality-aware packing policy.
    """

    def select_memory_brick(self, candidates: Sequence[MemoryAvailability],
                            size_bytes: int,
                            origin_rack_id: Optional[str] = None
                            ) -> Optional[str]:
        best = min((c for c in candidates if _memory_fits(c, size_bytes)),
                   key=lambda c: (-c.free_bytes, c.brick_id), default=None)
        return None if best is None else best.brick_id

    def select_compute_brick(self, candidates: Sequence[ComputeAvailability],
                             vcpus: int, ram_bytes: int,
                             origin_rack_id: Optional[str] = None
                             ) -> Optional[str]:
        best = min((c for c in candidates
                    if _compute_fits(c, vcpus, ram_bytes)),
                   key=lambda c: (-c.free_cores, c.brick_id), default=None)
        return None if best is None else best.brick_id
