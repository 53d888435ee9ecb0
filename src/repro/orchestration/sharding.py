"""Sharded SDM controller: per-rack reservation domains.

One SDM-C critical section serving a whole pod is the orchestration
tier's scalability wall: adding racks adds brick-side capacity but not
controller capacity (the `cluster_scale` sweep shows per-request p99
*worsening* from 1 to 2 racks at high arrival rates).  The dReDBox
orchestration tier is explicitly hierarchical — per-rack controllers
under a datacenter-level SDM — and both DRackSim (Puri et al.) and the
cross-layer disaggregated-memory survey identify centralized allocation
metadata as the limiting factor.

:class:`ShardedSdmController` splits the reservation domain into
**shards** — one per rack by default, or racks grouped round-robin into
a configured shard count — each backed by its own capacity-1 DES
critical section (a named domain on the shared
:class:`~repro.sim.control.ControlContext`).  The synchronous API and
every ``*_process`` generator of :class:`~repro.orchestration.\
sdm_controller.SdmController` are preserved; only the locking changes:

* **locality-first placements** that stay within the requester's shard
  take only that shard's lock — the common case under a locality-aware
  policy, so shards serve their racks in parallel;
* **cross-shard placements** (and cross-shard relocation / migration)
  run a **two-phase reserve**: the involved shard locks are acquired in
  canonical shard-ID order (deadlock-free), capacity on the target
  shard is tentatively *held* (phase 1), then the compute-side work —
  local window, light path across the pod switch — either commits the
  hold or rolls it back (phase 2).  A mid-pipeline rejection therefore
  never strands capacity: the hold is freed and the next candidate (or
  a :class:`~repro.errors.PlacementError`) follows.

No global lock exists anywhere: correctness across shards rests on the
canonical acquisition order plus hold/commit/abort, which the
sharding-invariant test suite checks (capacity conservation under
concurrent cross-shard traffic; explicit abort rollback).
"""

from __future__ import annotations

import bisect
import itertools
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    AllocationError,
    OrchestrationError,
    PlacementError,
    ReproError,
)
from repro.memory.address import align_up
from repro.network.optical.topology import OpticalFabric
from repro.orchestration.placement import PlacementPolicy
from repro.orchestration.registry import ResourceRegistry
from repro.orchestration.requests import VmAllocationRequest
from repro.orchestration.sdm_controller import (
    DEFAULT_SDM_TIMINGS,
    SEGMENT_COPY_RATE_BPS,
    SdmController,
    SdmTimings,
)
from repro.sim.control import ControlContext
from repro.sim.engine import ProcessGenerator
from repro.software.scaleup import AttachTicket

#: Prefix of the named reservation domains the shards live on.
SHARD_DOMAIN_PREFIX = "sdm."

#: Virtual nodes per shard on the takeover hash ring.  Enough replicas
#: that a dead shard's racks spread across the survivors instead of all
#: landing on one neighbour (the Ironic conductor hash-ring rationale).
RING_REPLICAS = 32


@dataclass(frozen=True)
class ShardHold:
    """A tentative (phase-1) capacity reservation on one shard.

    The held bytes are already carved out of the brick's allocator, so
    no concurrent placement can double-book them; until committed the
    hold is tracked by the controller and is rolled back (freed) when
    phase 2 rejects.
    """

    hold_id: int
    shard: str
    brick_id: str
    offset: int
    size: int


class ShardedSdmController(SdmController):
    """SDM-C facade whose reservation domain is sharded per rack.

    Drop-in replacement for :class:`SdmController`: same synchronous
    API, same ``*_process`` generators, same registry/fabric/policy
    collaborators.  ``shard_count=None`` (default) gives one shard per
    rack; an explicit count groups racks round-robin (in sorted rack-id
    order, so the mapping is canonical) into that many shards.
    ``shard_count=1`` degenerates to a single serialized controller —
    the baseline for shard-scaling sweeps.
    """

    def __init__(self, registry: ResourceRegistry, fabric: OpticalFabric,
                 policy: Optional[PlacementPolicy] = None,
                 timings: SdmTimings = DEFAULT_SDM_TIMINGS,
                 shard_count: Optional[int] = None) -> None:
        super().__init__(registry, fabric, policy=policy, timings=timings)
        if shard_count is not None and shard_count < 1:
            raise OrchestrationError(
                f"shard count must be >= 1, got {shard_count}")
        self._shard_count = shard_count
        self._rack_to_shard: dict[str, str] = {}
        self._mapped_brick_count = -1
        self._holds: dict[int, ShardHold] = {}
        self._hold_ids = itertools.count()
        #: Failed shard -> whether the survivors take its racks over.
        self._failed_shards: dict[str, bool] = {}
        #: Hash rings keyed by the frozen live-shard set they cover.
        self._rings: dict[frozenset, list[tuple[int, str]]] = {}

    # -- shard topology -----------------------------------------------------

    def _shard_map(self) -> dict[str, str]:
        """rack_id -> shard name, rebuilt when the brick set grows.

        Racks are sorted before assignment, so the mapping (and with it
        the canonical lock order) is deterministic regardless of
        registration order.  The registry only grows, so its brick
        count is a sufficient change marker — steady-state calls (the
        allocation hot path queries this per candidate) are a dict
        return, not a rescan.
        """
        if self.registry.brick_count != self._mapped_brick_count:
            racks = sorted(
                {e.rack_id for e in self.registry.compute_entries}
                | {e.rack_id for e in self.registry.memory_entries})
            count = self._shard_count or max(1, len(racks))
            self._rack_to_shard = {
                rack: f"shard{index % count}"
                for index, rack in enumerate(racks)}
            self._mapped_brick_count = self.registry.brick_count
        return self._rack_to_shard

    def shard_of_rack(self, rack_id: str) -> str:
        """The shard (reservation domain) responsible for *rack_id*.

        Normally the canonical round-robin assignment; while the home
        shard is failed *with takeover*, the rack is served by the
        surviving shard the consistent hash ring maps it to (Ironic
        conductor style), and moves back the moment the home shard is
        restored.  A shard failed *without* takeover keeps nominal
        responsibility — its racks are simply unmanaged until repair
        (see :meth:`rack_is_served`).
        """
        shard = self._shard_map().get(rack_id, "shard0")
        if self._failed_shards.get(shard, False):
            return self._takeover_shard(rack_id)
        return shard

    def shard_of_brick(self, brick_id: str) -> str:
        """The shard (reservation domain) responsible for *brick_id*."""
        return self.shard_of_rack(self.registry.rack_of(brick_id))

    def shard_names(self) -> list[str]:
        """Every shard name, sorted (the canonical acquisition order)."""
        names = sorted(set(self._shard_map().values()))
        return names or ["shard0"]

    @property
    def shard_count(self) -> int:
        return len(self.shard_names())

    def shard_members(self) -> dict[str, list[str]]:
        """shard name -> sorted rack ids it covers (introspection)."""
        members: dict[str, list[str]] = {}
        for rack_id, shard in sorted(self._shard_map().items()):
            members.setdefault(shard, []).append(rack_id)
        return members

    # -- shard failure and takeover -----------------------------------------

    @property
    def failed_shards(self) -> list[str]:
        """Currently failed shards, sorted."""
        return sorted(self._failed_shards)

    def live_shards(self) -> list[str]:
        """Shards currently serving, sorted (canonical order)."""
        return [name for name in self.shard_names()
                if name not in self._failed_shards]

    def rack_is_served(self, rack_id: str) -> bool:
        """True when some live shard manages *rack_id*'s reservations.

        False only for racks whose home shard failed *without*
        takeover: their capacity is unreachable until the shard
        repairs — the baseline the Ironic-style takeover is measured
        against.
        """
        return self.shard_of_rack(rack_id) not in self._failed_shards

    def _ring(self, live: frozenset) -> list[tuple[int, str]]:
        """The consistent hash ring over *live* shards (cached).

        Each shard contributes :data:`RING_REPLICAS` CRC32-hashed
        virtual nodes, so rack reassignment on membership change is
        both deterministic across processes and spread across the
        survivors.
        """
        ring = self._rings.get(live)
        if ring is None:
            ring = sorted(
                (zlib.crc32(f"{shard}#{replica}".encode("utf-8")), shard)
                for shard in live for replica in range(RING_REPLICAS))
            self._rings[live] = ring
        return ring

    def _takeover_shard(self, rack_id: str) -> str:
        """The live shard taking *rack_id* over (clockwise ring walk)."""
        live = frozenset(self.live_shards())
        if not live:
            raise OrchestrationError(
                "every controller shard is down; no takeover possible")
        ring = self._ring(live)
        point = zlib.crc32(rack_id.encode("utf-8"))
        index = bisect.bisect_left(ring, (point, "")) % len(ring)
        return ring[index][1]

    def _serving_shards(self, candidates) -> dict[str, Optional[str]]:
        """rack id -> the live shard serving it (``None`` while
        unserved, see :meth:`rack_is_served`) for each distinct rack of
        *candidates*: one :meth:`shard_of_rack` per rack, not per brick.
        """
        shards: dict[str, Optional[str]] = {}
        for candidate in candidates:
            rack_id = candidate.rack_id
            if rack_id not in shards:
                shard = self.shard_of_rack(rack_id)
                shards[rack_id] = (None if shard in self._failed_shards
                                   else shard)
        return shards

    def takeover_map(self) -> dict[str, str]:
        """rack id -> shard currently serving it (introspection)."""
        return {rack_id: self.shard_of_rack(rack_id)
                for rack_id in sorted(self._shard_map())}

    def fail_shard(self, name: str, *,
                   takeover: bool = True) -> list[ShardHold]:
        """Kill one reservation shard; returns the holds rolled back.

        Every in-flight phase-1 :class:`ShardHold` on the dead shard is
        aborted — its tentatively carved bytes return to the pool, so a
        reserve the dead controller could no longer commit never
        strands capacity.  With *takeover* (the self-healing path) the
        surviving shards immediately adopt the dead shard's racks over
        the consistent hash ring; without it the racks go unmanaged
        (:meth:`rack_is_served` turns False) until
        :meth:`restore_shard`.
        """
        if name not in self.shard_names():
            raise OrchestrationError(f"unknown shard {name!r}")
        if name in self._failed_shards:
            raise OrchestrationError(f"shard {name!r} is already failed")
        if takeover and len(self.live_shards()) < 2:
            raise OrchestrationError(
                f"cannot take over {name!r}: no surviving shard")
        aborted = [hold for hold in self._holds.values()
                   if hold.shard == name]
        for hold in aborted:
            self._abort_hold(hold)
        self._failed_shards[name] = takeover
        return aborted

    def restore_shard(self, name: str) -> None:
        """Bring a repaired shard back; its racks return to it."""
        if name not in self._failed_shards:
            raise OrchestrationError(f"shard {name!r} is not failed")
        del self._failed_shards[name]

    # -- locking ------------------------------------------------------------

    def _enter_shards(self, ctx: ControlContext, label: str,
                      shards) -> ProcessGenerator:
        """Acquire the named shard domains in canonical (sorted) order.

        Every multi-shard acquisition in the controller goes through
        here, so two concurrent cross-shard operations always claim
        their common shards in the same order — the classic total-order
        argument that makes the two-phase reserve deadlock-free.
        """
        token = []
        for name in sorted(set(shards)):
            domain_name = SHARD_DOMAIN_PREFIX + name
            grant = yield from ctx.enter_domain(domain_name, label)
            token.append((name, ctx.domain(domain_name), grant))
        return tuple(token)

    def reserve_scope(self, ctx: ControlContext, label: str,
                      brick_ids: tuple = ()) -> ProcessGenerator:
        """Acquire the shard domains covering *brick_ids*.

        Empty *brick_ids* acquires every shard (whole-pool passes such
        as elasticity rebalancing).  The token is released through the
        inherited :meth:`SdmController.release_scope`.
        """
        if brick_ids:
            shards = {self.shard_of_brick(b) for b in brick_ids}
        else:
            shards = set(self.shard_names())
        token = yield from self._enter_shards(ctx, label, shards)
        return token

    def scope_covers(self, token, brick_ids: tuple) -> bool:
        """True when the held shard locks cover every brick — the
        re-validation behind :meth:`SdmController.reserve_scope_stable`
        (a segment may migrate to another shard while the scope
        queues)."""
        held = {name for name, _resource, _grant in token}
        needed = {self.shard_of_brick(b) for b in brick_ids}
        return needed <= held

    # -- two-phase holds ----------------------------------------------------

    @property
    def pending_holds(self) -> list[ShardHold]:
        """Phase-1 holds not yet committed or aborted (normally empty
        outside a cross-shard critical section)."""
        return list(self._holds.values())

    def _prepare_hold(self, brick_id: str, size: int) -> ShardHold:
        """Phase 1: tentatively carve *size* bytes out of *brick_id*.

        Must be called while holding the brick's shard lock.  Raises
        :class:`~repro.errors.AllocationError` when the brick cannot
        fit the request (the caller treats that as a rejected
        candidate, not a failure).
        """
        entry = self.registry.memory(brick_id)
        offset = entry.allocator.allocate(size)
        hold = ShardHold(hold_id=next(self._hold_ids),
                         shard=self.shard_of_brick(brick_id),
                         brick_id=brick_id, offset=offset, size=size)
        self._holds[hold.hold_id] = hold
        return hold

    def _commit_hold(self, hold: ShardHold) -> None:
        """Phase 2 success: the held bytes become a live reservation."""
        del self._holds[hold.hold_id]

    def _abort_hold(self, hold: ShardHold) -> None:
        """Phase 2 rejection: return the held bytes to the pool."""
        entry = self.registry.memory(hold.brick_id)
        entry.allocator.free(hold.offset)
        del self._holds[hold.hold_id]

    # -- allocation ---------------------------------------------------------

    def allocate_process(self, ctx: ControlContext, compute_brick_id: str,
                         vm_id: str, size_bytes: int, *,
                         charge_config: bool = True) -> ProcessGenerator:
        """DES process: reserve a segment under the *shard* critical
        sections.

        Locality first: the requester's home shard is tried under that
        single shard lock — the common case with a topology-aware
        policy, so different racks' allocations proceed in parallel.
        Only when the home shard cannot host the segment does the
        two-phase cross-shard path run: home and target shard locks in
        canonical order, tentative hold on the target, commit or
        rollback.  ``charge_config`` behaves exactly as on the base
        controller (batching planes amortize the config push).
        """
        compute_entry = self.registry.compute(compute_brick_id)
        padded = align_up(size_bytes, self.registry.segment_alignment)
        home = self.shard_of_brick(compute_brick_id)

        # Phase 0 — locality fast path: home shard lock only.
        token = yield from self._enter_shards(ctx, vm_id, [home])
        try:
            ticket = self._allocate_in_shard(compute_entry, vm_id,
                                             padded, home)
            if ticket is not None:
                ticket, critical_s = self._charged(ticket, charge_config)
                yield ctx.sim.timeout(critical_s)
                return ticket
        finally:
            self.release_scope(token)

        # Cross-shard path: optimistic candidate pick (no lock), then
        # two-phase reserve under both locks; a candidate invalidated
        # between pick and lock is skipped and the next one tried.
        rejected: set[str] = set()
        while True:
            pick = self._pick_remote_candidate(compute_entry, padded,
                                               home, rejected)
            if pick is None:
                raise PlacementError(
                    f"no reachable dMEMBRICK can host {padded} contiguous "
                    f"bytes for {compute_brick_id} (home shard and every "
                    f"remote shard rejected the placement)")
            target_shard = self.shard_of_brick(pick)
            token = yield from self._enter_shards(ctx, vm_id,
                                                  [home, target_shard])
            try:
                ticket = self._two_phase_allocate(compute_entry, vm_id,
                                                  padded, pick)
                if ticket is not None:
                    ticket, critical_s = self._charged(ticket,
                                                       charge_config)
                    yield ctx.sim.timeout(critical_s)
                    return ticket
            finally:
                self.release_scope(token)
            rejected.add(pick)

    def _allocate_in_shard(self, compute_entry, vm_id: str, padded: int,
                           shard: str) -> Optional[AttachTicket]:
        """Try the reservation with candidates restricted to *shard*.

        Returns ``None`` when the shard has no suitable brick (the
        caller falls through to the cross-shard path).
        """
        if shard in self._failed_shards:
            return None  # home shard down without takeover
        availability = self.registry.memory_availability()
        shards = self._serving_shards(availability)
        candidates = [c for c in availability if shards[c.rack_id] == shard]
        if not candidates:
            return None
        try:
            return self._allocate_from_candidates(
                compute_entry, vm_id, padded, candidates)
        except PlacementError:
            return None

    def _pick_remote_candidate(self, compute_entry, padded: int,
                               home: str, rejected: set) -> Optional[str]:
        """Policy pick among non-home-shard bricks (optimistic, no lock)."""
        availability = self.registry.memory_availability()
        shards = self._serving_shards(availability)
        candidates = [c for c in availability
                      if shards[c.rack_id] not in (home, None)
                      and c.brick_id not in rejected]
        if not candidates:
            return None
        return self.policy.select_memory_brick(
            candidates, padded,
            origin_rack_id=compute_entry.rack_id or None)

    def _two_phase_allocate(self, compute_entry, vm_id: str, padded: int,
                            target_id: str) -> Optional[AttachTicket]:
        """Two-phase reserve on *target_id*, both shard locks held.

        Phase 1 tentatively holds the capacity on the target shard;
        phase 2 validates reachability and builds the compute-side
        state (window, circuit).  Any phase-2 rejection rolls the hold
        back.  Returns ``None`` when this candidate must be skipped
        (stale availability, unreachable); propagates hard compute-side
        failures (e.g. address-map exhaustion) after rollback.
        """
        target_entry = self.registry.memory(target_id)
        if target_entry.failed:
            return None

        latency = self.timings.reservation_s
        try:
            hold = self._prepare_hold(target_id, padded)  # phase 1
        except AllocationError:
            return None  # shrank since the optimistic pick
        try:
            if not self._circuit_feasible(compute_entry.brick,
                                          target_entry.brick):
                self._abort_hold(hold)
                return None
            if self.registry.ensure_powered(target_id):
                latency += self.timings.power_on_s
            ticket = self._finish_allocation(
                compute_entry, vm_id, padded, target_entry,
                hold.offset, latency)
        except ReproError:
            if hold.hold_id in self._holds:
                self._abort_hold(hold)
            raise
        self._commit_hold(hold)
        return ticket

    # -- VM placement -------------------------------------------------------

    def place_vm_process(self, ctx: ControlContext,
                         request: VmAllocationRequest) -> ProcessGenerator:
        """DES process: select (and reserve) a compute brick under its
        shard's critical section.

        The candidate brick is picked optimistically, its shard lock is
        taken, and the selection is re-validated under the lock against
        that shard's bricks only; a shard whose capacity evaporated in
        between is excluded and the next preference tried.
        """
        excluded: set[str] = set()
        while True:
            availability = self.registry.compute_availability()
            shards = self._serving_shards(availability)
            candidates = [c for c in availability
                          if shards[c.rack_id] is not None
                          and c.brick_id not in excluded]
            pick = self.policy.select_compute_brick(
                candidates, request.vcpus, ram_bytes=0,
                origin_rack_id=request.affinity_rack_id or None)
            if pick is None:
                raise PlacementError(
                    f"no dCOMPUBRICK has {request.vcpus} free cores")
            shard = self.shard_of_brick(pick)
            mark = ctx.sim.events_processed
            token = yield from self._enter_shards(ctx, request.vm_id,
                                                  [shard])
            try:
                if ctx.sim.events_processed - mark <= 1:
                    # Uncontended fast path: acquiring the free shard
                    # lock processed at most our own grant event, so no
                    # other process ran between the optimistic snapshot
                    # and here — the pick is still the policy's argmin
                    # (it is the best of all candidates, hence the best
                    # of its own shard's subset) and the re-snapshot
                    # below would reproduce it verbatim.
                    brick_id = pick
                else:
                    availability = self.registry.compute_availability()
                    shards = self._serving_shards(availability)
                    shard_candidates = [
                        c for c in availability
                        if shards[c.rack_id] == shard
                        and c.brick_id not in excluded]
                    brick_id = self.policy.select_compute_brick(
                        shard_candidates, request.vcpus, ram_bytes=0,
                        origin_rack_id=request.affinity_rack_id or None)
                if brick_id is not None:
                    latency = self.timings.reservation_s
                    if self.registry.ensure_powered(brick_id):
                        latency += self.timings.power_on_s
                    yield ctx.sim.timeout(latency)
                    return brick_id, latency
            finally:
                self.release_scope(token)
            # Only the revalidated pick is written off: capacity that
            # reappears on the shard's other bricks (a concurrent
            # depart while we queue) stays eligible for the next try.
            excluded.add(pick)

    # -- release / relocation ----------------------------------------------

    # release_process is inherited: the base implementation already
    # routes its locking through reserve_scope, which this class
    # overrides to take the shards of the segment's memory and compute
    # bricks (canonical order).

    def relocate_segment_process(self, ctx: ControlContext,
                                 segment_id: str,
                                 target_memory_brick_id: str,
                                 copy_rate_bps: float = SEGMENT_COPY_RATE_BPS
                                 ) -> ProcessGenerator:
        """DES process: move a segment's bytes, two-phase across shards.

        Holds the shards of the source brick, the compute brick and the
        target brick (canonical order).  The target capacity is a
        phase-1 hold; the copy/reprogram pipeline commits it, and any
        mid-pipeline failure rolls it back, leaving the segment intact
        on its source brick.
        """
        self.segment_record(segment_id)  # fail fast on unknown ids
        token = yield from self.reserve_scope_stable(
            ctx, f"relocate:{segment_id}",
            self._segment_scope_fn(segment_id,
                                   extra=(target_memory_brick_id,)))
        try:
            # Re-validate under the locks: the plan may have gone stale
            # while this process queued (defrag plans outside the lock).
            record, compute_entry, target_entry = self._relocate_validate(
                segment_id, target_memory_brick_id)
            latency = self.timings.reservation_s
            if self.registry.ensure_powered(target_memory_brick_id):
                latency += self.timings.power_on_s
            hold = self._prepare_hold(target_memory_brick_id,
                                      record.segment.size)  # phase 1
            try:
                entry, latency = self._relocate_commit(
                    record, compute_entry, target_entry, hold.offset,
                    copy_rate_bps, latency)
            except ReproError:
                self._abort_hold(hold)
                raise
            self._commit_hold(hold)
            yield ctx.sim.timeout(latency)
        finally:
            self.release_scope(token)
        return entry, latency
