"""The Software-Defined Memory Controller (SDM-C).

Section IV.C assigns the SDM-C four roles:

  a) receive VM/bare-metal allocation requests from OpenStack;
  b) safely inspect resource availability and make a power-consumption
     conscious selection of resources;
  c) safely reserve selected resources;
  d) generate all the necessary configurations and push them via
     appropriate interfaces to all involved devices.

With the sharded controller's ``allocate_process``, the controller
implements the :class:`~repro.software.scaleup.MemoryAllocator` protocol
(``allocate_process``, ``release_process``) so
:class:`~repro.software.scaleup.ScaleUpController` instances can drive
it, and reuses/establishes optical circuits through the
:class:`~repro.network.optical.topology.OpticalFabric`.

Reservation is a *critical section* — the "safely" in roles (b) and (c).
:class:`SdmController` holds the reservation tables (live segments,
their per-brick index, the circuit reference ledger) and the steps that
run once the covering section is held.  The sections themselves belong
to :class:`~repro.orchestration.sharding.ShardedSdmController`, the
controller every builder makes: its ``*_process`` generators queue on
one capacity-1 DES domain per rack shard of a shared
:class:`~repro.sim.control.ControlContext`, so concurrent requests on a
shard serialize in FIFO order, with their queueing delay accounted on
the simulated clock (the Fig. 10 agility-under-load regime).  A
controller also generates and pushes each request's configuration
(role d) before serving the next, so by default that cost is charged
while the section is held; a batching control plane passes
``charge_config=False`` and pushes ONE amortized configuration per
batch instead (see :mod:`repro.cluster.control_plane`).

The synchronous methods (``allocate``, ``release``, ``place_vm``,
``relocate_segment``) are **zero-contention compatibility wrappers**:
each runs its process as the only traffic on a private one-shot
simulator (:func:`~repro.sim.control.run_sync`), so the latencies they
report are pure service time — no queueing delay is, or can be,
included.  Use the process API on a shared context to study contention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import PlacementError, ReproError, ReservationError
from repro.hardware.rmst import SegmentEntry
from repro.memory.segments import RemoteSegment
from repro.network.optical.topology import FabricCircuit, OpticalFabric
from repro.orchestration.placement import (
    PlacementPolicy,
    PowerAwarePackingPolicy,
)
from repro.orchestration.registry import MemoryAvailability, ResourceRegistry
from repro.orchestration.requests import VmAllocationRequest
from repro.sim.control import ControlContext, run_sync
from repro.sim.engine import ProcessGenerator
from repro.software.scaleup import AttachTicket
from repro.units import gbps, milliseconds, transfer_time


@dataclass(frozen=True)
class SdmTimings:
    """Latency parameters of SDM-C operations."""

    #: Critical-section work per request: inspect + reserve (roles b, c).
    reservation_s: float = milliseconds(5)
    #: Generating and pushing configurations (role d), excluding the
    #: circuit-switch reconfiguration itself.
    config_generation_s: float = milliseconds(2)
    #: Brick power-on settle time when a sleeping brick must wake.
    power_on_s: float = milliseconds(500)


DEFAULT_SDM_TIMINGS = SdmTimings()

#: Default brick-to-brick copy rate when relocating a segment's backing
#: bytes during defragmentation (the dMEMBRICK-to-dMEMBRICK bulk path).
SEGMENT_COPY_RATE_BPS = gbps(40)


@dataclass
class _SegmentRecord:
    """Controller-private record of a live segment."""

    segment: RemoteSegment
    entry: SegmentEntry
    circuit: FabricCircuit


class SdmController:
    """The SDM-C service (one per rack, or one per pod).

    This class holds the reservation tables and the steps that need no
    lock of their own; :class:`~repro.orchestration.sharding.\
ShardedSdmController`, the class builders make, adds the reservation
    scopes and the allocation, placement and relocation processes that
    take them.

    The controller is topology-oblivious by construction: it talks to a
    fabric facade (rack-local :class:`OpticalFabric` or pod-wide
    :class:`~repro.fabric.fabric.PodFabric`) for light paths and passes
    the requester's rack to the placement policy so locality is scored
    where topology is known.
    """

    def __init__(self, registry: ResourceRegistry, fabric: OpticalFabric,
                 policy: Optional[PlacementPolicy] = None,
                 timings: SdmTimings = DEFAULT_SDM_TIMINGS) -> None:
        self.registry = registry
        self.fabric = fabric
        self.policy = policy or PowerAwarePackingPolicy()
        self.timings = timings
        self._segments: dict[str, _SegmentRecord] = {}
        self._segment_ids = itertools.count()
        #: circuit_id -> number of segments riding it.
        self._circuit_refs: dict[str, int] = {}
        #: memory_brick_id -> segment ids backed by that brick, in
        #: insertion order.  Kept in lockstep with ``_segments`` so
        #: :meth:`segments_on` is O(segments on the brick) instead of
        #: O(all live segments) — defragmentation and failure handling
        #: call it in loops.
        self._segments_by_brick: dict[str, dict[str, None]] = {}
        self.allocations = 0
        self.releases = 0

    # -- per-brick segment index ---------------------------------------

    def _index_add(self, memory_brick_id: str, segment_id: str) -> None:
        self._segments_by_brick.setdefault(memory_brick_id, {})[
            segment_id] = None

    def _index_discard(self, memory_brick_id: str,
                       segment_id: str) -> None:
        bucket = self._segments_by_brick.get(memory_brick_id)
        if bucket is not None:
            bucket.pop(segment_id, None)
            if not bucket:
                del self._segments_by_brick[memory_brick_id]

    # ------------------------------------------------------------------
    # Reservation scope (the sharded controller's reserve_scope and
    # scope_covers take and check the locks)
    # ------------------------------------------------------------------

    def reserve_scope_stable(self, ctx: ControlContext, label: str,
                             brick_ids_fn) -> ProcessGenerator:
        """Acquire a scope whose brick set may move while we queue.

        *brick_ids_fn* is re-evaluated after the locks are granted: if
        the bricks meanwhile migrated outside the held scope (e.g. a
        concurrent relocation moved the segment to another shard), the
        scope is released and re-acquired for the new set — so the
        critical work below always runs under the locks that actually
        cover its bricks.
        """
        while True:
            token = yield from self.reserve_scope(
                ctx, label, brick_ids=tuple(brick_ids_fn()))
            if self.scope_covers(token, tuple(brick_ids_fn())):
                return token
            self.release_scope(token)

    def release_scope(self, token) -> None:
        """Release every critical section a reserve scope acquired."""
        for _name, resource, grant in reversed(token):
            resource.release(grant)

    def _segment_scope_fn(self, segment_id: str, extra: tuple = ()):
        """brick_ids factory tracking a segment's *current* bricks.

        Used with :meth:`reserve_scope_stable`; when the segment is
        gone by grant time only *extra* remains and the inner operation
        raises its usual unknown-segment error under the lock.
        """
        def brick_ids() -> tuple:
            record = self._segments.get(segment_id)
            if record is None:
                return tuple(extra)
            return (record.segment.memory_brick_id,
                    record.segment.compute_brick_id) + tuple(extra)
        return brick_ids

    # ------------------------------------------------------------------
    # Allocation and release (ScaleUpController drives their processes)
    # ------------------------------------------------------------------

    def allocate(self, compute_brick_id: str, vm_id: str,
                 size_bytes: int) -> AttachTicket:
        """Reserve a remote segment + circuit for *compute_brick_id*.

        Zero-contention synchronous wrapper around the sharded
        controller's ``allocate_process`` (see the module docstring).
        Returns an :class:`AttachTicket` whose ``control_latency_s``
        covers reservation, any brick power-on, circuit setup (only when
        a new circuit is needed) and configuration generation — pure
        service time, since the private context has no competing
        requests.
        """
        return run_sync(lambda ctx: self.allocate_process(
            ctx, compute_brick_id, vm_id, size_bytes))

    def _charged(self, ticket: AttachTicket,
                 charge_config: bool) -> tuple[AttachTicket, float]:
        """Apply the batching config-share convention; returns
        ``(ticket, critical_section_seconds)``.

        With ``charge_config=False`` the configuration-generation share
        is stripped from both the charged critical time and the
        ticket's reported latency (a batching control plane pushes one
        amortized configuration per batch instead).
        """
        critical_s = ticket.control_latency_s
        if not charge_config:
            critical_s -= self.timings.config_generation_s
            ticket = replace(ticket, control_latency_s=critical_s)
        return ticket, critical_s

    def _allocate_from_candidates(self, compute_entry, vm_id: str,
                                  padded: int,
                                  candidates: list) -> AttachTicket:
        """Select a target among *candidates* and reserve on it.

        Walks the policy's preferences, skipping bricks we cannot reach:
        a brick with space but no free optical port (or, across racks,
        no free uplink) toward us is the "running low in terms of
        physical ports" situation of §III.  The requester's rack is
        passed so topology-aware policies prefer local memory and only
        spill across the pod switch when the rack is exhausted.
        """
        target_id: Optional[str] = None
        while candidates:
            pick = self.policy.select_memory_brick(
                candidates, padded,
                origin_rack_id=compute_entry.rack_id or None)
            if pick is None:
                break
            memory_entry = self.registry.memory(pick)
            if self._circuit_feasible(compute_entry.brick, memory_entry.brick):
                target_id = pick
                break
            candidates = [c for c in candidates if c.brick_id != pick]
        if target_id is None:
            raise PlacementError(
                f"no reachable dMEMBRICK can host {padded} contiguous bytes "
                f"for {compute_entry.brick.brick_id} "
                f"(capacity or optical ports exhausted)")
        memory_entry = self.registry.memory(target_id)

        latency = self.timings.reservation_s
        if self.registry.ensure_powered(target_id):
            latency += self.timings.power_on_s

        offset = memory_entry.allocator.allocate(padded)
        try:
            return self._finish_allocation(
                compute_entry, vm_id, padded, memory_entry, offset, latency)
        except ReproError:
            memory_entry.allocator.free(offset)
            raise

    def _finish_allocation(self, compute_entry, vm_id: str, padded: int,
                           memory_entry, offset: int,
                           latency: float) -> AttachTicket:
        """Build segment, window, circuit and RMST entry for a granted
        reservation at *offset* on *memory_entry*'s brick.

        The caller owns the capacity at *offset* (an allocator grant or
        a two-phase hold) and must roll it back if this raises; the
        window/circuit steps clean up after themselves.
        """
        target_id = memory_entry.brick.brick_id
        segment = RemoteSegment(
            segment_id=f"seg-{next(self._segment_ids)}",
            memory_brick_id=target_id,
            offset=offset,
            size=padded,
            compute_brick_id=compute_entry.brick.brick_id,
            vm_id=vm_id,
        )
        window = compute_entry.agent.kernel.address_map.reserve_window(
            segment.segment_id, padded)
        try:
            circuit, latency = self._take_circuit(
                compute_entry.brick, memory_entry.brick, latency)
        except ReproError:
            compute_entry.agent.kernel.address_map.cancel_reservation(
                segment.segment_id)
            raise

        entry = SegmentEntry(
            segment_id=segment.segment_id,
            base=window.base,
            size=padded,
            remote_brick_id=target_id,
            remote_offset=offset,
            egress_port_id=circuit.port_toward(compute_entry.brick).port_id,
        )
        latency += self.timings.config_generation_s

        self._segments[segment.segment_id] = _SegmentRecord(
            segment, entry, circuit)
        self._index_add(target_id, segment.segment_id)
        self.allocations += 1
        return AttachTicket(segment=segment, rmst_entry=entry,
                            control_latency_s=latency)

    def _take_circuit(self, compute_brick, memory_brick,
                      latency: float) -> tuple[FabricCircuit, float]:
        """Reuse the live circuit between the pair, or program a new one
        through the optical switch and add its setup time to *latency*;
        either way one more segment rides it.  Returns ``(circuit,
        latency)``."""
        circuit = self.fabric.circuit_between(compute_brick, memory_brick)
        if circuit is None:
            circuit = self.fabric.connect(compute_brick, memory_brick)
            latency += circuit.setup_time_s
        self._circuit_refs[circuit.circuit_id] = (
            self._circuit_refs.get(circuit.circuit_id, 0) + 1)
        return circuit, latency

    def _drop_circuit(self, circuit: FabricCircuit) -> bool:
        """One segment fewer rides *circuit*; the last one out tears it
        down.  Returns True when the circuit was torn down."""
        refs = self._circuit_refs[circuit.circuit_id] - 1
        if refs:
            self._circuit_refs[circuit.circuit_id] = refs
            return False
        del self._circuit_refs[circuit.circuit_id]
        self.fabric.disconnect(circuit)
        return True

    def _circuit_feasible(self, compute_brick, memory_brick) -> bool:
        """Can traffic flow between the two bricks?

        Delegated to the fabric, which knows the topology: a live
        circuit, free CBN ports, and — across racks — a free uplink to
        the pod switch on both sides.
        """
        return self.fabric.can_connect(compute_brick, memory_brick)

    def can_reach(self, compute_brick_id: str, memory_brick_id: str) -> bool:
        """Public reachability probe (used by migration pre-flight)."""
        return self._circuit_feasible(
            self.registry.compute(compute_brick_id).brick,
            self.registry.memory(memory_brick_id).brick)

    def release(self, segment_id: str) -> float:
        """Free a segment; tears the circuit down when unreferenced.

        Zero-contention synchronous wrapper around
        :meth:`release_process`; returns the orchestration latency.
        """
        return run_sync(lambda ctx: self.release_process(ctx, segment_id))

    def release_process(self, ctx: ControlContext,
                        segment_id: str) -> ProcessGenerator:
        """DES process: free a segment under the critical section.

        The whole release is reservation-table work, so it runs (and is
        charged) while holding the reservation scope covering the
        segment's bricks (the shards of its memory and compute bricks).
        Returns the orchestration latency.
        """
        self.segment_record(segment_id)  # fail fast on unknown ids
        token = yield from self.reserve_scope_stable(
            ctx, segment_id, self._segment_scope_fn(segment_id))
        try:
            latency = self._release_inner(segment_id)
            yield ctx.sim.timeout(latency)
        finally:
            self.release_scope(token)
        return latency

    def _release_inner(self, segment_id: str) -> float:
        """The release work itself (state mutation + latency ledger)."""
        record = self._segments.pop(segment_id, None)
        if record is None:
            raise ReservationError(f"unknown segment {segment_id!r}")
        self._index_discard(record.segment.memory_brick_id, segment_id)
        memory_entry = self.registry.memory(record.segment.memory_brick_id)
        memory_entry.allocator.free(record.segment.offset)
        latency = self.timings.reservation_s
        if self._drop_circuit(record.circuit):
            latency += record.circuit.circuit.setup_time_s
        self.releases += 1
        return latency

    # ------------------------------------------------------------------
    # Migration support: re-point a segment at a new compute brick
    # ------------------------------------------------------------------

    def repoint_segment(self, segment_id: str,
                        new_compute_brick_id: str) -> tuple[SegmentEntry, float]:
        """Re-assign a live segment to a different compute brick.

        This is the disaggregation migration win: the memory *content*
        never moves — the controller only swings the light path and
        issues a fresh RMST entry for the new brick.  Returns the entry
        the new brick's agent must program, plus the control latency.

        The caller is responsible for the source-side teardown (agent
        detach/unprogram) and the target-side attach, in that order.
        """
        record = self._segments.get(segment_id)
        if record is None:
            raise ReservationError(f"unknown segment {segment_id!r}")
        target_entry = self.registry.compute(new_compute_brick_id)
        memory_entry = self.registry.memory(record.segment.memory_brick_id)
        if not self._circuit_feasible(target_entry.brick, memory_entry.brick):
            raise PlacementError(
                f"no optical path from {new_compute_brick_id} to "
                f"{record.segment.memory_brick_id}")

        latency = self.timings.reservation_s

        # Swing the circuit: drop the old reference, take/make a new one.
        self._drop_circuit(record.circuit)
        new_circuit, latency = self._take_circuit(
            target_entry.brick, memory_entry.brick, latency)

        segment = record.segment
        segment.compute_brick_id = new_compute_brick_id
        window = target_entry.agent.kernel.address_map.reserve_window(
            segment.segment_id, segment.size)
        entry = SegmentEntry(
            segment_id=segment.segment_id,
            base=window.base,
            size=segment.size,
            remote_brick_id=segment.memory_brick_id,
            remote_offset=segment.offset,
            egress_port_id=new_circuit.port_toward(
                target_entry.brick).port_id,
        )
        latency += self.timings.config_generation_s
        record.entry = entry
        record.circuit = new_circuit
        return entry, latency

    # ------------------------------------------------------------------
    # Defragmentation support: move a segment's bytes to another brick
    # ------------------------------------------------------------------

    def relocate_segment(self, segment_id: str, target_memory_brick_id: str
                         ) -> tuple[SegmentEntry, float]:
        """Move a live segment's backing bytes onto another dMEMBRICK.

        The consolidation primitive behind background defragmentation:
        unlike :meth:`repoint_segment` (which swings the compute side
        and moves nothing), relocation copies the segment's content
        brick-to-brick, so free space coalesces on the source and the
        pod runs on fewer powered memory bricks.  The compute brick's
        local window is untouched — only the RMST entry's remote side
        changes — so the guest never notices beyond the copy time.

        Zero-contention synchronous wrapper around the sharded
        controller's ``relocate_segment_process``.  Returns
        ``(new_entry, latency_s)`` where the latency covers reservation,
        target power-on, circuit setup, the byte copy at
        :data:`SEGMENT_COPY_RATE_BPS`, glue reprogramming, and config
        generation.
        """
        return run_sync(lambda ctx: self.relocate_segment_process(
            ctx, segment_id, target_memory_brick_id))

    def _relocate_validate(self, segment_id: str,
                           target_memory_brick_id: str):
        """Pre-flight checks; returns ``(record, compute_entry,
        target_entry)`` or raises."""
        record = self._segments.get(segment_id)
        if record is None:
            raise ReservationError(f"unknown segment {segment_id!r}")
        segment = record.segment
        if target_memory_brick_id == segment.memory_brick_id:
            raise ReservationError(
                f"segment {segment_id!r} already lives on "
                f"{target_memory_brick_id!r}")
        compute_entry = self.registry.compute(segment.compute_brick_id)
        target_entry = self.registry.memory(target_memory_brick_id)
        if target_entry.failed:
            raise PlacementError(
                f"cannot relocate onto failed brick "
                f"{target_memory_brick_id!r}")
        if not self._circuit_feasible(compute_entry.brick,
                                      target_entry.brick):
            raise PlacementError(
                f"no optical path from {segment.compute_brick_id} to "
                f"{target_memory_brick_id}")
        return record, compute_entry, target_entry

    def _relocate_commit(self, record: _SegmentRecord, compute_entry,
                         target_entry, new_offset: int,
                         latency: float) -> tuple[SegmentEntry, float]:
        """The relocation work itself, with the target capacity already
        granted at *new_offset* (allocator grant or two-phase hold).
        The caller rolls that capacity back if this raises."""
        segment = record.segment
        target_memory_brick_id = target_entry.brick.brick_id
        new_circuit, latency = self._take_circuit(
            compute_entry.brick, target_entry.brick, latency)

        # The bytes actually move (the one cost repointing never pays).
        latency += transfer_time(segment.size, SEGMENT_COPY_RATE_BPS)

        new_entry = SegmentEntry(
            segment_id=segment.segment_id,
            base=record.entry.base,
            size=record.entry.size,
            remote_brick_id=target_memory_brick_id,
            remote_offset=new_offset,
            egress_port_id=new_circuit.port_toward(
                compute_entry.brick).port_id,
        )
        # Reprogram the glue only when the entry is installed; a still-
        # RESERVED segment gets the updated entry from the controller
        # record when its owner programs it.
        agent = compute_entry.agent
        if any(e.segment_id == segment.segment_id
               for e in compute_entry.brick.rmst):
            latency += agent.unprogram_segment(segment.segment_id)
            latency += agent.program_segment(new_entry)

        source_entry = self.registry.memory(segment.memory_brick_id)
        source_entry.allocator.free(segment.offset)
        self._drop_circuit(record.circuit)

        latency += self.timings.config_generation_s
        self._index_discard(segment.memory_brick_id, segment.segment_id)
        self._index_add(target_memory_brick_id, segment.segment_id)
        segment.memory_brick_id = target_memory_brick_id
        segment.offset = new_offset
        record.entry = new_entry
        record.circuit = new_circuit
        return new_entry, latency

    # ------------------------------------------------------------------
    # Evacuation: move segments off bricks that can no longer serve them
    # ------------------------------------------------------------------

    def relocation_target(
            self, segment: RemoteSegment,
            keep: Callable[[MemoryAvailability, RemoteSegment], bool]
    ) -> Optional[str]:
        """The brick the placement policy picks for *segment* among the
        placeable bricks *keep* accepts, or ``None`` when none fits.

        The segment's compute rack is the policy's origin, so a move
        stays as close to the VM as the kept bricks allow.
        """
        candidates = [candidate
                      for candidate in self.registry.memory_availability()
                      if keep(candidate, segment)]
        return self.policy.select_memory_brick(
            candidates, segment.size,
            origin_rack_id=self.registry.rack_of(
                segment.compute_brick_id) or None)

    def evacuate_process(
            self, ctx: ControlContext, segments,
            keep: Callable[[MemoryAvailability, RemoteSegment], bool]
    ) -> ProcessGenerator:
        """DES process: relocate each segment of the iterable *segments*
        onto its :meth:`relocation_target`, one move at a time.

        The iterable is consumed as the moves go, so a generator sees
        the state each earlier move left.  A segment with no target, or
        whose move raises, is stranded where it is.  Returns ``(moved,
        stranded)`` segment-id lists.
        """
        moved: list[str] = []
        stranded: list[str] = []
        for segment in segments:
            target = self.relocation_target(segment, keep)
            if target is None:
                stranded.append(segment.segment_id)
                continue
            try:
                yield from self.relocate_segment_process(
                    ctx, segment.segment_id, target)
            except ReproError:
                stranded.append(segment.segment_id)
                continue
            moved.append(segment.segment_id)
        return moved, stranded

    # ------------------------------------------------------------------
    # VM allocation (role a: requests arriving from OpenStack)
    # ------------------------------------------------------------------

    def place_vm(self, request: VmAllocationRequest) -> tuple[str, float]:
        """Choose a compute brick for *request*; returns (brick, latency).

        Zero-contention synchronous wrapper around the sharded
        controller's ``place_vm_process``.  Local brick RAM may be
        insufficient for the request — boot-time memory beyond local
        DRAM is attached through :meth:`allocate` by the caller (see
        :mod:`repro.core.flows`).
        """
        return run_sync(lambda ctx: self.place_vm_process(ctx, request))

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def scan_unhealthy_circuits(self, target_ber: float = 1e-12
                                ) -> list[FabricCircuit]:
        """Circuits carrying segments whose links no longer close.

        Optical paths degrade in service (connector contamination, fibre
        stress); the SDM-C periodically audits every circuit it manages
        against the FEC-free BER target.
        """
        unhealthy: list[FabricCircuit] = []
        seen: set[str] = set()
        for record in self._segments.values():
            circuit = record.circuit
            if circuit.circuit_id in seen:
                continue
            seen.add(circuit.circuit_id)
            if not circuit.circuit.closes(target_ber):
                unhealthy.append(circuit)
        return unhealthy

    def repair_circuit(self, circuit_id: str) -> float:
        """Re-establish a degraded circuit and re-program its segments.

        The light path is torn down and rebuilt (a fresh path through
        the switch avoids the lossy patch); every segment that rode it
        gets a new RMST entry with the same local window — no hotplug is
        needed, since the memory and its mapping are unchanged.  Returns
        the total control latency.
        """
        riders = [record for record in self._segments.values()
                  if record.circuit.circuit_id == circuit_id]
        if not riders:
            raise ReservationError(
                f"no managed segments ride circuit {circuit_id!r}")
        old_circuit = riders[0].circuit
        compute_brick = (old_circuit.brick_a
                         if old_circuit.brick_a.brick_id
                         == riders[0].segment.compute_brick_id
                         else old_circuit.brick_b)
        memory_brick = (old_circuit.brick_b
                        if compute_brick is old_circuit.brick_a
                        else old_circuit.brick_a)

        latency = self.timings.reservation_s
        del self._circuit_refs[circuit_id]
        self.fabric.disconnect(old_circuit)
        new_circuit = self.fabric.connect(compute_brick, memory_brick)
        latency += new_circuit.setup_time_s
        self._circuit_refs[new_circuit.circuit_id] = len(riders)

        agent = self.registry.compute(compute_brick.brick_id).agent
        for record in riders:
            new_entry = SegmentEntry(
                segment_id=record.entry.segment_id,
                base=record.entry.base,
                size=record.entry.size,
                remote_brick_id=record.entry.remote_brick_id,
                remote_offset=record.entry.remote_offset,
                egress_port_id=new_circuit.port_toward(
                    compute_brick).port_id,
            )
            latency += agent.unprogram_segment(record.entry.segment_id)
            latency += agent.program_segment(new_entry)
            record.entry = new_entry
            record.circuit = new_circuit
        latency += self.timings.config_generation_s
        return latency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_segments(self) -> list[RemoteSegment]:
        return [r.segment for r in self._segments.values()]

    def segments_on(self, memory_brick_id: str) -> list[RemoteSegment]:
        """Segments backed by *memory_brick_id*, in allocation order.

        Backed by the per-brick index maintained on allocate/release/
        relocate, not a scan of every live segment — defragmentation
        and failure handling call this in loops.
        """
        return [self._segments[segment_id].segment
                for segment_id in self._segments_by_brick.get(
                    memory_brick_id, ())]

    def segment_record(self, segment_id: str) -> _SegmentRecord:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise ReservationError(f"unknown segment {segment_id!r}") from None

    def circuit_utilization(self) -> dict[str, int]:
        """Live circuits and how many segments ride each."""
        return dict(self._circuit_refs)
