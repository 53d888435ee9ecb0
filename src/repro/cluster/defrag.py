"""Background defragmentation / consolidation of the memory pool.

Long-running multi-tenant traffic leaves the dMEMBRICK pool fragmented:
many bricks half-occupied, each pinning its standby power and spreading
circuits thin.  :class:`DefragmentationTask` is the control plane's
housekeeping process: during idle windows it relocates segments off the
*emptiest* occupied brick onto fuller ones
(:meth:`~repro.orchestration.sdm_controller.SdmController.relocate_segment`),
so free space coalesces, emptied bricks power off (the Fig. 12 TCO
lever), and the placement policy's packing keeps working at
steady state instead of only at first placement.

Consolidation feeds forward into placement: bricks that received
relocated segments are marked hot for
:class:`~repro.orchestration.placement.PowerAwarePackingPolicy`
co-location, and the data-mover heat statistics are refreshed through
:meth:`~repro.core.system.DisaggregatedSystem.note_hot_placement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ReproError
from repro.sim.control import ControlContext, run_sync
from repro.sim.engine import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.system import DisaggregatedSystem

#: Consolidation planners (the ``planner`` constructor argument):
#: ``greedy`` relocates the source's smallest segments onto the fullest
#: brick that fits them; ``best-fit-decreasing`` is classic BFD bin
#: packing — largest segment first, into the *tightest* sufficient free
#: span — which avoids burning the one span a big segment needs on a
#: small one, so it empties (and powers off) more bricks on fragmented
#: pools.
PLANNERS = ("greedy", "best-fit-decreasing")


@dataclass
class DefragReport:
    """Running totals of the background task."""

    passes: int = 0
    relocations: int = 0
    bytes_moved: int = 0
    latency_s: float = 0.0
    bricks_emptied: int = 0


class DefragmentationTask:
    """Idle-window consolidation of remote segments onto fewer bricks."""

    def __init__(self, system: "DisaggregatedSystem", *,
                 interval_s: float = 0.25,
                 max_relocations_per_pass: int = 4,
                 power_off_emptied: bool = True,
                 planner: str = "greedy") -> None:
        if interval_s <= 0:
            raise ReproError("defrag interval must be positive")
        if max_relocations_per_pass < 1:
            raise ReproError("need >= 1 relocation per pass")
        if planner not in PLANNERS:
            raise ReproError(
                f"unknown defrag planner {planner!r}; known: "
                f"{', '.join(PLANNERS)}")
        self.system = system
        self.interval_s = interval_s
        self.max_relocations_per_pass = max_relocations_per_pass
        self.power_off_emptied = power_off_emptied
        self.planner = planner
        self.report = DefragReport()

    # -- scheduling ---------------------------------------------------------

    def install(self, ctx: ControlContext,
                idle_probe: Optional[Callable[[], bool]] = None) -> None:
        """Start the periodic background process on *ctx*.

        *idle_probe* gates each pass: when it returns ``False`` (the
        control plane has queued or in-flight work), the pass is skipped
        — defragmentation only spends link time in idle windows.
        """
        ctx.sim.process(self._loop(ctx, idle_probe))

    def _loop(self, ctx: ControlContext,
              idle_probe: Optional[Callable[[], bool]]) -> ProcessGenerator:
        while True:
            yield ctx.sim.timeout(self.interval_s)
            if idle_probe is not None and not idle_probe():
                continue
            yield from self.pass_process(ctx)

    # -- one consolidation pass ---------------------------------------------

    def run_pass(self) -> DefragReport:
        """Zero-contention synchronous wrapper: run one pass now."""
        return run_sync(lambda ctx: self.pass_process(ctx))

    def pass_process(self, ctx: ControlContext) -> ProcessGenerator:
        """One pass: relocate up to the per-pass budget of segments.

        Each move holds only the reservation scope its bricks need
        (:meth:`~repro.orchestration.sdm_controller.SdmController.\
relocate_segment_process`): the single critical section on a plain
        controller, the involved shards on a sharded one — so
        consolidation in one shard no longer stalls foreground
        allocations in every other shard.  A move whose plan went stale
        while queueing (the segment moved or the target filled up) is
        skipped.  Returns the cumulative report.
        """
        sources_touched: set[str] = set()
        targets_touched: set[str] = set()
        for _ in range(self.max_relocations_per_pass):
            move = self._next_move()
            if move is None:
                break
            segment_id, size, source_id, target_id = move
            try:
                _entry, latency = (
                    yield from self.system.sdm.relocate_segment_process(
                        ctx, segment_id, target_id))
            except ReproError:
                continue  # plan went stale while queueing; re-plan
            self.report.relocations += 1
            self.report.bytes_moved += size
            self.report.latency_s += latency
            sources_touched.add(source_id)
            targets_touched.add(target_id)
        self.report.passes += 1
        if targets_touched:
            self._feed_placement(targets_touched)
        if self.power_off_emptied:
            self._power_off_emptied(sources_touched)
        return self.report

    def _next_move(self) -> Optional[tuple[str, int, str, str]]:
        """Plan one relocation: ``(segment_id, size, source, target)``.

        Source is always the least-utilized occupied brick (the one
        cheapest to empty); targets are never less utilized than the
        source, so planning cannot ping-pong segments between passes.
        The ``planner`` argument picks the packing discipline:

        * ``greedy`` — smallest segment first, onto the *fullest* brick
          whose largest free span fits it;
        * ``best-fit-decreasing`` — largest segment first, onto the
          brick with the *tightest* sufficient span, so large free
          spans are preserved for the segments that need them.
        """
        registry = self.system.sdm.registry
        occupied = [a for a in registry.memory_availability()
                    if a.powered and a.utilization > 0]
        if len(occupied) < 2:
            return None
        occupied.sort(key=lambda a: (a.utilization, a.brick_id))
        source = occupied[0]
        best_fit = self.planner == "best-fit-decreasing"
        segments = sorted(
            (s for s in self.system.sdm.segments_on(source.brick_id)
             if s.is_active),
            key=lambda s: -s.size if best_fit else s.size)
        for segment in segments:
            targets = [a for a in occupied[1:]
                       if a.largest_span_bytes >= segment.size
                       and a.utilization >= source.utilization]
            if best_fit:
                targets.sort(key=lambda a: (a.largest_span_bytes,
                                            a.brick_id))
            else:
                targets.sort(key=lambda a: (-a.utilization, a.brick_id))
            for target in targets:
                if self.system.sdm.can_reach(segment.compute_brick_id,
                                             target.brick_id):
                    return (segment.segment_id, segment.size,
                            source.brick_id, target.brick_id)
        return None

    # -- feedback into placement and power ----------------------------------

    def _feed_placement(self, target_brick_ids: set[str]) -> None:
        """Teach the policy to keep packing onto consolidation targets."""
        note = getattr(self.system.sdm.policy, "note_hot_brick", None)
        if note is not None:
            for brick_id in sorted(target_brick_ids):
                note(brick_id)
        self.system.note_hot_placement()

    def _power_off_emptied(self, source_brick_ids: set[str]) -> None:
        """Power down source bricks the pass fully drained."""
        registry = self.system.sdm.registry
        for brick_id in sorted(source_brick_ids):
            entry = registry.memory(brick_id)
            if (entry.allocator.allocation_count == 0
                    and entry.brick.is_powered):
                entry.brick.power_off()
                self.report.bricks_emptied += 1
