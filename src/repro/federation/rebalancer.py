"""Idle-window pod draining: the federation's load rebalancer.

Spill placement keeps tenants running when their home pod is full, but
it leaves the federation skewed afterwards: the hot pod stays saturated
(so every future local placement there spills too) while cold pods idle.
:class:`FederationRebalancer` is the federation's counterpart of the
pod-level :class:`~repro.cluster.defrag.DefragmentationTask`, reusing
its idle-window machinery — a periodic pass, gated on an idle probe so
background copies never contend with foreground traffic — but moving
**tenants between pods** instead of segments between bricks: when the
memory-utilization gap between the hottest and coldest pod exceeds the
configured threshold, the smallest-footprint tenant of the hot pod is
migrated (two-phase, via
:class:`~repro.federation.migration.InterPodMigrator`) to the coldest
pod that fits it.

It is the only rebalancer of both backends.  It reads pods through
the coordinator (:class:`~repro.federation.controller.Federation`):
``is_idle()`` gates a pass, each pod's ``load_snapshot()`` names the
hot and cold pods, and ``_footprint`` sizes the candidates — the live
VM on the direct port, the committed claim on the wire port, whose
drain phase then measures the exact footprint before any copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import FederationError, ReproError
from repro.sim.engine import ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.federation.controller import Federation


@dataclass
class RebalanceReport:
    """Running totals of the background draining task."""

    passes: int = 0
    migrations: int = 0
    rollbacks: int = 0
    bytes_drained: int = 0


class FederationRebalancer:
    """Drains overloaded pods onto underloaded ones in idle windows."""

    def __init__(self, *, interval_s: float = 0.5,
                 imbalance_threshold: float = 0.25) -> None:
        if interval_s <= 0:
            raise FederationError("rebalance interval must be positive")
        if not 0.0 < imbalance_threshold <= 1.0:
            raise FederationError(
                "imbalance threshold must be in (0, 1]")
        self.interval_s = interval_s
        self.imbalance_threshold = imbalance_threshold
        self.report = RebalanceReport()
        self.federation: Optional["Federation"] = None

    # -- scheduling ---------------------------------------------------------

    def install(self, federation: "Federation") -> None:
        """Start the periodic background process on the federation."""
        self.federation = federation
        federation.sim.process(self._loop())

    def _loop(self) -> ProcessGenerator:
        while True:
            yield self.federation.sim.timeout(self.interval_s)
            if not self.federation.is_idle():
                continue  # only drain in idle windows (defrag discipline)
            yield from self.pass_process()

    # -- one draining pass ---------------------------------------------------

    def pass_process(self) -> ProcessGenerator:
        """One pass: plan and run at most one move."""
        self.report.passes += 1
        plan = self._plan_move()
        if plan is None:
            return self.report
        tenant_id, target_pod_id = plan
        try:
            outcome = yield from self.federation.migrator.migrate_process(
                tenant_id, target_pod_id)
        except ReproError:
            # The plan went stale (tenant departed or moved); the next
            # pass re-plans.
            self.report.rollbacks += 1
            return self.report
        if outcome.committed:
            self.report.migrations += 1
            self.report.bytes_drained += outcome.bytes_copied
        else:
            self.report.rollbacks += 1
        return self.report

    def _plan_move(self) -> Optional[tuple[str, str]]:
        """Plan one drain: ``(tenant_id, target_pod_id)`` or ``None``.

        Hot pod = highest memory utilization, cold pod = lowest; no move
        is planned while the gap sits under the threshold.  The hot
        pod's smallest-footprint tenant that fits the cold pod moves
        (smallest first: least copy time per utilization point freed,
        and the move cannot overshoot into reverse imbalance).
        """
        fed = self.federation
        # Failed pods neither donate nor receive: their planes are
        # paused, so a drain involving one would park until repair.
        loads = {pod_id: pod.load_snapshot().utilization
                 for pod_id, pod in fed.pods.items() if pod.alive}
        if len(loads) < 2:
            return None
        hot = max(sorted(loads), key=lambda p: loads[p])
        cold = min(sorted(loads), key=lambda p: loads[p])
        if loads[hot] - loads[cold] < self.imbalance_threshold:
            return None
        cold_snapshot = fed.placer.snapshot(cold)
        candidates = []
        for tenant_id in fed.tenants_on(hot):
            if tenant_id in fed._moving:
                continue
            footprint = fed._footprint(hot, tenant_id)
            if footprint is not None:
                candidates.append((footprint[0], tenant_id, footprint[1]))
        candidates.sort(key=lambda entry: (entry[0], entry[1]))
        for footprint, tenant_id, vcpus in candidates:
            if fed.placer.fits(cold_snapshot, footprint, vcpus):
                return tenant_id, cold
        return None
