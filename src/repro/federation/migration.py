"""Inter-pod tenant migration: two-phase reserve, copy, commit.

Within a pod, migration is dReDBox's headline win — segments are
re-pointed (:meth:`~repro.orchestration.sdm_controller.SdmController.
repoint_segment`) instead of copied.  *Between* pods no light path
exists, so a federation migration is built from the same primitives the
pod tier already has, arranged as a two-phase protocol that mirrors the
cross-shard reserve of PR 4:

1. **drain** — wait for the tenant's in-flight requests on the source
   pod, so the footprint being copied is stable; a federation-level
   gate defers new same-tenant submissions until the move resolves
   (per-tenant FIFO survives the re-homing);
2. **reserve in the target pod** — a tentative
   :class:`~repro.federation.placer.PodClaim` on the federation ledger
   plus a full boot through the target pod's admission pipeline (its
   SDM-C places, reserves and attaches the tenant's entire footprint —
   boot RAM and runtime segments — exactly like
   :meth:`~repro.orchestration.sdm_controller.SdmController.
   relocate_segment` carves the target capacity before any bytes move);
3. **copy** — the footprint crosses the inter-pod link at the
   federation's provisioned rate (the one cost intra-pod migration
   never pays);
4. **commit** — the source pod departs the tenant, returning its claim
   there (segments released, circuits torn down), and the federation
   re-homes the tenant; **rollback** at any earlier step releases the
   target-side claim and leaves the tenant untouched at home.

The protocol reaches the pods only through the coordinator's port
(:class:`~repro.federation.controller.Federation`): ``_drain`` for
phase 0 and ``_submit_to`` for every boot and depart.  The one
implementation therefore runs on the direct port, where each step is
an object call on the shared clock, and on the wire port, where each
is a message exchange one link latency each way.

A failed target boot (capacity evaporated between decision and
reservation) therefore never strands capacity on either pod — the
conservation property the federation test suite checks with hypothesis,
mirroring the cross-shard suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import FederationError
from repro.sim.engine import ProcessGenerator
from repro.units import transfer_time

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.federation.controller import Federation


@dataclass
class MigrationOutcome:
    """What one inter-pod migration attempt did."""

    tenant_id: str
    source_pod: str
    target_pod: str
    bytes_copied: int = 0
    latency_s: float = 0.0
    committed: bool = False
    note: str = ""


class InterPodMigrator:
    """Runs inter-pod migrations as DES processes on the federation."""

    def __init__(self, federation: "Federation") -> None:
        self.federation = federation

    def migrate_process(self, tenant_id: str,
                        target_pod_id: str) -> ProcessGenerator:
        """DES process: move *tenant_id* to *target_pod_id*.

        Returns a :class:`MigrationOutcome`; a non-committed outcome
        means the tenant still runs, untouched, in its source pod.
        """
        fed = self.federation
        source_id = fed.pod_of(tenant_id)
        if target_pod_id not in fed.pods:
            raise FederationError(f"unknown pod {target_pod_id!r}")
        if target_pod_id == source_id:
            raise FederationError(
                f"{tenant_id} already lives in {target_pod_id}")
        if tenant_id in fed._moving:
            raise FederationError(f"{tenant_id} is already migrating")
        outcome = MigrationOutcome(tenant_id=tenant_id,
                                   source_pod=source_id,
                                   target_pod=target_pod_id)
        started = fed.sim.now
        gate = fed.sim.event()
        fed._moving[tenant_id] = gate
        try:
            # Phase 0 — drain: let in-flight same-tenant work land and
            # read the whole guest footprint — exactly what the target
            # pod must re-provision and the inter-pod link must carry.
            drained = yield from fed._drain(source_id, tenant_id)
            if drained is None:
                # The registration is stale (the tenant departed while
                # the move waited); drop it so planners stop seeing it.
                if fed._tenant_pod.get(tenant_id) == source_id:
                    del fed._tenant_pod[tenant_id]
                outcome.note = "tenant departed before the move started"
                return outcome
            total_bytes, vcpus = drained

            # Phase 1 — reserve in the target pod: ledger claim plus a
            # real boot of the whole footprint through its admission
            # pipeline.
            claim = fed.placer.reserve(target_pod_id, total_bytes,
                                       vcpus, tenant_id=tenant_id)
            boot = yield from fed._submit_to(
                target_pod_id, "boot", tenant_id,
                ram_bytes=total_bytes, vcpus=vcpus)
            if not boot.ok:
                fed.placer.release(claim)  # rollback: tenant stays home
                fed.stats.migration_rollbacks += 1
                outcome.note = f"target reservation rejected: {boot.note}"
                return outcome
            # The target pod's registry now shows the footprint, so the
            # ledger claim is redundant — holding it through the copy
            # would double-count the bytes against the target and make
            # concurrent placements spill spuriously.
            fed.placer.commit(claim)

            # Copy — the footprint crosses the inter-pod link.
            yield fed.sim.timeout(
                transfer_time(total_bytes, fed.interpod_link_bps))

            # Phase 2 — commit: release the home-pod claim.
            depart = yield from fed._submit_to(source_id, "depart",
                                               tenant_id)
            if not depart.ok:
                # The source would not let go (teardown failure): keep
                # exactly one live copy by tearing the target side down
                # (its registry allocation is freed by this depart; the
                # ledger claim was already committed away above).
                yield from fed._submit_to(target_pod_id, "depart",
                                          tenant_id)
                fed.stats.migration_rollbacks += 1
                outcome.note = f"source release failed: {depart.note}"
                return outcome
            fed._tenant_pod[tenant_id] = target_pod_id
            fed.stats.migrations += 1
            fed.stats.bytes_migrated += total_bytes
            outcome.bytes_copied = total_bytes
            outcome.committed = True
            return outcome
        finally:
            outcome.latency_s = fed.sim.now - started
            del fed._moving[tenant_id]
            gate.succeed()
