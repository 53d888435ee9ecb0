"""Global placement across federated pods.

The federation's placement brain: given the federation's live pods, the
:class:`GlobalPlacer` decides which pod admits each tenant.  Placement
is **locality-first** — a tenant's *home pod* (a stable hash of its id,
or an explicit affinity) is always preferred — and only when the home
pod cannot fit the request does the configured **spill policy** route
the tenant elsewhere:

* ``never`` — pinned-to-home-pod: the tenant is always sent home and
  the home pod's own admission pipeline rejects it when full (the
  federation baseline);
* ``first-fit`` — the first other pod (in canonical pod-id order) whose
  free capacity fits the request;
* ``least-loaded`` — the other pod that fits with the most unclaimed
  free memory (ties go to the lower pod id).

Admission is **two-phase** across the federation: :meth:`~GlobalPlacer.
reserve` records a tentative :class:`PodClaim` against the chosen pod's
ledger the moment the placement decision is made, so concurrent
placements see capacity that is spoken for before the pod's own
allocators do; the claim is :meth:`~GlobalPlacer.commit`-ed once the
pod-level reservation lands (the capacity is then visible in the pod's
registry) or :meth:`~GlobalPlacer.release`-d when the pod rejects —
mirroring the shard-level hold/commit/abort of
:class:`~repro.orchestration.sharding.ShardedSdmController`.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.errors import FederationError

#: Spill policies of the global placer (the CLI's ``spill_policy`` axis).
SPILL_POLICIES = ("never", "first-fit", "least-loaded")


@dataclass(frozen=True)
class PodSnapshot:
    """One pod's load, as the global placer sees it."""

    pod_id: str
    #: Free bytes across the pod's healthy memory bricks (registry view).
    free_memory_bytes: int
    #: Free cores across the pod's compute bricks.
    free_cores: int
    #: Admission backlog plus waiters on every SDM-C reservation domain.
    queue_depth: int
    #: Mean free-space fragmentation across the pod's memory bricks.
    fragmentation: float
    #: Bytes tentatively claimed by in-flight federation placements.
    claimed_bytes: int
    #: Cores tentatively claimed by in-flight federation placements.
    claimed_cores: int

    @property
    def available_bytes(self) -> int:
        """Free bytes net of outstanding claims."""
        return self.free_memory_bytes - self.claimed_bytes

    @property
    def available_cores(self) -> int:
        """Free cores net of outstanding claims."""
        return self.free_cores - self.claimed_cores


@dataclass(frozen=True)
class PodClaim:
    """A tentative (phase-1) federation reservation against one pod."""

    claim_id: int
    pod_id: str
    ram_bytes: int
    vcpus: int
    #: The tenant the claim admits.  Claims carrying a tenant id are
    #: remembered in the placer's committed-claim ledger after
    #: :meth:`GlobalPlacer.commit` — the durable record a lost pod's
    #: tenants are re-admitted from.
    tenant_id: str = ""


class GlobalPlacer:
    """Locality-first tenant-to-pod placement with capacity spill."""

    def __init__(self, spill_policy: str = "least-loaded",
                 anti_affinity: Optional[Callable[[str], str]] = None
                 ) -> None:
        if spill_policy not in SPILL_POLICIES:
            raise FederationError(
                f"unknown spill policy {spill_policy!r}; known: "
                f"{', '.join(SPILL_POLICIES)}")
        self.spill_policy = spill_policy
        #: tenant id -> replica/tenant-group key ("" = ungrouped).
        #: When set, placement avoids pods already hosting another
        #: member of the tenant's group (soft constraint: a group fits
        #: on one pod only when no conflict-free pod can take it), so
        #: replicas land in distinct pods and one pod loss cannot take
        #: a whole group down.
        self.anti_affinity = anti_affinity
        self._pods: Mapping[str, object] = {}
        self._claims: dict[int, PodClaim] = {}
        self._claim_ids = itertools.count()
        self._claimed_bytes: dict[str, int] = {}
        self._claimed_cores: dict[str, int] = {}
        #: Committed-claim ledger: tenant id -> the claim its admission
        #: committed.  This is the federation's durable record of who
        #: lives where — re-admission after a pod loss replays it.
        self._ledger: dict[str, PodClaim] = {}

    # -- topology -----------------------------------------------------------

    def bind(self, pods: Mapping[str, object]) -> None:
        """Attach the placer to the federation's live pods.

        *pods* maps pod id to an object exposing ``load_snapshot()``
        (a :class:`~repro.federation.messages.PodStatus`) and the
        ``alive``/``draining`` flags — the direct port's
        :class:`~repro.federation.controller.FederatedPod` records or
        the wire port's :class:`~repro.federation.parallel.PodHandle`
        copies.
        """
        if not pods:
            raise FederationError("placer needs at least one pod")
        self._pods = pods

    @property
    def pod_ids(self) -> list[str]:
        """Every bound pod id, sorted (the canonical order).

        Deliberately includes failed pods: :meth:`home_pod` hashes over
        this list, and the home mapping of every *other* tenant must
        not shift when one pod dies.
        """
        return sorted(self._pods)

    @property
    def live_pod_ids(self) -> list[str]:
        """Bound pods currently alive, sorted."""
        return [pod_id for pod_id in self.pod_ids
                if self._pods[pod_id].alive]

    def pod_alive(self, pod_id: str) -> bool:
        """True when *pod_id* is bound and currently alive."""
        pod = self._pods.get(pod_id)
        return pod is not None and pod.alive

    def pod_accepting(self, pod_id: str) -> bool:
        """True when *pod_id* may receive *new* tenants: alive and not
        under a rolling-maintenance drain.  A draining pod keeps
        serving its current tenants; it only leaves the admission
        pool."""
        pod = self._pods.get(pod_id)
        return pod is not None and pod.alive and not pod.draining

    def home_pod(self, tenant_id: str) -> str:
        """The tenant's home pod: a stable hash over the pod set.

        CRC32-based so the mapping is deterministic across processes
        (unlike builtin ``hash``) and uniform enough to spread tenants.
        """
        pod_ids = self.pod_ids
        if not pod_ids:
            raise FederationError("placer is not bound to any pod")
        index = zlib.crc32(tenant_id.encode("utf-8")) % len(pod_ids)
        return pod_ids[index]

    # -- load snapshots ------------------------------------------------------

    def snapshot(self, pod_id: str) -> PodSnapshot:
        """Current load of *pod_id*, with the placer's outstanding claims.

        Measured through the pod's ``load_snapshot()``: a
        :class:`~repro.federation.controller.FederatedPod` measures
        itself, a :class:`~repro.federation.parallel.PodHandle` serves
        its pod's last barrier status.
        """
        pod = self._pods.get(pod_id)
        if pod is None:
            raise FederationError(f"unknown pod {pod_id!r}")
        status = pod.load_snapshot()
        return PodSnapshot(
            pod_id=pod_id,
            free_memory_bytes=status.free_memory_bytes,
            free_cores=status.free_cores,
            queue_depth=status.queue_depth,
            fragmentation=status.fragmentation,
            claimed_bytes=self._claimed_bytes.get(pod_id, 0),
            claimed_cores=self._claimed_cores.get(pod_id, 0),
        )

    def snapshots(self) -> list[PodSnapshot]:
        return [self.snapshot(pod_id) for pod_id in self.pod_ids]

    @staticmethod
    def fits(snapshot: PodSnapshot, ram_bytes: int, vcpus: int) -> bool:
        """Can the pod take the request, net of outstanding claims?"""
        return (snapshot.available_bytes >= ram_bytes
                and snapshot.available_cores >= vcpus)

    # -- placement -----------------------------------------------------------

    def place(self, tenant_id: str, ram_bytes: int, vcpus: int,
              home: Optional[str] = None) -> str:
        """Choose the pod that admits *tenant_id*.

        Locality first: the home pod wins whenever it fits (and always,
        under the ``never`` policy).  Otherwise the spill policy picks
        among the other pods that fit; when *no* pod fits, the home pod
        is returned anyway — its admission pipeline records the
        rejection, keeping accounting in one place.
        """
        home = home if home is not None else self.home_pod(tenant_id)
        if home not in self._pods:
            raise FederationError(f"unknown home pod {home!r}")
        if self.spill_policy == "never":
            return home  # pinned, even to a dead pod: the baseline
        conflicted = self._conflicted_pods(tenant_id)
        if (self.pod_accepting(home) and home not in conflicted
                and self.fits(self.snapshot(home), ram_bytes, vcpus)):
            return home
        # Spill: measure each other accepting pod once, in canonical
        # order; the home pod's measurement above is never needed again.
        others = [pod_id for pod_id in self.pod_ids
                  if pod_id != home and self.pod_accepting(pod_id)]
        fitting = [s for s in map(self.snapshot, others)
                   if self.fits(s, ram_bytes, vcpus)]
        # Anti-affinity is soft: conflict-free pods win, but when every
        # fitting pod already hosts a group-mate, co-location beats
        # rejection.
        preferred = [s for s in fitting
                     if s.pod_id not in conflicted] or fitting
        if not preferred:
            return home
        if self.spill_policy == "first-fit":
            return preferred[0].pod_id  # snapshots() is in canonical order
        preferred.sort(key=lambda s: (-s.available_bytes, s.pod_id))
        return preferred[0].pod_id

    def place_for_readmission(self, tenant_id: str, ram_bytes: int,
                              vcpus: int) -> Optional[str]:
        """Emergency placement for a tenant whose pod died.

        Ignores the spill policy and home-pod preference (the home is
        gone); picks the accepting pod with the most unclaimed free
        memory that fits, preferring anti-affinity-clean pods.  Returns
        ``None`` when no surviving pod can take the tenant — the caller
        counts a re-admission failure and leaves the tenant parked until
        repair.
        """
        conflicted = self._conflicted_pods(tenant_id)
        fitting = [s for s in self.snapshots()
                   if self.pod_accepting(s.pod_id)
                   and self.fits(s, ram_bytes, vcpus)]
        preferred = [s for s in fitting
                     if s.pod_id not in conflicted] or fitting
        if not preferred:
            return None
        preferred.sort(key=lambda s: (-s.available_bytes, s.pod_id))
        return preferred[0].pod_id

    def _conflicted_pods(self, tenant_id: str) -> frozenset:
        """Pods whose committed ledger already hosts a member of
        *tenant_id*'s anti-affinity group (empty without grouping)."""
        if self.anti_affinity is None:
            return frozenset()
        group = self.anti_affinity(tenant_id)
        if not group:
            return frozenset()
        return frozenset(
            claim.pod_id for other, claim in self._ledger.items()
            if other != tenant_id and self.anti_affinity(other) == group)

    # -- two-phase claims ----------------------------------------------------

    @property
    def pending_claims(self) -> list[PodClaim]:
        """Claims reserved but not yet committed or released (normally
        empty outside an in-flight admission/migration)."""
        return list(self._claims.values())

    def reserve(self, pod_id: str, ram_bytes: int,
                vcpus: int, tenant_id: str = "") -> PodClaim:
        """Phase 1: record a tentative claim against *pod_id*'s ledger."""
        if pod_id not in self._pods:
            raise FederationError(f"unknown pod {pod_id!r}")
        claim = PodClaim(claim_id=next(self._claim_ids), pod_id=pod_id,
                         ram_bytes=ram_bytes, vcpus=vcpus,
                         tenant_id=tenant_id)
        self._claims[claim.claim_id] = claim
        self._claimed_bytes[pod_id] = (
            self._claimed_bytes.get(pod_id, 0) + ram_bytes)
        self._claimed_cores[pod_id] = (
            self._claimed_cores.get(pod_id, 0) + vcpus)
        return claim

    def commit(self, claim: PodClaim) -> None:
        """Phase 2 success: the pod-level reservation landed, so the
        capacity now shows in the pod's registry and the in-flight
        entry is redundant.  A claim carrying a tenant id is remembered
        in the committed ledger (re-admission source after pod loss)
        until :meth:`forget` or a later commit supersedes it."""
        self._drop(claim)
        if claim.tenant_id:
            self._ledger[claim.tenant_id] = claim

    def release(self, claim: PodClaim) -> None:
        """Phase 2 rejection: return the claimed capacity to the ledger."""
        self._drop(claim)

    def _drop(self, claim: PodClaim) -> None:
        if claim.claim_id not in self._claims:
            raise FederationError(
                f"claim {claim.claim_id} already committed or released")
        del self._claims[claim.claim_id]
        self._claimed_bytes[claim.pod_id] -= claim.ram_bytes
        self._claimed_cores[claim.pod_id] -= claim.vcpus

    # -- committed ledger ----------------------------------------------------

    def ledger_claim(self, tenant_id: str) -> Optional[PodClaim]:
        """The committed claim backing *tenant_id*, if any."""
        return self._ledger.get(tenant_id)

    def ledger_for_pod(self, pod_id: str) -> list[PodClaim]:
        """Committed claims homed on *pod_id*, in tenant-id order —
        the replay set a lost pod's re-admission works through."""
        return [self._ledger[tenant_id]
                for tenant_id in sorted(self._ledger)
                if self._ledger[tenant_id].pod_id == pod_id]

    def forget(self, tenant_id: str) -> Optional[PodClaim]:
        """Drop *tenant_id*'s committed ledger entry (tenant departed);
        returns the entry, or ``None`` when there was none."""
        return self._ledger.pop(tenant_id, None)
