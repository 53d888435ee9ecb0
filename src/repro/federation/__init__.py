"""Multi-pod federation: the control tier above the pod.

Where :mod:`repro.cluster` serves traffic against *one* pod,
this package federates many — each pod an independent
:class:`~repro.core.system.DisaggregatedSystem` with its own control
plane and sharded SDM controller — under a global placement tier:

* :mod:`repro.federation.placer` — locality-first tenant-to-pod
  placement with capacity spill to the pod with the most free memory;
* :mod:`repro.federation.controller` — the coordinator both backends
  share (routing, tenant lifecycles, migration, rebalancing over a pod
  port) and its direct port: N pods on one shared DES clock;
* :mod:`repro.federation.migration` — two-phase inter-pod tenant
  migration (reserve in target, copy, commit/rollback);
* :mod:`repro.federation.rebalancer` — idle-window draining of
  overloaded pods.
"""

from repro.federation.controller import (
    DEFAULT_INTERPOD_LINK_BPS,
    FederatedPod,
    Federation,
    FederationController,
    FederationStats,
    build_federation,
)
from repro.federation.migration import InterPodMigrator, MigrationOutcome
from repro.federation.placer import (
    SPILL_POLICIES,
    GlobalPlacer,
    PodClaim,
    PodSnapshot,
)
from repro.federation.rebalancer import FederationRebalancer, RebalanceReport

__all__ = [
    "DEFAULT_INTERPOD_LINK_BPS",
    "FederatedPod",
    "Federation",
    "FederationController",
    "FederationRebalancer",
    "FederationStats",
    "GlobalPlacer",
    "InterPodMigrator",
    "MigrationOutcome",
    "PodClaim",
    "PodSnapshot",
    "RebalanceReport",
    "SPILL_POLICIES",
    "build_federation",
]
