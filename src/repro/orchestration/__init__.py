"""Orchestration plane: the Software-Defined Memory controller (§IV.C).

"Orchestration of the disaggregated resources is performed by a software
component integrated with OpenStack, namely the SDM Controller (SDM-C)."

* :mod:`repro.orchestration.requests` — allocation request records.
* :mod:`repro.orchestration.registry` — rack-wide resource inventory and
  availability accounting.
* :mod:`repro.orchestration.placement` — selection policies, including
  the power-consumption-conscious one the paper calls for.
* :mod:`repro.orchestration.sdm_controller` — the SDM-C's reservation
  tables and lock-free steps: circuit programming, configuration push.
* :mod:`repro.orchestration.sharding` — the SDM-C every builder makes:
  per-rack reservation domains with a two-phase cross-shard reserve.
* :mod:`repro.orchestration.openstack` — the thin OpenStack-like facade
  that feeds VM allocation requests to the SDM-C.
"""

from repro.orchestration.elasticity import (
    ElasticityAction,
    ElasticMemoryManager,
    RebalanceReport,
)
from repro.orchestration.openstack import Flavor, OpenStackFacade
from repro.orchestration.placement import (
    FirstFitPolicy,
    PlacementPolicy,
    PowerAwarePackingPolicy,
    SpreadPolicy,
)
from repro.orchestration.registry import (
    ComputeAvailability,
    MemoryAvailability,
    ResourceRegistry,
)
from repro.orchestration.requests import (
    MemoryAllocationRequest,
    VmAllocationRequest,
)
from repro.orchestration.sdm_controller import SdmController, SdmTimings
from repro.orchestration.sharding import ShardedSdmController, ShardHold

__all__ = [
    "ComputeAvailability",
    "ElasticMemoryManager",
    "ElasticityAction",
    "RebalanceReport",
    "FirstFitPolicy",
    "Flavor",
    "MemoryAllocationRequest",
    "MemoryAvailability",
    "OpenStackFacade",
    "PlacementPolicy",
    "PowerAwarePackingPolicy",
    "ResourceRegistry",
    "SdmController",
    "SdmTimings",
    "ShardHold",
    "ShardedSdmController",
    "SpreadPolicy",
    "VmAllocationRequest",
]
