"""Cluster-scale control plane on the DES kernel.

The layer above orchestration: where :mod:`repro.orchestration` answers
one request at a time, this package serves *traffic* — requests from
open-loop multi-tenant arrival traces driven through an admission
queue, a batched dispatcher and the SDM-C reservation critical section
modeled as a real DES resource.  The tenant lifecycles that turn a
trace into requests live one tier up, in
:class:`~repro.federation.controller.Federation` (a one-pod
federation serves a single system).

* :mod:`repro.cluster.trace` — tenant arrival traces (Poisson, diurnal,
  bursty, CSV replay).
* :mod:`repro.cluster.control_plane` — admission queue, batched
  dispatch with brick-side completion offload.
* :mod:`repro.cluster.defrag` — idle-window memory-pool consolidation,
  installed by its caller on a plane's context.
* :mod:`repro.cluster.metrics` — request records and latency/queue
  statistics.
"""

from repro.cluster.control_plane import (
    AMORTIZABLE_KINDS,
    ClusterRequest,
    ControlPlane,
    REQUEST_KINDS,
)
from repro.cluster.defrag import PLANNERS, DefragmentationTask, DefragReport
from repro.cluster.metrics import (
    ControlPlaneStats,
    RequestRecord,
    TimedSample,
)
from repro.cluster.trace import (
    ReplayTrace,
    ScaleEvent,
    TenantSpec,
    TenantTrace,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)

__all__ = [
    "AMORTIZABLE_KINDS",
    "ClusterRequest",
    "ControlPlane",
    "ControlPlaneStats",
    "DefragReport",
    "DefragmentationTask",
    "PLANNERS",
    "REQUEST_KINDS",
    "ReplayTrace",
    "RequestRecord",
    "ScaleEvent",
    "TenantSpec",
    "TenantTrace",
    "TimedSample",
    "bursty_trace",
    "diurnal_trace",
    "poisson_trace",
]
