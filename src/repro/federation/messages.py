"""The federation's pod port on the wire: plain, picklable messages.

The coordinator (:class:`~repro.federation.controller.Federation`)
reaches a pod through four port methods.  The direct port of
:class:`~repro.federation.controller.FederationController` implements
them as object calls — ``plane.submit``, ``plane.tenant_tail``,
``system.hosting``.  The wire port of the parallel federation
(:mod:`repro.federation.parallel`) cannot: each pod lives in its own
simulator, possibly in another OS process, so **every** cross-pod
interaction must be a message that pickles cleanly and says
everything the other side needs.  This module is that protocol — the
complete vocabulary the coordinator and the pod logical processes
exchange:

====================  =================================================
coordinator → pod     :class:`SubmitCmd` (boot/scale/migrate/depart
                      through the pod's admission pipeline),
                      :class:`DrainCmd` (settle a tenant's in-flight
                      work and report its footprint — migration phase
                      0).
pod → coordinator     :class:`CompletionReply` (one per SubmitCmd, the
                      request's full :class:`~repro.cluster.metrics.
                      RequestRecord` timing), :class:`DrainedReply`
                      (one per DrainCmd).
pod → coordinator,    :class:`PodStatus` — the pod's load snapshot,
at window barriers    attached to the barrier reply whenever the pod
                      processed events that window; the coordinator's
                      :class:`~repro.federation.placer.GlobalPlacer`
                      scores placements from the cached copies.
====================  =================================================

Everything here is a frozen dataclass of numbers and strings.  Sim
objects (:class:`~repro.sim.engine.Event`, simulators, control planes)
refuse pickling by design, so a protocol regression — someone slipping
a live object into a message — fails loudly at the pipe, not silently
in a worker.  The two functions both ports share — :func:`plane_payload`
(a request's ``plane.submit`` keywords) and :func:`measure_pod` (the
load measurement) — live here too, so either port sees the same
requests and the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.orchestration.requests import VmAllocationRequest


@dataclass(frozen=True)
class SubmitCmd:
    """Coordinator → pod: push one request through the pod's admission
    pipeline (``plane.submit``) at the message's arrival time.

    The fields map onto ``plane.submit`` keywords through
    :func:`plane_payload`.
    """

    request_id: int
    kind: str
    tenant_id: str
    ram_bytes: int = 0
    vcpus: int = 0
    size_bytes: int = 0


def plane_payload(kind: str, tenant_id: str, ram_bytes: int,
                  vcpus: int, size_bytes: int) -> dict:
    """The ``ControlPlane.submit`` keywords of one request.

    ``ram_bytes``/``vcpus`` parameterize ``boot``; ``size_bytes``
    parameterizes ``scale_up``; the other kinds need no payload
    (``scale_down`` resolves its segment at serve time).
    """
    if kind == "boot":
        return {"request": VmAllocationRequest(
            vm_id=tenant_id, vcpus=vcpus, ram_bytes=ram_bytes)}
    if kind == "scale_up":
        return {"size_bytes": size_bytes}
    if kind == "scale_down":
        return {"segment_id": None}
    return {}


@dataclass(frozen=True)
class DrainCmd:
    """Coordinator → pod: wait out the tenant's in-flight requests
    (``plane.tenant_tail``), then report the footprint an inter-pod
    move must copy — migration phase 0."""

    request_id: int
    tenant_id: str


@dataclass(frozen=True)
class CompletionReply:
    """Pod → coordinator: one :class:`SubmitCmd`'s request finished
    (served or rejected — check ``ok``).  Carries the pod-local
    :class:`~repro.cluster.metrics.RequestRecord` timing so the
    coordinator can reconstruct the record exactly."""

    request_id: int
    tenant_id: str
    kind: str
    ok: bool
    note: str
    submitted_s: float
    started_s: float
    completed_s: float
    queue_depth_at_submit: int


@dataclass(frozen=True)
class DrainedReply:
    """Pod → coordinator: the tenant's in-flight work has settled.

    ``hosted`` is False when the tenant departed before the drain
    completed (the move is then abandoned); otherwise ``ram_bytes`` is
    the full current footprint — boot RAM plus every runtime DIMM — the
    inter-pod link must carry.
    """

    request_id: int
    tenant_id: str
    hosted: bool
    ram_bytes: int = 0
    vcpus: int = 0


@dataclass(frozen=True)
class PodStatus:
    """One pod's load, as :func:`measure_pod` reads it.

    The quantities :meth:`~repro.federation.placer.GlobalPlacer.
    snapshot` scores, plus the utilization/idleness the rebalancer's
    planning needs — everything coordinator-side policy consumes, so
    no policy ever needs a live object from another process.
    """

    free_memory_bytes: int
    free_cores: int
    queue_depth: int
    fragmentation: float
    #: Fraction of the pod's memory pool currently allocated (the
    #: rebalancer's hot/cold signal).
    utilization: float
    #: True when the pod's admission pipeline has nothing queued,
    #: in service, or detached (the rebalancer's idle-window gate).
    idle: bool
    alive: bool = True


def measure_pod(system, plane, alive: bool = True) -> PodStatus:
    """Compute a :class:`PodStatus` from direct reads of one pod.

    The one shared implementation of the load measurement: the direct
    port's :meth:`~repro.federation.controller.FederatedPod.
    load_snapshot` and the wire port's pod LP barrier status both call
    this, so placement decisions see identical numbers on either
    backend.
    """
    load = system.sdm.registry.pod_load()
    return PodStatus(
        free_memory_bytes=load.free_bytes,
        free_cores=load.free_cores,
        queue_depth=(plane.admission.size
                     + plane.ctx.total_reservation_queue_depth),
        fragmentation=load.fragmentation,
        utilization=load.utilization,
        idle=plane.is_idle(),
        alive=alive,
    )
