"""Request-level metrics of the event-driven control plane.

DRackSim-style studies judge a disaggregation control plane by its
latency distribution under load, not by a single per-request number:
the interesting quantities are tail (p99) allocation latency, admission
queue depth, dispatcher utilization and pool fragmentation *over time*.
This module holds the records and aggregation the
:class:`~repro.cluster.control_plane.ControlPlane` collects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(slots=True)
class RequestRecord:
    """Life of one control-plane request, stamped in simulated time."""

    tenant_id: str
    kind: str
    submitted_s: float
    queue_depth_at_submit: int
    started_s: float = math.nan
    completed_s: float = math.nan
    ok: bool = False
    note: str = ""

    @property
    def wait_s(self) -> float:
        """Admission-queue wait: submission to service start."""
        return self.started_s - self.submitted_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: submission to completion."""
        return self.completed_s - self.submitted_s

    @property
    def done(self) -> bool:
        return not math.isnan(self.completed_s)


@dataclass(frozen=True, slots=True)
class TimedSample:
    """One ``(time, value)`` observation of a control-plane gauge."""

    time_s: float
    value: float


@dataclass
class ControlPlaneStats:
    """Everything the control plane measured during one run.

    Sampling notes:

    * ``queue_depth_samples`` — one sample per submission (admission
      backlog plus waiters on every SDM-C reservation domain).
    * ``fragmentation_samples`` — one sample per batch completion:
      the mean of the registry's per-brick fragmentation list
      (``ResourceRegistry.fragmentations``, see
      ``ControlPlane._fragmentation``).  The registry rebuilds only the
      entries of bricks whose allocator changed since the last read,
      so a sample never walks a free list of an unchanged brick.
    """

    records: list[RequestRecord] = field(default_factory=list)
    queue_depth_samples: list[TimedSample] = field(default_factory=list)
    fragmentation_samples: list[TimedSample] = field(default_factory=list)
    rebalance_passes: int = 0
    busy_s: float = 0.0
    duration_s: float = 0.0
    worker_count: int = 1

    # -- selections ---------------------------------------------------------

    def completed(self, kind: Optional[str] = None) -> list[RequestRecord]:
        """Successfully served requests, optionally of one kind."""
        return [r for r in self.records
                if r.done and r.ok and (kind is None or r.kind == kind)]

    def rejected(self, kind: Optional[str] = None) -> list[RequestRecord]:
        """Requests the control plane could not satisfy."""
        return [r for r in self.records
                if r.done and not r.ok
                and (kind is None or r.kind == kind)]

    # -- latency ------------------------------------------------------------

    def latency_percentile(self, percentile: float,
                           kind: Optional[str] = None) -> float:
        """Percentile of end-to-end request latency, in seconds."""
        latencies = [r.latency_s for r in self.completed(kind)]
        if not latencies:
            return 0.0
        return float(np.percentile(latencies, percentile))

    def wait_percentile(self, percentile: float,
                        kind: Optional[str] = None) -> float:
        """Percentile of admission-queue waiting time, in seconds."""
        waits = [r.wait_s for r in self.completed(kind)]
        if not waits:
            return 0.0
        return float(np.percentile(waits, percentile))

    def mean_latency_s(self, kind: Optional[str] = None) -> float:
        latencies = [r.latency_s for r in self.completed(kind)]
        return float(np.mean(latencies)) if latencies else 0.0

    # -- queue / utilization / fragmentation --------------------------------

    @property
    def max_queue_depth(self) -> int:
        if not self.queue_depth_samples:
            return 0
        return int(max(s.value for s in self.queue_depth_samples))

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_depth_samples:
            return 0.0
        return float(np.mean([s.value for s in self.queue_depth_samples]))

    @property
    def utilization(self) -> float:
        """Fraction of worker time spent serving, in ``[0, 1]``."""
        if self.duration_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.duration_s * self.worker_count))

    @property
    def final_fragmentation(self) -> float:
        if not self.fragmentation_samples:
            return 0.0
        return self.fragmentation_samples[-1].value

    @property
    def peak_fragmentation(self) -> float:
        if not self.fragmentation_samples:
            return 0.0
        return max(s.value for s in self.fragmentation_samples)
