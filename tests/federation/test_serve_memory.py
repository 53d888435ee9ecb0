"""A serve's memory follows the tenants in flight, not the trace length.

Each ``serve_trace`` — the serial federation and the parallel
federation on its in-process fleet — serves a short trace and one
four times longer at the same arrival rate.  The pending-event queue
and the requests left alive must not grow with the longer trace, the
serve must leave no cyclic garbage (every finished request is freed
by reference counting alone), and no tenant may keep a tail once its
last request has executed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import pytest

from repro.cluster.control_plane import ClusterRequest
from repro.cluster.trace import TenantTrace, poisson_trace
from repro.federation.controller import build_federation
from repro.federation.parallel import (
    DEFAULT_SYNC_WINDOW_S,
    ParallelFederationController,
    build_pod_lps,
)
from repro.sim.parallel import InlineFleet
from repro.units import gib, mib

SHORT_TENANTS = 100
LONG_TENANTS = 400
RATE_HZ = 20.0


def _trace(tenants: int) -> TenantTrace:
    return poisson_trace(
        tenants, RATE_HZ, vcpus=1, ram_bytes=gib(1), mean_lifetime_s=2.0,
        scale_fraction=0.5, scale_bytes=mib(256), seed=3, name="memory")


def _live_requests() -> int:
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, ClusterRequest))


@dataclass
class ServeFootprint:
    queue_peak: int
    live_requests: int
    cyclic_garbage: int
    tails: int


# Each serve returns the object that owns it, which must stay alive
# across the garbage count, with the simulators and planes to inspect.

def _serial(trace):
    federation = build_federation(2)
    federation.serve_trace(trace)
    return (federation, [federation.sim],
            [pod.plane for pod in federation.pods.values()])


def _parallel(trace):
    lps = []

    def factory(**kwargs):
        lps.extend(build_pod_lps(**kwargs))
        return lps

    fleet = InlineFleet()
    pod_ids = fleet.build(factory, pod_count=2,
                          lookahead_s=DEFAULT_SYNC_WINDOW_S)
    with ParallelFederationController(fleet, pod_ids) as federation:
        federation.serve_trace(trace)
    return (federation, [federation.sim] + [lp.sim for lp in lps],
            [lp.plane for lp in lps])


def _footprint(serve, tenants: int) -> ServeFootprint:
    trace = _trace(tenants)
    gc.collect()
    before = _live_requests()
    gc.disable()
    try:
        _owner, sims, planes = serve(trace)
        garbage = gc.collect()
    finally:
        gc.enable()
    tails = sum(1 for plane in planes for spec in trace.tenants
                if plane.tenant_tail(spec.tenant_id) is not None)
    return ServeFootprint(
        queue_peak=max(sim.queue_peak_size for sim in sims),
        live_requests=_live_requests() - before,
        cyclic_garbage=garbage, tails=tails)


@pytest.mark.parametrize("serve", [_serial, _parallel],
                         ids=["serial", "inline-parallel"])
def test_serve_memory_does_not_grow_with_trace_length(serve):
    short = _footprint(serve, SHORT_TENANTS)
    long = _footprint(serve, LONG_TENANTS)
    assert long.queue_peak <= 1.5 * short.queue_peak
    assert long.live_requests <= short.live_requests
    assert short.cyclic_garbage == long.cyclic_garbage == 0
    assert short.tails == long.tails == 0
