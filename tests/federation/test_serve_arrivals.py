"""Serving a trace: exact arrival times and fail-fast lifecycles.

A tenant arrives at exactly ``t0 + arrival_s``, the float time its
trace names, even where no relative delay from the previous arrival
reaches it.  A lifecycle that raises aborts ``serve_trace`` with that
exception, at the time it raises, on every backend.
"""

from __future__ import annotations

import pytest

from repro.cluster.control_plane import ControlPlane
from repro.cluster.trace import TenantSpec, TenantTrace, poisson_trace
from repro.core.builder import RackBuilder
from repro.federation.controller import build_federation
from repro.federation.parallel import build_parallel_federation
from repro.units import gib

#: From ``FIRST_S`` no delay lands on ``SECOND_S``: a relative
#: ``timeout(SECOND_S - FIRST_S)`` fires at 1.0 instead.
FIRST_S = 2.0 ** -53
SECOND_S = 1.0 + 2.0 ** -52


def _two_tenants() -> TenantTrace:
    return TenantTrace("exact", [
        TenantSpec("t0", FIRST_S, vcpus=1, ram_bytes=gib(1), lifetime_s=1.0),
        TenantSpec("t1", SECOND_S, vcpus=1, ram_bytes=gib(1),
                   lifetime_s=1.0)])


def _second_boot(records) -> float:
    (boot,) = [r for r in records if r.tenant_id == "t1" and r.kind == "boot"]
    return boot.submitted_s


def test_serial_federation_boots_at_the_exact_arrival():
    stats = build_federation(2).serve_trace(_two_tenants())
    assert _second_boot(stats.admission_records) == SECOND_S


def test_control_plane_boots_at_the_exact_arrival():
    system = (RackBuilder("exact")
              .with_compute_bricks(2, cores=16, local_memory=gib(4))
              .with_memory_bricks(1, modules=2, module_size=gib(8))
              .build())
    stats = ControlPlane(system).serve_trace(_two_tenants())
    assert _second_boot(stats.records) == SECOND_S


@pytest.mark.parametrize("workers", [None, 0],
                         ids=["serial", "inline-parallel"])
def test_a_raising_lifecycle_aborts_the_serve(workers):
    trace = poisson_trace(20, 10.0, seed=5, name="fail-fast")
    doomed = trace.tenants[7]

    def home_of(spec: TenantSpec) -> str:
        if spec.tenant_id == doomed.tenant_id:
            raise KeyError(spec.tenant_id)
        return "pod0"

    federation = (build_federation(2) if workers is None
                  else build_parallel_federation(2, workers=workers))
    try:
        with pytest.raises(KeyError, match=doomed.tenant_id):
            federation.serve_trace(trace, home_of=home_of)
    finally:
        if workers is not None:
            federation.close()
    assert federation.sim.now == doomed.arrival_s
