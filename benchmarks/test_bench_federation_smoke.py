"""Non-gating CI smoke for the federation tier (1 vs 2 pods).

A reduced `federation` run — one (high) aggregate arrival rate, a
small tenant count, one pod vs two pods with spill, plus the pinned
baseline at two pods — so a regression on the global placement path
(spill decisions, two-phase admission claims, inter-pod migration)
surfaces in PRs in seconds instead of the full sweep's minutes.
Runs in the non-gating ``benchmarks`` CI job with the other smokes;
see `.github/workflows/ci.yml`.
"""

from __future__ import annotations

from repro.experiments.federation import run_federation

#: Reduced scale: enough offered load to overrun one pod at 20/s,
#: small enough to finish in seconds.
SMOKE_TENANTS = 60
SMOKE_RATE = 20.0


def test_federation_spill_smoke():
    one_pod = run_federation(
        pod_counts=(1,), arrival_rates_hz=(SMOKE_RATE,),
        tenant_count=SMOKE_TENANTS).cell(1, SMOKE_RATE, "least-loaded")
    two_pods = run_federation(
        pod_counts=(2,), arrival_rates_hz=(SMOKE_RATE,),
        tenant_count=SMOKE_TENANTS)
    pinned = two_pods.cell(2, SMOKE_RATE, "never")
    spill = two_pods.cell(2, SMOKE_RATE, "least-loaded")

    # One pod is past its capacity wall at this rate.
    assert one_pod.rejected > 0

    # Federating a second pod admits strictly more of the same offered
    # load, and spill beats pinned-to-home at equal pod count.
    assert spill.admitted > one_pod.admitted
    assert spill.admitted > pinned.admitted
    assert spill.rejected < pinned.rejected
    assert spill.spills > 0

    # Every cell served the traffic it admitted (accounting closes).
    for cell in (one_pod, pinned, spill):
        assert cell.admitted + cell.rejected == SMOKE_TENANTS
