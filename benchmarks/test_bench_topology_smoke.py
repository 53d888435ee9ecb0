"""Non-gating CI smoke for the declarative topology compiler.

Compiles every named template (S/M/L/XL) on the serial backend and
runs a reduced federation sweep on template S, asserting the compiled
spec actually drives the experiment end to end.  Runs in the
non-gating ``benchmarks`` CI job with the other smokes; see
`.github/workflows/ci.yml`.
"""

from __future__ import annotations

from repro.experiments.federation import run_federation
from repro.topology import TEMPLATE_NAMES, compile_spec


def test_every_template_compiles():
    for name in TEMPLATE_NAMES:
        compiled = compile_spec(name)
        spec = compiled.spec
        assert len(compiled.federation.pods) == spec.pods
        if spec.domains:
            assert compiled.failure_domains()
        compiled.close()


def test_reduced_federation_sweep_on_template_s():
    result = run_federation(arrival_rates_hz=(10,), tenant_count=20,
                            topology="S", spill_policy="least-loaded")
    assert result.cells
    assert all(cell.pod_count == 2 for cell in result.cells)
    assert all(cell.admitted + cell.rejected > 0 for cell in result.cells)
