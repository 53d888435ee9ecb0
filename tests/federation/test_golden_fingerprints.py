"""Golden run digests: one small serve, pinned bit for bit.

Every other determinism test compares two runs of the current code
against each other.  These pin absolute ``federation_fingerprint``
digests, so a change to the kernel or to any layer above it that
alters what a serve does — event order, admission outcomes, latency
totals — fails here even when every run of the new code agrees with
itself.  A change that moves these digests on purpose must say so and
re-record them.
"""

from __future__ import annotations

import pytest

from repro.cluster.trace import poisson_trace
from repro.federation.parallel import federation_fingerprint
from repro.topology import compile_spec
from repro.units import gib

#: Backend (``compile_spec`` workers argument) -> expected digest.
GOLDEN = {
    None: "24f7933f1ff4b4e1b126b7a0b07204f6c2bab399310bcdaeddd078ad048ee557",
    0: "51ef6ae425b050191f8b2500f5ae5adcf7a9a5b79710b413df4d468ff03d8520",
}


def _trace():
    return poisson_trace(
        200, 10.0, vcpus=1, ram_bytes=gib(2), mean_lifetime_s=2.0,
        scale_fraction=0.5, seed=7, name="golden")


@pytest.mark.parametrize("workers", list(GOLDEN),
                         ids=["serial", "inline-parallel"])
def test_serve_matches_golden_fingerprint(workers):
    compiled = compile_spec("M", workers=workers)
    try:
        stats = compiled.federation.serve_trace(_trace())
    finally:
        compiled.close()
    assert federation_fingerprint(stats) == GOLDEN[workers]
