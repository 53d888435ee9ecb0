"""Golden run digests: small serves, pinned bit for bit.

Every other determinism test compares two runs of the current code
against each other.  These pin absolute ``federation_fingerprint``
digests, so a change to the kernel or to any layer above it that
alters what a serve does — event order, admission outcomes, latency
totals — fails here even when every run of the new code agrees with
itself.  A change that moves these digests on purpose must say so and
re-record them.
"""

from __future__ import annotations

import zlib

import pytest

from repro.cluster.trace import poisson_trace
from repro.faults import FaultClass, FaultInjector, FaultPlan, ScriptedFault
from repro.federation.parallel import federation_fingerprint
from repro.federation.rebalancer import FederationRebalancer
from repro.topology import compile_spec
from repro.units import gib

#: Backend (``compile_spec`` workers argument) -> expected digest.
GOLDEN = {
    None: "24f7933f1ff4b4e1b126b7a0b07204f6c2bab399310bcdaeddd078ad048ee557",
    0: "51ef6ae425b050191f8b2500f5ae5adcf7a9a5b79710b413df4d468ff03d8520",
}

#: Case id -> (``compile_spec`` workers, whether pod1 fails with
#: self-heal, expected digest) of the skewed, rebalanced serve: inter-pod
#: migration on both backends, and re-admission after a pod loss.
GOLDEN_PATHS = {
    "serial": (
        None, False,
        "ab5732d78734addc354ea09993bb576e439c374f25b447c6b8eceed8eb11e233"),
    "inline-parallel": (
        0, False,
        "99af6972a66680e33e2e5297854e8f06f6b20f2c74ea42eef0889c2b40d33111"),
    "serial-pod-heal": (
        None, True,
        "11554c49ff793cc19d67795d1ec9c2eddd4a292df2b984e523f71d403e27c002"),
}


def _trace():
    return poisson_trace(
        200, 10.0, vcpus=1, ram_bytes=gib(2), mean_lifetime_s=2.0,
        scale_fraction=0.5, seed=7, name="golden")


def _skewed(spec):
    """Three in four tenants call pod0 home, so the rebalancer finds a
    hot pod to drain."""
    d = zlib.crc32(spec.tenant_id.encode())
    return "pod0" if d % 4 else f"pod{1 + (d >> 2) % 2}"


@pytest.mark.parametrize("workers", list(GOLDEN),
                         ids=["serial", "inline-parallel"])
def test_serve_matches_golden_fingerprint(workers):
    compiled = compile_spec("M", workers=workers)
    try:
        stats = compiled.federation.serve_trace(_trace())
    finally:
        compiled.close()
    assert federation_fingerprint(stats) == GOLDEN[workers]


@pytest.mark.parametrize("case", list(GOLDEN_PATHS))
def test_migration_and_heal_paths_match_golden_fingerprint(case):
    workers, heal, digest = GOLDEN_PATHS[case]
    compiled = compile_spec("M", workers=workers,
                            rebalancer=FederationRebalancer(
                                interval_s=0.25, imbalance_threshold=0.2))
    try:
        if heal:
            plan = FaultPlan([ScriptedFault(5.0, FaultClass.POD, "pod1",
                                            3.0)])
            FaultInjector(compiled.federation, classes=(), plan=plan,
                          self_heal=True).install()
        stats = compiled.federation.serve_trace(_trace(), home_of=_skewed)
    finally:
        compiled.close()
    # The pin must keep covering the path it names.
    assert stats.migrations >= 1
    if heal:
        assert stats.readmissions >= 1
    assert federation_fingerprint(stats) == digest
