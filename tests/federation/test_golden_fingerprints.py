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

import hashlib
import zlib

import pytest

from repro.cluster.trace import poisson_trace
from repro.faults import FaultClass, FaultInjector, FaultPlan, ScriptedFault
from repro.federation.parallel import federation_fingerprint
from repro.federation.rebalancer import FederationRebalancer
from repro.topology import compile_spec, load_spec
from repro.units import gib, mib

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


#: Scripted outages of the evacuation pins, one pod each.  Each cuts a
#: component while its pod holds segments the self-healing reaction can
#: move: the memory brick's own segments, segments on the cut-off rack
#: held by VMs outside it, and segments that cross the pod switch.
EVACUATION_FAULTS = (
    ScriptedFault(2.0, FaultClass.MEMORY_BRICK, "pod1:pod1.rack0.mb0", 3.0),
    ScriptedFault(16.0, FaultClass.SWITCH, "pod0", 3.0),
    ScriptedFault(17.0, FaultClass.RACK_UPLINK, "pod2:pod2.rack1", 3.0),
)

#: Fault target -> the tenants its self-healing reaction recovered.
EVACUATION_HEALED = {
    "pod1:pod1.rack0.mb0": ("golden-t00010", "golden-t00014",
                            "golden-t00016"),
    "pod0": ("golden-t00008", "golden-t00132"),
    "pod2:pod2.rack1": ("golden-t00050", "golden-t00103", "golden-t00134"),
}

#: Digest of the segments still placed after the serve: tenants whose
#: depart failed leave theirs behind, some of them moved by a heal.
FINAL_PLACEMENT = (
    "1e2c92408a3e6e966cb2eba040f5d0bec9829c9b7b6319dd023fbb216165c0ad")

#: Case id -> (drain start, drained rack of pod1 or ``None`` for a
#: drain of the whole pod, expected fingerprint, expected digests of the
#: segment placement when the drain returns and after the serve,
#: expected ``DrainReport`` counters).
GOLDEN_EVACUATIONS = {
    "pod-drain": (
        23.0, None,
        "d8866e5575bca9032f7071aacf343b19a6e86609ab0e379cb6837b47efa8276b",
        ("b692fdccb5d82ac5ad6fae4f3925c651b61db6382529baba14dca7d68f105e49",
         FINAL_PLACEMENT),
        (False, True, 3, 7516192768, 1, 0, 0, ("pod1.rack0",))),
    "rack-drain": (
        24.0, "pod1.rack0",
        "406abbbfb9b1f666c302f93279feba5e9cd080354f7317f0c67de2d924a6be2c",
        ("146e4b72ff195620e860f9f2560433896c22719b0daf72569d49bb7bc055952d",
         FINAL_PLACEMENT),
        (True, False, 3, 5368709120, 1, 0, 0, ("pod1.rack0",))),
}


def _record_relocations(federation) -> list:
    """Wrap every pod controller's ``relocate_segment_process`` so each
    completed move is noted as ``(time, pod, source brick, target
    brick)``.  The wrapper delegates with ``yield from`` and adds no
    event, so the serve it observes is unchanged."""
    moves = []
    for pod_id, pod in federation.pods.items():
        sdm = pod.system.sdm
        relocate = sdm.relocate_segment_process

        def recorded(ctx, segment_id, target, *args, _relocate=relocate,
                     _sdm=sdm, _pod_id=pod_id, **kwargs):
            source = _sdm.segment_record(segment_id).segment.memory_brick_id
            result = yield from _relocate(ctx, segment_id, target,
                                          *args, **kwargs)
            moves.append((federation.sim.now, _pod_id, source, target))
            return result
        sdm.relocate_segment_process = recorded
    return moves


def _placement_digest(federation) -> str:
    """Digest of every live segment's ``(pod, segment, memory brick,
    compute brick, offset)``."""
    rows = sorted(
        (pod_id, s.segment_id, s.memory_brick_id, s.compute_brick_id,
         s.offset)
        for pod_id, pod in federation.pods.items()
        for s in pod.system.sdm.live_segments)
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _moved_during(moves, pod_id: str, fault: ScriptedFault) -> list:
    """``(source, target)`` of the moves in *pod_id* while *fault* held."""
    return [(source, target) for now, pod, source, target in moves
            if pod == pod_id
            and fault.at_s <= now < fault.at_s + fault.duration_s]


@pytest.mark.parametrize("case", list(GOLDEN_EVACUATIONS))
def test_evacuation_paths_match_golden_fingerprint(case):
    drain_at, rack, digest, placements, counters = GOLDEN_EVACUATIONS[case]
    compiled = compile_spec("M")
    federation = compiled.federation
    sim = federation.sim
    moves = _record_relocations(federation)
    injector = FaultInjector(federation, classes=(),
                             plan=FaultPlan(EVACUATION_FAULTS),
                             self_heal=True).install()
    supervisor = compiled.supervisor(injector)
    reports, drained = [], []

    def drain():
        yield sim.timeout(drain_at)
        if rack is None:
            report = yield from supervisor.drain_pod_process("pod1")
        else:
            report = yield from supervisor.drain_rack_process("pod1", rack)
        reports.append(report)
        drained.append(_placement_digest(federation))

    sim.process(drain())
    stats = federation.serve_trace(_trace(), home_of=_skewed)
    sim.run(until=sim.now + 10.0)

    # The pin must keep covering every evacuation path it names.
    memory, switch, uplink = EVACUATION_FAULTS
    rack_of = {pod_id: pod.system.sdm.registry.rack_of
               for pod_id, pod in federation.pods.items()}
    assert any(source == "pod1.rack0.mb0"
               for source, _ in _moved_during(moves, "pod1", memory))
    assert any(rack_of["pod0"](source) != rack_of["pod0"](target)
               for source, target in _moved_during(moves, "pod0", switch))
    assert any(rack_of["pod2"](source) == "pod2.rack1"
               for source, _ in _moved_during(moves, "pod2", uplink))
    (report,) = reports
    assert report.segments_moved >= 1

    assert {event.target: event.healed_tenants
            for event in injector.metrics.events} == EVACUATION_HEALED
    assert (report.committed, report.aborted, report.segments_moved,
            report.bytes_moved, report.tenants_migrated,
            report.rollback_moves, report.verify_failures,
            tuple(report.racks_retired)) == counters
    assert (drained[0], _placement_digest(federation)) == placements
    assert federation_fingerprint(stats) == digest


#: The ballooning serve on template ``L``: its fingerprint, the events
#: it processed and, per pod, the ``repr`` of the control plane's
#: sampled figures, which the fingerprint does not fold.
GOLDEN_BALLOON = (
    "8869b8e3360efa292534f386141c5825fed97a57293d549d54dd45b5585eb57c",
    12947,
    {
        "pod0": ("8", "1.035", "0.09773734362004687",
                 "0.029985919098822325", "0.40010169042321336"),
        "pod1": ("4", "0.3", "0.07477330099489274",
                 "0.03273191179150721", "0.3287128122612737"),
        "pod2": ("8", "1.145", "0.0950651319939455",
                 "0.05040322580645161", "0.3770840324355801"),
        "pod3": ("6", "0.59", "0.08018497224473282",
                 "0.029166666666666674", "0.3457673871730049"),
    },
)


def test_ballooning_serve_on_template_l_matches_golden_figures():
    """Every tenant scales up and then down by 512 MiB on template
    ``L``, so the pin covers hotplug, the per-batch fragmentation
    sample and the per-submit queue-depth sample."""
    spec = load_spec("L").override(maintenance={"windows": []})
    pods = list(spec.pod_ids)
    compiled = compile_spec(spec, rebalancer=FederationRebalancer(
        interval_s=0.25, imbalance_threshold=0.2))
    trace = poisson_trace(
        200, 100.0, ram_bytes=gib(2), mean_lifetime_s=0.8,
        scale_fraction=1.0, scale_bytes=mib(512), seed=31,
        name="golden-l")
    try:
        stats = compiled.federation.serve_trace(
            trace, home_of=lambda spec: pods[
                zlib.crc32(spec.tenant_id.encode()) % len(pods)])
    finally:
        compiled.close()
    # The pin must keep covering the path it names.
    assert len(stats.records("scale_up")) == len(trace.tenants)
    digest, events, figures = GOLDEN_BALLOON
    assert federation_fingerprint(stats) == digest
    assert compiled.federation.sim.events_processed == events
    assert {pod_id: (repr(pod.max_queue_depth), repr(pod.mean_queue_depth),
                     repr(pod.peak_fragmentation),
                     repr(pod.final_fragmentation), repr(pod.utilization))
            for pod_id, pod in stats.pod_stats.items()} == figures
