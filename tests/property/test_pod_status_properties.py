"""Pod status from running counters, against a reference walk.

``ResourceRegistry`` keeps its availability snapshots, its
:class:`~repro.orchestration.registry.PodLoad` totals and its
per-brick fragmentation list up to date from change callbacks, and
recounts everything after a rare change (registration, a failed flag,
a lifecycle transition).  Hypothesis drives one pod through random
tapes of every operation that moves those figures -- allocator grants
and frees, VM spawn/terminate/evict/adopt, DIMM hotplug, kernel
segment attach/detach, power, failure and repair, the fault
injector's rack-unreachable path and lifecycle transitions -- and
after every step compares each read with the brick walk the counters
replaced, in a drawn order so that no read relies on another having
refreshed first.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.metrics import FaultClass
from repro.federation import build_federation
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.memory.allocator import SegmentAllocator
from repro.memory.segments import RemoteSegment
from repro.orchestration.lifecycle import LEGAL_TRANSITIONS
from repro.orchestration.registry import (
    ComputeAvailability,
    MemoryAvailability,
    PodLoad,
    ResourceRegistry,
)
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.software.vm import VmState
from repro.units import gib, mib

SECTION = mib(256)

OPERATIONS = ("allocate", "free", "spawn", "terminate", "migrate",
              "hotplug", "unplug", "attach", "detach", "power_off",
              "power_on", "fail_memory", "restore_memory",
              "fail_compute", "restore_compute", "unreach", "advance",
              "transition", "register")

#: Every order in which a step's four reads may be taken.
READ_ORDERS = tuple(permutations(range(4)))


# -- the walks the counters replaced ----------------------------------------

def reference_compute(registry) -> list[ComputeAvailability]:
    return [ComputeAvailability(
                brick_id=e.brick.brick_id,
                free_cores=(e.brick.core_count
                            - sum(vm.vcpus for vm in e.hypervisor.vms)),
                free_ram_bytes=e.hypervisor.kernel.available_bytes,
                powered=e.brick.is_powered,
                hosts_vms=e.hypervisor.vm_count > 0,
                rack_id=e.rack_id)
            for e in registry.compute_entries
            if not e.failed and e.lifecycle.placeable]


def reference_memory(registry) -> list[MemoryAvailability]:
    return [MemoryAvailability(
                brick_id=e.brick.brick_id,
                free_bytes=e.allocator.free_bytes,
                largest_span_bytes=e.allocator.largest_free_span,
                utilization=e.allocator.utilization,
                powered=e.brick.is_powered,
                rack_id=e.rack_id)
            for e in registry.memory_entries
            if not e.failed and e.lifecycle.placeable]


def reference_pod_load(registry) -> PodLoad:
    free_cores = sum(c.free_cores for c in reference_compute(registry))
    placeable_free = allocated = free = 0
    fragmentations = []
    for entry in registry.memory_entries:
        if entry.failed:
            continue
        allocator = entry.allocator
        allocated += allocator.allocated_bytes
        free += allocator.free_bytes
        fragmentations.append(allocator.fragmentation)
        if entry.lifecycle.placeable:
            placeable_free += allocator.free_bytes
    return PodLoad(
        free_bytes=placeable_free,
        free_cores=free_cores,
        utilization=(allocated / (allocated + free)
                     if allocated + free else 0.0),
        fragmentation=(sum(fragmentations) / len(fragmentations)
                       if fragmentations else 0.0))


def reference_fragmentation(registry) -> float:
    entries = [e for e in registry.memory_entries if not e.failed]
    if not entries:
        return 0.0
    total = 0.0
    for entry in entries:  # the control plane's left-to-right loop
        total += entry.allocator.fragmentation
    return total / len(entries)


# -- one pod under a tape ----------------------------------------------------

class PodUnderTape:
    """A one-pod federation plus the bookkeeping the tape ops need."""

    def __init__(self) -> None:
        self.federation = build_federation(
            1, racks_per_pod=2, compute_cores=8, section_bytes=SECTION)
        self.pod = self.federation.pods["pod0"]
        self.registry = self.pod.system.sdm.registry
        self.injector = FaultInjector(self.federation, classes=(),
                                      self_heal=False)
        self.racks = sorted({e.rack_id for e in self.registry.memory_entries})
        self.grants: list[tuple[SegmentAllocator, int]] = []
        self.vms: dict[str, Hypervisor] = {}
        self.dimms: list[tuple[Hypervisor, str, str]] = []
        self.segments: list[tuple[BaremetalKernel, str]] = []
        self.serial = 0

    def _next_id(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def apply(self, op: str, a: int, b: int) -> None:
        """Run one tape step; refusals the pod may legally raise are
        part of the tape (nothing changes, the reads must agree)."""
        registry = self.registry
        computes = registry.compute_entries
        memories = registry.memory_entries
        compute = computes[a % len(computes)]
        memory = memories[a % len(memories)]
        try:
            if op == "allocate":
                offset = memory.allocator.allocate((b % 6 + 1) * SECTION)
                self.grants.append((memory.allocator, offset))
            elif op == "free" and self.grants:
                allocator, offset = self.grants.pop(a % len(self.grants))
                allocator.free(offset)
            elif op == "spawn":
                vm_id = self._next_id("vm")
                compute.hypervisor.spawn_vm(vm_id, b % 4 + 1,
                                            (b % 3 + 1) * SECTION)
                self.vms[vm_id] = compute.hypervisor
            elif op in ("terminate", "migrate", "hotplug") and self.vms:
                vm_id = sorted(self.vms)[b % len(self.vms)]
                self._vm_op(op, vm_id, compute.hypervisor)
            elif op == "unplug" and self.dimms:
                hypervisor, vm_id, dimm_id = self.dimms.pop(
                    b % len(self.dimms))
                if self.vms.get(vm_id) is hypervisor:
                    hypervisor.unplug_dimm(vm_id, dimm_id)
            elif op == "attach":
                segment = RemoteSegment(
                    self._next_id("seg"), memory.brick.brick_id, 0,
                    (b % 4 + 1) * SECTION, compute.brick.brick_id)
                compute.hypervisor.kernel.attach_segment(segment)
                self.segments.append(
                    (compute.hypervisor.kernel, segment.segment_id))
            elif op == "detach" and self.segments:
                kernel, segment_id = self.segments[b % len(self.segments)]
                kernel.detach_segment(segment_id)
                self.segments.remove((kernel, segment_id))
            elif op in ("power_off", "power_on"):
                brick = (compute if b % 2 else memory).brick
                getattr(brick, op)()
            elif op == "fail_memory":
                registry.mark_memory_failed(memory.brick.brick_id)
            elif op == "restore_memory":
                registry.restore_memory(memory.brick.brick_id)
            elif op == "fail_compute":
                registry.mark_compute_failed(compute.brick.brick_id)
            elif op == "restore_compute":
                registry.restore_compute(compute.brick.brick_id)
            elif op == "unreach":
                rack = self.racks[b % len(self.racks)]
                self.injector.inject(FaultClass.RACK_UPLINK,
                                     f"pod0:{rack}", repair_after_s=1.0)
            elif op == "advance":  # every pending uplink repair fires
                sim = self.federation.sim
                sim.run(until=sim.now + 1.0)
            elif op == "transition":
                entry = compute if b % 2 else memory
                legal = sorted(LEGAL_TRANSITIONS[entry.lifecycle.state])
                target = legal[(b // 2) % len(legal)]
                if entry is compute:
                    registry.transition_compute(entry.brick.brick_id, target)
                else:
                    registry.transition_memory(entry.brick.brick_id, target)
            elif op == "register":  # a brick plugged in after reads
                self._register(self.racks[a % len(self.racks)], b % 2)
        except ReproError:
            pass

    def _register(self, rack: str, memory: bool) -> None:
        brick_id = self._next_id(f"{rack}.late")
        if memory:
            self.registry.register_memory(
                MemoryBrick(brick_id, module_count=1, module_bytes=gib(4)),
                rack_id=rack)
            return
        kernel = BaremetalKernel(
            ComputeBrick(brick_id, core_count=8, local_memory_bytes=gib(1)),
            section_bytes=SECTION)
        self.registry.register_compute(kernel.brick, Hypervisor(kernel),
                                       SdmAgent(kernel), rack_id=rack)

    def _vm_op(self, op: str, vm_id: str, other: Hypervisor) -> None:
        hypervisor = self.vms[vm_id]
        if op == "terminate":
            del self.vms[vm_id]
            hypervisor.terminate_vm(vm_id)
        elif op == "hotplug":
            dimm, _latency = hypervisor.hotplug_dimm(vm_id, SECTION)
            self.dimms.append((hypervisor, vm_id, dimm.dimm_id))
        else:  # migrate: evict, then adopt on *other* (or back home)
            vm = hypervisor.vm(vm_id)
            vm.transition(VmState.PAUSED)
            vm, dimms = hypervisor.evict_vm(vm_id)
            try:
                other.adopt_vm(vm, dimms)
                self.vms[vm_id] = other
                self.dimms = [(other if v == vm_id else h, v, d)
                              for h, v, d in self.dimms]
            except ReproError:
                hypervisor.adopt_vm(vm, dimms)
            vm.transition(VmState.RUNNING)

    def mismatch(self, order) -> Optional[str]:
        """The first read, taken in *order*, that disagrees with its
        reference walk (``None`` when all four agree)."""
        registry = self.registry
        reads = (
            ("pod_load", registry.pod_load, reference_pod_load),
            ("compute_availability", registry.compute_availability,
             reference_compute),
            ("memory_availability", registry.memory_availability,
             reference_memory),
            ("fragmentation", self.pod.plane._fragmentation,
             reference_fragmentation),
        )
        for index in order:
            name, read, reference = reads[index]
            if read() != reference(registry):
                return name
        return None


def replay(first, tape) -> Optional[str]:
    """Run *tape* on a fresh pod, checking every read after every step;
    returns where the first disagreement happened, or ``None``."""
    pod = PodUnderTape()
    # Registration alone leaves the registry stale until a read.
    wrong = pod.mismatch(first)
    if wrong:
        return f"{wrong} after registration"
    for index, (op, a, b, order) in enumerate(tape):
        pod.apply(op, a, b)
        wrong = pod.mismatch(order)
        if wrong:
            return f"{wrong} after step {index} ({op})"
    return None


steps = st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 255),
                  st.integers(0, 255), st.sampled_from(READ_ORDERS))


@given(first=st.sampled_from(READ_ORDERS),
       tape=st.lists(steps, min_size=5, max_size=50))
# No explain phase: it replays a failing tape under a line tracer,
# which over a whole federation takes minutes and about a GiB.
@settings(max_examples=150, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_pod_status_reads_match_the_reference_walk(first, tape):
    # The replay reports a string rather than asserting inside: a
    # failing example's traceback then holds no pod, so shrinking
    # does not keep every federation it built alive.
    assert replay(first, tape) is None


# -- every component reports its own changes -------------------------------

def test_registration_installs_one_callback_per_brick():
    assert ResourceRegistry().pod_load() == PodLoad(0, 0, 0.0, 0.0)
    registry = PodUnderTape().registry
    for entry in registry.compute_entries:
        hypervisor = entry.hypervisor
        assert entry.brick.on_change is not None
        assert (entry.brick.on_change is hypervisor.on_change
                is hypervisor.kernel.on_change)
    for entry in registry.memory_entries:
        assert entry.brick.on_change is not None
        assert entry.brick.on_change is entry.allocator.on_change


def _counted(component) -> list:
    calls: list = []
    component.on_change = lambda: calls.append(1)
    return calls


def test_every_mutator_fires_its_component_callback():
    """Each component calls its change callback itself, so no brick
    change relies on a neighbouring component happening to report."""
    allocator = SegmentAllocator(4 * SECTION, alignment=SECTION)
    calls = _counted(allocator)
    offset = allocator.allocate(SECTION)
    allocator.free(offset)
    assert len(calls) == 2

    brick = ComputeBrick("cb", core_count=8, local_memory_bytes=4 * SECTION)
    calls = _counted(brick)
    brick.power_off()
    brick.power_off()  # already off: no change, no call
    brick.power_on()
    assert len(calls) == 2

    kernel = BaremetalKernel(brick, section_bytes=SECTION)
    calls = _counted(kernel)
    kernel.reserve_ram(SECTION)
    kernel.release_ram(SECTION)
    kernel.attach_segment(RemoteSegment("s", "mb", 0, SECTION, "cb"))
    kernel.detach_segment("s")
    assert len(calls) == 4

    hypervisor = Hypervisor(kernel)
    calls = _counted(hypervisor)
    kernel.on_change = None  # only the hypervisor's own reports count
    vm, _latency = hypervisor.spawn_vm("vm", 2, SECTION)
    vm.transition(VmState.PAUSED)
    vm, dimms = hypervisor.evict_vm("vm")
    hypervisor.adopt_vm(vm, dimms)
    hypervisor.terminate_vm("vm")
    assert len(calls) == 4


@pytest.mark.parametrize("flag", ["compute", "memory"])
def test_failed_flag_writes_go_through_the_registry(flag):
    """The injector's rack-unreachable path flips flags through the
    registry, so the next read already excludes the rack."""
    pod = PodUnderTape()
    registry = pod.registry
    rack = pod.racks[0]
    before = (registry.compute_availability()
              if flag == "compute" else registry.memory_availability())
    assert any(a.rack_id == rack for a in before)
    pod.injector.inject(FaultClass.RACK_UPLINK, f"pod0:{rack}",
                        repair_after_s=1.0)
    during = (registry.compute_availability()
              if flag == "compute" else registry.memory_availability())
    assert not any(a.rack_id == rack for a in during)
    pod.apply("advance", 0, 0)
    after = (registry.compute_availability()
             if flag == "compute" else registry.memory_availability())
    assert after == before
