"""Unit tests for the resource registry and placement policies."""

from __future__ import annotations

import pytest

from repro.errors import OrchestrationError
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.hardware.power import PowerState
from repro.orchestration.placement import (
    FirstFitPolicy,
    PowerAwarePackingPolicy,
    SpreadPolicy,
)
from repro.orchestration.registry import (
    ComputeAvailability,
    MemoryAvailability,
    ResourceRegistry,
)
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.units import gib, mib


def register_compute(registry, brick_id="cb0", cores=8):
    brick = ComputeBrick(brick_id, core_count=cores,
                         local_memory_bytes=gib(4))
    kernel = BaremetalKernel(brick)
    hypervisor = Hypervisor(kernel)
    agent = SdmAgent(kernel)
    registry.register_compute(brick, hypervisor, agent)
    return brick, hypervisor


class TestRegistry:
    def test_register_and_lookup(self):
        registry = ResourceRegistry()
        brick, _ = register_compute(registry)
        memory = MemoryBrick("mb0")
        registry.register_memory(memory)
        assert registry.compute("cb0").brick is brick
        assert registry.memory("mb0").brick is memory

    def test_duplicate_registration_rejected(self):
        registry = ResourceRegistry()
        brick, _hyp = register_compute(registry)
        kernel = BaremetalKernel(brick)
        with pytest.raises(OrchestrationError):
            registry.register_compute(brick, Hypervisor(kernel),
                                      SdmAgent(kernel))

    def test_unknown_lookup_rejected(self):
        registry = ResourceRegistry()
        with pytest.raises(OrchestrationError):
            registry.compute("ghost")
        with pytest.raises(OrchestrationError):
            registry.memory("ghost")

    def test_rack_ids_and_entries_are_sorted(self):
        registry = ResourceRegistry()
        for brick_id, rack in (("mb1", "r1"), ("mb0", "r1"), ("mb2", "r0")):
            registry.register_memory(MemoryBrick(brick_id), rack_id=rack)
        for brick_id, rack in (("cb1", "r0"), ("cb0", "r0"), ("cb2", "r2")):
            brick = ComputeBrick(brick_id, local_memory_bytes=gib(4))
            kernel = BaremetalKernel(brick)
            registry.register_compute(brick, Hypervisor(kernel),
                                      SdmAgent(kernel), rack_id=rack)
        assert registry.rack_ids() == ["r0", "r1", "r2"]
        memory, compute = registry.rack_entries("r0")
        assert [e.brick.brick_id for e in memory] == ["mb2"]
        assert [e.brick.brick_id for e in compute] == ["cb0", "cb1"]
        memory, compute = registry.rack_entries("r1")
        assert [e.brick.brick_id for e in memory] == ["mb0", "mb1"]
        assert compute == []

    def test_compute_availability_tracks_vms(self):
        registry = ResourceRegistry()
        _brick, hypervisor = register_compute(registry)
        (snapshot,) = registry.compute_availability()
        assert snapshot.free_cores == 8
        assert not snapshot.hosts_vms
        hypervisor.spawn_vm("vm-0", 3, gib(1))
        (snapshot,) = registry.compute_availability()
        assert snapshot.free_cores == 5
        assert snapshot.hosts_vms

    def test_memory_availability_tracks_allocations(self):
        registry = ResourceRegistry(segment_alignment=mib(128))
        registry.register_memory(MemoryBrick("mb0"))
        entry = registry.memory("mb0")
        entry.allocator.allocate(gib(16))
        (snapshot,) = registry.memory_availability()
        assert snapshot.utilization == pytest.approx(0.25)
        assert snapshot.free_bytes == gib(48)

    def test_memory_availability_is_fresh_after_every_change(self):
        registry = ResourceRegistry(segment_alignment=mib(128))
        memory = MemoryBrick("mb0")
        allocator = registry.register_memory(memory).allocator

        def snapshot():
            (only,) = registry.memory_availability()
            return only

        assert snapshot() is snapshot()  # unchanged brick: reused
        offset = allocator.allocate(gib(16))
        assert snapshot().free_bytes == gib(48)
        assert snapshot().largest_span_bytes == gib(48)
        allocator.allocate(gib(8))
        allocator.free(offset)
        after_free = snapshot()
        assert after_free.free_bytes == gib(56)
        assert after_free.largest_span_bytes == gib(40)
        assert after_free.utilization == pytest.approx(0.125)
        memory.power_off()
        assert not snapshot().powered
        memory.power_on()
        assert snapshot().powered
        assert snapshot().free_bytes == gib(56)

    def test_power_off_idle_bricks(self):
        registry = ResourceRegistry()
        _brick, hypervisor = register_compute(registry, "cb0")
        register_compute(registry, "cb1")
        registry.register_memory(MemoryBrick("mb0"))
        hypervisor.spawn_vm("vm-0", 1, gib(1))
        off = registry.power_off_idle_bricks()
        assert set(off) == {"cb1", "mb0"}
        assert registry.compute("cb0").brick.is_powered

    def test_ensure_powered(self):
        registry = ResourceRegistry()
        memory = MemoryBrick("mb0")
        registry.register_memory(memory)
        memory.power_off()
        assert registry.ensure_powered("mb0") is True
        assert memory.power_state is PowerState.IDLE
        assert registry.ensure_powered("mb0") is False
        with pytest.raises(OrchestrationError):
            registry.ensure_powered("ghost")


def mem(brick_id, free, span=None, utilization=0.0, powered=True,
        rack_id=""):
    return MemoryAvailability(brick_id=brick_id, free_bytes=free,
                              largest_span_bytes=span or free,
                              utilization=utilization, powered=powered,
                              rack_id=rack_id)


def comp(brick_id, cores, ram=gib(64), powered=True, hosts=False):
    return ComputeAvailability(brick_id=brick_id, free_cores=cores,
                               free_ram_bytes=ram, powered=powered,
                               hosts_vms=hosts)


class TestFirstFit:
    def test_takes_first_fitting(self):
        policy = FirstFitPolicy()
        picked = policy.select_memory_brick(
            [mem("a", gib(1)), mem("b", gib(8))], gib(4))
        assert picked == "b"

    def test_none_when_nothing_fits(self):
        policy = FirstFitPolicy()
        assert policy.select_memory_brick([mem("a", gib(1))], gib(4)) is None

    def test_compute_needs_both_dimensions(self):
        policy = FirstFitPolicy()
        candidates = [comp("a", cores=2, ram=gib(64)),
                      comp("b", cores=8, ram=gib(1)),
                      comp("c", cores=8, ram=gib(64))]
        assert policy.select_compute_brick(candidates, 4, gib(8)) == "c"


class TestPowerAwarePacking:
    def test_prefers_powered_bricks(self):
        policy = PowerAwarePackingPolicy()
        candidates = [mem("off", gib(64), powered=False),
                      mem("on", gib(64), powered=True)]
        assert policy.select_memory_brick(candidates, gib(1)) == "on"

    def test_packs_fullest_first(self):
        policy = PowerAwarePackingPolicy()
        candidates = [mem("empty", gib(64), utilization=0.0),
                      mem("half", gib(32), utilization=0.5)]
        assert policy.select_memory_brick(candidates, gib(1)) == "half"

    def test_wakes_sleeping_brick_as_last_resort(self):
        policy = PowerAwarePackingPolicy()
        candidates = [mem("off", gib(64), powered=False),
                      mem("on", gib(2), powered=True)]
        assert policy.select_memory_brick(candidates, gib(8)) == "off"

    def test_compute_colocates_with_vms(self):
        policy = PowerAwarePackingPolicy()
        candidates = [comp("idle", 8, hosts=False),
                      comp("busy", 8, hosts=True)]
        assert policy.select_compute_brick(candidates, 2, gib(1)) == "busy"

    def test_compute_tightest_core_fit(self):
        policy = PowerAwarePackingPolicy()
        candidates = [comp("loose", 8, hosts=True),
                      comp("tight", 3, hosts=True)]
        assert policy.select_compute_brick(candidates, 2, gib(1)) == "tight"

    def test_deterministic_tie_break(self):
        policy = PowerAwarePackingPolicy()
        candidates = [mem("b", gib(8)), mem("a", gib(8))]
        assert policy.select_memory_brick(candidates, gib(1)) == "a"

    def test_hot_brick_colocation(self):
        """The data-mover heat hint pulls new segments onto the brick
        already serving hot segments (within a distance tier)."""
        policy = PowerAwarePackingPolicy()
        candidates = [mem("cold", gib(32), utilization=0.5),
                      mem("warm", gib(64), utilization=0.0)]
        assert policy.select_memory_brick(candidates, gib(1)) == "cold"
        policy.note_hot_brick("warm")
        assert policy.select_memory_brick(candidates, gib(1)) == "warm"
        assert policy.hot_bricks == frozenset({"warm"})
        policy.clear_hot_bricks()
        assert policy.select_memory_brick(candidates, gib(1)) == "cold"

    def test_hot_colocation_can_be_disabled(self):
        policy = PowerAwarePackingPolicy(colocate_hot=False)
        policy.note_hot_brick("warm")
        candidates = [mem("cold", gib(32), utilization=0.5),
                      mem("warm", gib(64), utilization=0.0)]
        assert policy.select_memory_brick(candidates, gib(1)) == "cold"

    def test_hot_hint_never_overrides_locality(self):
        """A hot brick across the pod switch still loses to a local one."""
        policy = PowerAwarePackingPolicy()
        policy.note_hot_brick("far")
        near = mem("near", gib(32), rack_id="rack0")
        far = mem("far", gib(64), rack_id="rack1")
        assert policy.select_memory_brick(
            [near, far], gib(1), origin_rack_id="rack0") == "near"


class TestSpread:
    def test_most_free_first(self):
        policy = SpreadPolicy()
        candidates = [mem("full-ish", gib(8)), mem("empty", gib(64))]
        assert policy.select_memory_brick(candidates, gib(1)) == "empty"

    def test_compute_most_cores_first(self):
        policy = SpreadPolicy()
        candidates = [comp("tight", 3), comp("loose", 8)]
        assert policy.select_compute_brick(candidates, 2, gib(1)) == "loose"

    def test_opposite_of_packing(self):
        packing = PowerAwarePackingPolicy()
        spread = SpreadPolicy()
        candidates = [mem("fuller", gib(8), utilization=0.9),
                      mem("emptier", gib(56), utilization=0.1)]
        assert (packing.select_memory_brick(candidates, gib(1))
                != spread.select_memory_brick(candidates, gib(1)))
