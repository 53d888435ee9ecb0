"""Unit tests for the rack builder."""

from __future__ import annotations

import pytest

from repro.core.builder import PodBuilder, RackBuilder
from repro.errors import ConfigurationError, TopologyError
from repro.network.optical.switch import OpticalCircuitSwitch
from repro.orchestration.placement import SpreadPolicy
from repro.orchestration.sdm_controller import SdmTimings
from repro.orchestration.sharding import ShardedSdmController
from repro.units import gib


class TestBuild:
    def test_counts(self):
        system = (RackBuilder("r")
                  .with_compute_bricks(3)
                  .with_memory_bricks(2)
                  .with_accelerator_bricks(1)
                  .build())
        assert len(system.compute_bricks) == 3
        assert len(system.memory_bricks) == 2
        assert len(system.accelerator_bricks) == 1

    def test_every_brick_attached_to_fabric(self):
        system = RackBuilder("r").with_compute_bricks(2).build()
        for brick in system.rack.bricks():
            assert system.fabric.is_attached(brick)

    def test_stacks_wired_per_compute_brick(self):
        system = RackBuilder("r").with_compute_bricks(2).build()
        for stack in system.stacks:
            assert stack.hypervisor.kernel is stack.kernel
            assert stack.agent.kernel is stack.kernel
            assert stack.scaleup.allocator is system.sdm

    def test_registry_covers_all_bricks(self):
        system = (RackBuilder("r")
                  .with_compute_bricks(2)
                  .with_memory_bricks(3)
                  .build())
        assert len(system.sdm.registry.compute_entries) == 2
        assert len(system.sdm.registry.memory_entries) == 3

    def test_tray_packing(self):
        system = (RackBuilder("r")
                  .with_compute_bricks(3)
                  .with_memory_bricks(3)
                  .with_tray_slots(4)
                  .build())
        assert len(system.rack.trays) == 2

    def test_switch_auto_sized_for_fleet(self):
        system = (RackBuilder("r")
                  .with_compute_bricks(8)
                  .with_memory_bricks(8)
                  .build())
        assert system.fabric.switch.port_count >= 16 * 8

    def test_custom_switch(self):
        switch = OpticalCircuitSwitch.next_generation("gen2")
        system = (RackBuilder("r")
                  .with_compute_bricks(1)
                  .with_memory_bricks(1)
                  .with_cbn_ports(4)
                  .with_switch(switch)
                  .build())
        assert system.fabric.switch is switch

    def test_custom_policy_and_timings(self):
        policy = SpreadPolicy()
        timings = SdmTimings(reservation_s=0.001)
        system = (RackBuilder("r")
                  .with_policy(policy)
                  .with_sdm_timings(timings)
                  .build())
        assert system.sdm.policy is policy
        assert system.sdm.timings.reservation_s == 0.001

    def test_section_size_propagates(self):
        system = (RackBuilder("r")
                  .with_section_size(gib(1))
                  .build())
        for stack in system.stacks:
            assert stack.kernel.hotplug.section_bytes == gib(1)
        assert system.sdm.registry.segment_alignment == gib(1)

    def test_core_and_memory_dimensions(self):
        system = (RackBuilder("r")
                  .with_compute_bricks(1, cores=32, local_memory=gib(8))
                  .with_memory_bricks(1, modules=8, module_size=gib(8))
                  .build())
        assert system.compute_bricks[0].core_count == 32
        assert system.memory_bricks[0].capacity_bytes == gib(64)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RackBuilder("r").with_compute_bricks(0)
        with pytest.raises(ConfigurationError):
            RackBuilder("r").with_memory_bricks(0)
        with pytest.raises(ConfigurationError):
            RackBuilder("r").with_accelerator_bricks(-1)
        with pytest.raises(ConfigurationError):
            RackBuilder("r").with_tray_slots(0)
        with pytest.raises(ConfigurationError):
            RackBuilder("r").with_cbn_ports(0)


class TestController:
    """Every builder makes the per-rack sharded SDM-C; sharding is not
    something a caller has to ask for."""

    def test_rack_builder_makes_one_shard(self):
        sdm = RackBuilder("r").build().sdm
        assert isinstance(sdm, ShardedSdmController)
        assert sdm.shard_members() == {"shard0": ["r"]}

    def test_pod_builder_makes_one_shard_per_rack(self):
        sdm = PodBuilder("p").with_racks(3).build().sdm
        assert isinstance(sdm, ShardedSdmController)
        assert sdm.shard_members() == {"shard0": ["p.rack0"],
                                       "shard1": ["p.rack1"],
                                       "shard2": ["p.rack2"]}


class TestTopologyErrors:
    """Impossible rack/brick counts raise the typed TopologyError (a
    ConfigurationError subclass, so legacy except-clauses still catch)."""

    def test_impossible_brick_counts_are_topology_errors(self):
        with pytest.raises(TopologyError):
            RackBuilder("r").with_compute_bricks(0)
        with pytest.raises(TopologyError):
            RackBuilder("r").with_memory_bricks(-1)
        with pytest.raises(TopologyError):
            RackBuilder("r").with_accelerator_bricks(-1)

    def test_impossible_pod_shapes_are_topology_errors(self):
        with pytest.raises(TopologyError):
            PodBuilder("p").with_racks(0)
        with pytest.raises(TopologyError):
            PodBuilder("p").with_uplinks(0)

    def test_topology_error_subclasses_configuration_error(self):
        assert issubclass(TopologyError, ConfigurationError)

    def test_non_shape_validation_stays_plain_configuration_error(self):
        # Tray slots and CBN ports are rack-internal plumbing, not
        # topology shape: they keep the untyped error.
        for bad_call in (lambda: RackBuilder("r").with_tray_slots(0),
                         lambda: RackBuilder("r").with_cbn_ports(0)):
            with pytest.raises(ConfigurationError) as excinfo:
                bad_call()
            assert not isinstance(excinfo.value, TopologyError)
