"""Declarative construction of disaggregated systems.

Two builders share the same assembly helpers:

* :class:`RackBuilder` — the paper's prototype: one rack behind one
  optical circuit switch.
* :class:`PodBuilder` — the next packaging tier: several racks, each
  with its own switch, trunked into an inter-rack
  :class:`~repro.fabric.pod.InterRackSwitch` and presented as one
  :class:`~repro.fabric.fabric.PodFabric`.

Both assemble every layer in dependency order: bricks into trays, trays
into racks, MBO channels into the optical fabric, kernels / hypervisors
/ agents / scale-up controllers onto compute bricks, segment allocators
onto memory bricks, and the SDM controller (sharded per rack) over it
all.

Example::

    system = (PodBuilder("pod0")
              .with_racks(4)
              .with_compute_bricks(4, cores=16, local_memory=gib(4))
              .with_memory_bricks(4, modules=4, module_size=gib(16))
              .build())
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.fabric import PodFabric
from repro.fabric.pod import DEFAULT_UPLINKS_PER_RACK, InterRackSwitch, Pod
from repro.hardware.bricks import (
    AcceleratorBrick,
    Brick,
    ComputeBrick,
    MemoryBrick,
)
from repro.hardware.rack import DEFAULT_FIBRE_PLAN, FibrePlan, Rack
from repro.hardware.tray import Tray
from repro.network.optical.switch import OpticalCircuitSwitch
from repro.network.optical.topology import OpticalFabric
from repro.orchestration.placement import PlacementPolicy
from repro.orchestration.registry import ResourceRegistry
from repro.orchestration.sdm_controller import SdmController, SdmTimings
from repro.orchestration.sharding import ShardedSdmController
from repro.software.agent import SdmAgent
from repro.software.hypervisor import Hypervisor
from repro.software.kernel import BaremetalKernel
from repro.software.pages import DEFAULT_SECTION_BYTES
from repro.software.scaleup import ScaleUpController
from repro.core.system import BrickStack, DisaggregatedSystem
from repro.units import gib


class _SystemBuilder:
    """Shared per-rack configuration knobs and assembly helpers."""

    def __init__(self) -> None:
        self._compute_count = 2
        self._compute_cores = 16
        self._compute_local_memory = gib(4)
        self._memory_count = 2
        self._memory_modules = 4
        self._module_size = gib(16)
        self._accel_count = 0
        self._tray_slots = 16
        self._section_bytes = DEFAULT_SECTION_BYTES
        self._policy: Optional[PlacementPolicy] = None
        self._sdm_timings: Optional[SdmTimings] = None
        self._cbn_ports = 8
        self._fibre_plan = DEFAULT_FIBRE_PLAN
        self._controller_shards: Optional[int] = None

    # -- configuration -----------------------------------------------------------

    def with_compute_bricks(self, count: int, cores: int = 16,
                            local_memory: int = gib(4)):
        """Set dCOMPUBRICK population per rack (count, APU cores, DDR)."""
        if count < 1:
            raise TopologyError("need at least one compute brick")
        self._compute_count = count
        self._compute_cores = cores
        self._compute_local_memory = local_memory
        return self

    def with_memory_bricks(self, count: int, modules: int = 4,
                           module_size: int = gib(16)):
        """Set dMEMBRICK population per rack (count, modules, size)."""
        if count < 1:
            raise TopologyError("need at least one memory brick")
        self._memory_count = count
        self._memory_modules = modules
        self._module_size = module_size
        return self

    def with_accelerator_bricks(self, count: int):
        """Set dACCELBRICK population per rack."""
        if count < 0:
            raise TopologyError("accelerator count must be >= 0")
        self._accel_count = count
        return self

    def with_tray_slots(self, slots: int):
        """Slots per tray (bricks are packed tray by tray)."""
        if slots < 1:
            raise ConfigurationError("tray needs >= 1 slot")
        self._tray_slots = slots
        return self

    def with_section_size(self, section_bytes: int):
        """Hotplug section granularity for every kernel."""
        self._section_bytes = section_bytes
        return self

    def with_policy(self, policy: PlacementPolicy):
        """Placement policy for the SDM controller."""
        self._policy = policy
        return self

    def with_sdm_timings(self, timings: SdmTimings):
        """Override SDM-C latency parameters."""
        self._sdm_timings = timings
        return self

    def with_cbn_ports(self, ports: int):
        """CBN transceivers (and MBO channels) per brick."""
        if ports < 1:
            raise ConfigurationError("bricks need >= 1 CBN port")
        self._cbn_ports = ports
        return self

    def with_fibre_plan(self, plan: FibrePlan):
        """Override the per-hop fibre run table."""
        self._fibre_plan = plan
        return self

    def with_controller_shards(self, count: Optional[int] = None):
        """Group the SDM-C's racks into *count* reservation shards.

        Every builder makes a :class:`~repro.orchestration.sharding.\
ShardedSdmController`; ``count=None`` (the default) gives it one shard
        per rack, and an explicit count groups racks round-robin into
        that many shards (``count=1`` is the centralized baseline).
        """
        if count is not None and count < 1:
            raise ConfigurationError(
                f"controller shard count must be >= 1, got {count}")
        self._controller_shards = count
        return self

    # -- shared assembly ---------------------------------------------------------

    def _bricks_per_rack(self) -> int:
        return self._compute_count + self._memory_count + self._accel_count

    def _default_switch_ports(self, extra: int = 8) -> int:
        # Size the switch to the fleet: every brick wants all its CBN
        # ports fibred, plus slack for multi-hop loopback patching (and,
        # at pod scale, the uplink trunk).
        return max(48, self._bricks_per_rack() * self._cbn_ports + extra)

    def _make_bricks(self, rack_id: str) -> list[Brick]:
        bricks: list[Brick] = []
        for index in range(self._compute_count):
            bricks.append(ComputeBrick(
                f"{rack_id}.cb{index}",
                core_count=self._compute_cores,
                local_memory_bytes=self._compute_local_memory,
                cbn_ports=self._cbn_ports,
            ))
        for index in range(self._memory_count):
            bricks.append(MemoryBrick(
                f"{rack_id}.mb{index}",
                module_count=self._memory_modules,
                module_bytes=self._module_size,
                cbn_ports=self._cbn_ports,
            ))
        for index in range(self._accel_count):
            bricks.append(AcceleratorBrick(
                f"{rack_id}.ab{index}",
                cbn_ports=self._cbn_ports,
            ))
        return bricks

    @staticmethod
    def _pack_trays(rack: Rack, bricks: list[Brick],
                    tray_slots: int) -> None:
        tray: Optional[Tray] = None
        for brick in bricks:
            if tray is None or not tray.free_slots:
                tray = rack.new_tray(slot_count=tray_slots)
            tray.plug(brick)

    def _sdm_kwargs(self) -> dict:
        kwargs = {}
        if self._policy is not None:
            kwargs["policy"] = self._policy
        if self._sdm_timings is not None:
            kwargs["timings"] = self._sdm_timings
        return kwargs

    def _make_controller(self, registry: ResourceRegistry,
                         fabric: OpticalFabric) -> ShardedSdmController:
        return ShardedSdmController(
            registry, fabric, shard_count=self._controller_shards,
            **self._sdm_kwargs())

    def _install_stacks(self, bricks: list[Brick],
                        registry: ResourceRegistry, sdm: SdmController,
                        stacks: dict[str, BrickStack],
                        rack_id: str = "") -> None:
        for brick in bricks:
            if isinstance(brick, ComputeBrick):
                kernel = BaremetalKernel(
                    brick, section_bytes=self._section_bytes)
                hypervisor = Hypervisor(kernel)
                agent = SdmAgent(kernel)
                scaleup = ScaleUpController(hypervisor, agent, sdm)
                registry.register_compute(brick, hypervisor, agent,
                                          rack_id=rack_id)
                stacks[brick.brick_id] = BrickStack(
                    brick, kernel, hypervisor, agent, scaleup)
            elif isinstance(brick, MemoryBrick):
                registry.register_memory(brick, rack_id=rack_id)


class RackBuilder(_SystemBuilder):
    """Fluent builder for a single-rack
    :class:`~repro.core.system.DisaggregatedSystem`."""

    def __init__(self, rack_id: str = "rack0") -> None:
        super().__init__()
        self.rack_id = rack_id
        self._switch: Optional[OpticalCircuitSwitch] = None

    def with_switch(self, switch: OpticalCircuitSwitch) -> "RackBuilder":
        """Use a specific optical switch module (e.g. next generation)."""
        self._switch = switch
        return self

    def build(self) -> DisaggregatedSystem:
        """Assemble and wire the full stack."""
        rack = Rack(self.rack_id, fibre_plan=self._fibre_plan)
        switch = self._switch or OpticalCircuitSwitch(
            f"{self.rack_id}.switch", port_count=self._default_switch_ports())
        fabric = OpticalFabric(
            switch, fibre_length_m=self._fibre_plan.intra_rack_m)
        registry = ResourceRegistry(segment_alignment=self._section_bytes)

        bricks = self._make_bricks(self.rack_id)
        self._pack_trays(rack, bricks, self._tray_slots)
        for brick in bricks:
            fabric.attach_brick(brick)

        sdm = self._make_controller(registry, fabric)
        stacks: dict[str, BrickStack] = {}
        self._install_stacks(bricks, registry, sdm, stacks,
                             rack_id=self.rack_id)
        return DisaggregatedSystem(rack, fabric, sdm, stacks)


class PodBuilder(_SystemBuilder):
    """Fluent builder for a multi-rack pod.

    Every rack gets the same brick population (the per-rack ``with_*``
    knobs); racks are trunked into the pod switch with a fixed uplink
    budget, and one SDM controller orchestrates the whole pod through a
    :class:`~repro.fabric.fabric.PodFabric`.
    """

    def __init__(self, pod_id: str = "pod0") -> None:
        super().__init__()
        self.pod_id = pod_id
        self._rack_count = 2
        self._uplinks_per_rack = DEFAULT_UPLINKS_PER_RACK
        self._pod_switch: Optional[InterRackSwitch] = None

    def with_racks(self, count: int) -> "PodBuilder":
        """Number of identically-populated racks in the pod."""
        if count < 1:
            raise TopologyError("a pod needs at least one rack")
        self._rack_count = count
        return self

    def with_uplinks(self, uplinks: int) -> "PodBuilder":
        """Uplink fibres from each rack switch to the pod switch."""
        if uplinks < 1:
            raise TopologyError("racks need >= 1 uplink")
        self._uplinks_per_rack = uplinks
        return self

    def with_pod_switch(self, switch: InterRackSwitch) -> "PodBuilder":
        """Use a specific inter-rack switch module."""
        self._pod_switch = switch
        return self

    def build(self) -> DisaggregatedSystem:
        """Assemble racks, trunk them, and wire one control plane."""
        pod_switch = self._pod_switch or InterRackSwitch(
            f"{self.pod_id}.switch",
            port_count=max(192,
                           self._rack_count * self._uplinks_per_rack + 8))
        pod = Pod(self.pod_id, switch=pod_switch,
                  fibre_plan=self._fibre_plan)
        registry = ResourceRegistry(segment_alignment=self._section_bytes)

        racks: list[Rack] = []
        rack_fabrics: dict[str, OpticalFabric] = {}
        bricks_by_rack: dict[str, list[Brick]] = {}
        for index in range(self._rack_count):
            rack = Rack(f"{self.pod_id}.rack{index}",
                        fibre_plan=self._fibre_plan)
            switch = OpticalCircuitSwitch(
                f"{rack.rack_id}.switch",
                port_count=self._default_switch_ports(
                    extra=8 + self._uplinks_per_rack))
            fabric = OpticalFabric(
                switch, fibre_length_m=self._fibre_plan.intra_rack_m)
            pod.add_rack(rack, switch, uplinks=self._uplinks_per_rack)
            bricks = self._make_bricks(rack.rack_id)
            self._pack_trays(rack, bricks, self._tray_slots)
            racks.append(rack)
            rack_fabrics[rack.rack_id] = fabric
            bricks_by_rack[rack.rack_id] = bricks

        pod_fabric = PodFabric(pod, rack_fabrics)
        for rack in racks:
            for brick in bricks_by_rack[rack.rack_id]:
                pod_fabric.attach_brick(brick)

        sdm = self._make_controller(registry, pod_fabric)
        stacks: dict[str, BrickStack] = {}
        for rack in racks:
            self._install_stacks(bricks_by_rack[rack.rack_id], registry,
                                 sdm, stacks, rack_id=rack.rack_id)
        return DisaggregatedSystem(racks, pod_fabric, sdm, stacks, pod=pod)
