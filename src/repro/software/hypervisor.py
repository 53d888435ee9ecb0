"""Type-1 hypervisor with memory hotplug (the QEMU layer of §IV.B).

"At the virtualization layer, we have developed appropriate memory
hotplug support scheme for the QEMU hypervisor.  The implementation adds
new RAM DIMMs, at runtime, and makes them available to the guest OS."

The model hosts VMs on one compute brick, admission-checks their memory
against the baremetal kernel's accounting, and implements runtime DIMM
attach: hypervisor-side device add (fixed cost) followed by guest-side
onlining (the guest's hotplug machinery).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import HypervisorError
from repro.software.kernel import BaremetalKernel
from repro.software.vm import VirtualMachine, VmState
from repro.units import milliseconds


@dataclass(frozen=True)
class HypervisorTimings:
    """Latency parameters of hypervisor operations."""

    #: QEMU device_add of a pc-dimm + ACPI notify to the guest.
    dimm_attach_s: float = milliseconds(50)
    #: device_del + guest eject handshake.
    dimm_detach_s: float = milliseconds(80)
    #: Fixed VM spawn overhead *on an already-running hypervisor* (the
    #: conventional-cloud spawn path is far slower and modelled in the
    #: Fig. 10 baseline, not here).
    vm_spawn_s: float = milliseconds(900)


DEFAULT_HYPERVISOR_TIMINGS = HypervisorTimings()

#: QEMU limits the number of hotpluggable memory slots per machine.
DEFAULT_DIMM_SLOTS = 32


@dataclass
class VirtualDimm:
    """One hotplugged memory device backing part of a guest."""

    dimm_id: str
    vm_id: str
    size_bytes: int
    #: The remote segment backing this DIMM ("" = local DRAM).
    segment_id: str = ""


class Hypervisor:
    """The Type-1 hypervisor instance on one compute brick."""

    def __init__(self, kernel: BaremetalKernel,
                 timings: HypervisorTimings = DEFAULT_HYPERVISOR_TIMINGS,
                 dimm_slots: int = DEFAULT_DIMM_SLOTS) -> None:
        if dimm_slots < 1:
            raise HypervisorError("need at least one DIMM slot")
        self.kernel = kernel
        self.timings = timings
        self.dimm_slots = dimm_slots
        self._vms: dict[str, VirtualMachine] = {}
        self._dimms: dict[str, list[VirtualDimm]] = {}
        self._dimm_ids = itertools.count()
        # Hosted-core count, maintained at the four membership changes
        # (spawn/terminate/evict/adopt) — vCPU counts never change after
        # spawn, so the admission checks and availability snapshots stay
        # O(1) per query.
        self._cores_in_use = 0
        #: Called after each of those four changes (``None`` when
        #: unwatched).
        self.on_change: Optional[Callable[[], None]] = None

    @property
    def brick_id(self) -> str:
        return self.kernel.brick.brick_id

    # -- VM lifecycle -------------------------------------------------------------

    @property
    def vms(self) -> list[VirtualMachine]:
        return list(self._vms.values())

    @property
    def vm_count(self) -> int:
        return len(self._vms)

    def vm(self, vm_id: str) -> VirtualMachine:
        try:
            return self._vms[vm_id]
        except KeyError:
            raise HypervisorError(
                f"hypervisor on {self.brick_id} hosts no VM {vm_id!r}") from None

    def spawn_vm(self, vm_id: str, vcpus: int,
                 ram_bytes: int) -> tuple[VirtualMachine, float]:
        """Create and start a VM; returns it and the spawn latency.

        Admission control: vCPUs against the brick's cores (shared with
        already-running VMs) and RAM against the kernel's availability.
        """
        if vm_id in self._vms:
            raise HypervisorError(f"VM id {vm_id!r} already in use")
        cores_in_use = self._cores_in_use
        if cores_in_use + vcpus > self.kernel.brick.core_count:
            raise HypervisorError(
                f"brick {self.brick_id} has {self.kernel.brick.core_count} "
                f"cores; {cores_in_use} in use, cannot add {vcpus}")
        self.kernel.reserve_ram(ram_bytes)
        vm = VirtualMachine(vm_id, vcpus, ram_bytes)
        self._vms[vm_id] = vm
        self._dimms[vm_id] = []
        self._cores_in_use += vcpus
        vm.start()
        if self.on_change is not None:
            self.on_change()
        return vm, self.timings.vm_spawn_s

    def terminate_vm(self, vm_id: str) -> None:
        """Tear a VM down and release all its memory reservations."""
        vm = self.vm(vm_id)
        if vm.state is not VmState.TERMINATED:
            vm.terminate()
        self.kernel.release_ram(vm.configured_ram_bytes)
        del self._vms[vm_id]
        del self._dimms[vm_id]
        self._cores_in_use -= vm.vcpus
        if self.on_change is not None:
            self.on_change()

    # -- DIMM hotplug --------------------------------------------------------------

    def dimms_of(self, vm_id: str) -> list[VirtualDimm]:
        self.vm(vm_id)
        return list(self._dimms[vm_id])

    def hotplug_dimm(self, vm_id: str, size_bytes: int,
                     segment_id: str = "") -> tuple[VirtualDimm, float]:
        """Attach a DIMM to a running VM; returns it and the latency.

        The latency is the hypervisor device-add cost plus the guest
        kernel's add+online of the new range — the §IV.B flow.
        """
        vm = self.vm(vm_id)
        if len(self._dimms[vm_id]) >= self.dimm_slots:
            raise HypervisorError(
                f"VM {vm_id} has exhausted its {self.dimm_slots} DIMM slots")
        self.kernel.reserve_ram(size_bytes)
        latency = self.timings.dimm_attach_s
        try:
            latency += vm.accept_dimm(size_bytes)
        except Exception:
            self.kernel.release_ram(size_bytes)
            raise
        # The id counter is per-hypervisor, but a migrated VM arrives
        # with DIMMs minted by *another* hypervisor's counter; skip any
        # colliding ids so unplug_dimm can never match the wrong device.
        taken = {d.dimm_id for d in self._dimms[vm_id]}
        dimm_id = f"{vm_id}.dimm{next(self._dimm_ids)}"
        while dimm_id in taken:
            dimm_id = f"{vm_id}.dimm{next(self._dimm_ids)}"
        dimm = VirtualDimm(
            dimm_id=dimm_id,
            vm_id=vm_id,
            size_bytes=size_bytes,
            segment_id=segment_id,
        )
        self._dimms[vm_id].append(dimm)
        return dimm, latency

    def unplug_dimm(self, vm_id: str, dimm_id: str) -> float:
        """Detach a DIMM from a running VM; returns the latency."""
        vm = self.vm(vm_id)
        dimms = self._dimms[vm_id]
        match = next((d for d in dimms if d.dimm_id == dimm_id), None)
        if match is None:
            raise HypervisorError(f"VM {vm_id} has no DIMM {dimm_id!r}")
        vm.surrender_ram(match.size_bytes)
        self.kernel.release_ram(match.size_bytes)
        dimms.remove(match)
        return self.timings.dimm_detach_s

    # -- the guest data path ---------------------------------------------------------

    def guest_read(self, vm_id: str, address: int, size_bytes: int = 64):
        """A guest load hitting remote memory, routed via the data mover.

        The VM must be running; *address* is a brick physical address
        inside one of the kernel's attached segment windows (the RMST
        rejects anything else).  Returns the mover's access result.
        """
        vm = self.vm(vm_id)
        if vm.state is not VmState.RUNNING:
            raise HypervisorError(
                f"VM {vm_id} is not running (state: {vm.state.value})")
        return self.kernel.remote_read(address, size_bytes)

    def guest_write(self, vm_id: str, address: int, size_bytes: int = 64):
        """A guest store hitting remote memory, routed via the data mover."""
        vm = self.vm(vm_id)
        if vm.state is not VmState.RUNNING:
            raise HypervisorError(
                f"VM {vm_id} is not running (state: {vm.state.value})")
        return self.kernel.remote_write(address, size_bytes)

    # -- migration support ----------------------------------------------------------

    def evict_vm(self, vm_id: str) -> tuple[VirtualMachine, list[VirtualDimm]]:
        """Hand a (paused) VM off for migration.

        Releases this hypervisor's core and RAM accounting but does NOT
        terminate the guest — the receiving hypervisor re-adopts the
        same :class:`VirtualMachine` object, preserving its configured
        memory and DIMM topology.
        """
        vm = self.vm(vm_id)
        if vm.state is not VmState.PAUSED:
            raise HypervisorError(
                f"VM {vm_id} must be paused before migration "
                f"(state: {vm.state.value})")
        dimms = self._dimms[vm_id]
        self.kernel.release_ram(vm.configured_ram_bytes)
        del self._vms[vm_id]
        del self._dimms[vm_id]
        self._cores_in_use -= vm.vcpus
        if self.on_change is not None:
            self.on_change()
        return vm, dimms

    def adopt_vm(self, vm: VirtualMachine,
                 dimms: Optional[list[VirtualDimm]] = None) -> None:
        """Receive a migrated VM (still paused; caller resumes it).

        Admission-checks cores and RAM exactly like :meth:`spawn_vm`.
        """
        if vm.vm_id in self._vms:
            raise HypervisorError(f"VM id {vm.vm_id!r} already in use")
        if vm.state is not VmState.PAUSED:
            raise HypervisorError(
                f"only paused VMs can be adopted (state: {vm.state.value})")
        cores_in_use = self._cores_in_use
        if cores_in_use + vm.vcpus > self.kernel.brick.core_count:
            raise HypervisorError(
                f"brick {self.brick_id} lacks {vm.vcpus} free cores for "
                f"incoming VM {vm.vm_id}")
        self.kernel.reserve_ram(vm.configured_ram_bytes)
        self._vms[vm.vm_id] = vm
        self._dimms[vm.vm_id] = list(dimms or [])
        self._cores_in_use += vm.vcpus
        if self.on_change is not None:
            self.on_change()

    # -- accounting ---------------------------------------------------------------------

    def cores_in_use(self) -> int:
        return self._cores_in_use

    def guest_ram_bytes(self) -> int:
        """Total RAM configured into live guests."""
        return sum(v.configured_ram_bytes for v in self._vms.values()
                   if v.state is not VmState.TERMINATED)

    def __repr__(self) -> str:
        return (f"Hypervisor({self.brick_id!r}, {len(self._vms)} VMs, "
                f"{self.cores_in_use()}/{self.kernel.brick.core_count} cores)")
