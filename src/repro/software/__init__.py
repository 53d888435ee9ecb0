"""Disaggregation system software (§IV of the paper).

The control plane that lets "virtual machines and orchestration software
dynamically and safely request, attach and use remote memory on any given
dCOMPUBRICK":

* :mod:`repro.software.pages` / :mod:`repro.software.hotplug` — the
  baremetal OS layer: memory hotplug of whole windows, charged per
  section, as implemented for arm64 by the project (paper ref [12]).
* :mod:`repro.software.kernel` — the baremetal kernel view of a compute
  brick: physical map, hotplug, RAM accounting.
* :mod:`repro.software.vm` / :mod:`repro.software.hypervisor` — the
  virtualization layer: QEMU-style DIMM hotplug into running guests.
* :mod:`repro.software.balloon` — virtio-balloon-style elastic
  redistribution of guest memory.
* :mod:`repro.software.scaleup` — the Scale-up API and controller.
* :mod:`repro.software.agent` — the per-brick SDM Agent that applies
  configurations pushed by the SDM controller.
"""

from repro.software.agent import AgentTimings, SdmAgent
from repro.software.balloon import BalloonDriver
from repro.software.hotplug import HotplugTimings, MemoryHotplug
from repro.software.hypervisor import Hypervisor, HypervisorTimings, VirtualDimm
from repro.software.kernel import BaremetalKernel
from repro.software.pages import DEFAULT_SECTION_BYTES, SectionState
from repro.software.scaleup import ScaleUpController, ScaleUpRequest, ScaleUpResult
from repro.software.vm import VirtualMachine, VmState

__all__ = [
    "AgentTimings",
    "BalloonDriver",
    "BaremetalKernel",
    "DEFAULT_SECTION_BYTES",
    "HotplugTimings",
    "Hypervisor",
    "HypervisorTimings",
    "MemoryHotplug",
    "ScaleUpController",
    "ScaleUpRequest",
    "ScaleUpResult",
    "SdmAgent",
    "SectionState",
    "VirtualDimm",
    "VirtualMachine",
    "VmState",
]
