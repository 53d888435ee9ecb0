"""Shared fixtures for the test suite, and its hypothesis profiles.

The tier-1 gate runs the ``gate`` profile: examples are derived from
each test, not drawn at random, and no example database is read or
written, so two runs check the same examples.  ``search`` draws fresh
random examples; select it with ``--hypothesis-profile=search``.
Neither profile changes any test's ``max_examples``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.builder import RackBuilder
from repro.hardware.bricks import ComputeBrick, MemoryBrick
from repro.network.optical.topology import OpticalFabric
from repro.orchestration.requests import VmAllocationRequest
from repro.sim.engine import Simulator
from repro.units import gib

settings.register_profile("gate", derandomize=True, database=None)
settings.register_profile("search", derandomize=False)
settings.load_profile("gate")


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def compute_brick() -> ComputeBrick:
    """A default dCOMPUBRICK."""
    return ComputeBrick("cb0")


@pytest.fixture
def memory_brick() -> MemoryBrick:
    """A default dMEMBRICK (4 x 16 GiB DDR4)."""
    return MemoryBrick("mb0")


@pytest.fixture
def fabric(compute_brick: ComputeBrick,
           memory_brick: MemoryBrick) -> OpticalFabric:
    """An optical fabric with both bricks attached."""
    fab = OpticalFabric()
    fab.attach_brick(compute_brick)
    fab.attach_brick(memory_brick)
    return fab


@pytest.fixture
def small_system():
    """A small but complete disaggregated rack."""
    return (RackBuilder("test-rack")
            .with_compute_bricks(2, cores=8, local_memory=gib(2))
            .with_memory_bricks(2, modules=2, module_size=gib(8))
            .with_accelerator_bricks(1)
            .build())


@pytest.fixture
def system_with_vm(small_system):
    """The small rack with one 4 GiB VM booted (needs remote memory)."""
    small_system.boot_vm(
        VmAllocationRequest("vm-0", vcpus=2, ram_bytes=gib(4)))
    return small_system
