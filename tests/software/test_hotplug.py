"""Unit tests for the per-range hotplug state machine."""

from __future__ import annotations

import pytest

from repro.errors import HotplugError
from repro.software.hotplug import HotplugTimings, MemoryHotplug
from repro.software.pages import DEFAULT_SECTION_BYTES
from repro.units import gib, mib


class TestSectionSpan:
    def test_aligned_range(self):
        hotplug = MemoryHotplug(mib(128))
        assert hotplug.section_count(gib(1), mib(256)) == 2

    def test_misaligned_base_rejected(self):
        hotplug = MemoryHotplug(mib(128))
        with pytest.raises(HotplugError, match="not aligned"):
            hotplug.add_memory(mib(64), mib(128))
        assert hotplug.present_bytes() == 0

    def test_misaligned_size_rejected(self):
        hotplug = MemoryHotplug(mib(128))
        with pytest.raises(HotplugError, match="not aligned"):
            hotplug.add_memory(0, mib(100))
        assert hotplug.present_bytes() == 0


class TestOperations:
    @pytest.fixture
    def hotplug(self) -> MemoryHotplug:
        return MemoryHotplug(mib(128))

    def test_add_marks_present(self, hotplug):
        latency = hotplug.add_memory(0, mib(256))
        assert latency > 0
        assert hotplug.present_bytes() == mib(256)
        assert hotplug.online_bytes() == 0

    def test_add_twice_rejected_atomically(self, hotplug):
        hotplug.add_memory(0, mib(128))
        with pytest.raises(HotplugError, match="already"):
            hotplug.add_memory(0, mib(256))
        # Nothing of the second range was added.
        assert hotplug.present_bytes() == mib(128)
        with pytest.raises(HotplugError, match="not an added range"):
            hotplug.online(mib(128), mib(128))

    def test_online_full_flow(self, hotplug):
        hotplug.add_memory(0, mib(256))
        hotplug.online(0, mib(256))
        assert hotplug.online_bytes() == mib(256)

    def test_online_absent_rejected(self, hotplug):
        with pytest.raises(HotplugError, match="cannot online"):
            hotplug.online(0, mib(128))

    def test_offline_then_remove(self, hotplug):
        hotplug.add_memory(0, mib(128))
        hotplug.online(0, mib(128))
        hotplug.offline(0, mib(128))
        assert hotplug.online_bytes() == 0
        hotplug.remove_memory(0, mib(128))
        assert hotplug.present_bytes() == 0

    def test_remove_online_rejected(self, hotplug):
        hotplug.add_memory(0, mib(128))
        hotplug.online(0, mib(128))
        with pytest.raises(HotplugError, match="offline it first"):
            hotplug.remove_memory(0, mib(128))

    def test_offline_not_online_rejected(self, hotplug):
        hotplug.add_memory(0, mib(128))
        with pytest.raises(HotplugError):
            hotplug.offline(0, mib(128))

    def test_operations_counter(self, hotplug):
        hotplug.add_memory(0, mib(128))
        hotplug.online(0, mib(128))
        assert hotplug.operations == 2

    def test_detached_and_untouched_sections_are_not_stored(self, hotplug):
        for cycle in range(1000):
            base = cycle * mib(256)
            hotplug.add_memory(base, mib(256))
            hotplug.online(base, mib(256))
            hotplug.offline(base, mib(256))
            hotplug.remove_memory(base, mib(256))
        assert hotplug.present_bytes() == 0
        assert hotplug.online_bytes() == 0
        # No range remains: one range over every window adds cleanly.
        hotplug.add_memory(0, 1000 * mib(256))

    @pytest.mark.parametrize("operation, base, size", [
        ("online", 0, mib(128)),
        ("online", mib(128), mib(128)),
        ("online", 0, mib(512)),
        ("add_memory", mib(128), mib(256)),
    ])
    def test_part_of_an_added_range_is_refused(self, hotplug, operation,
                                               base, size):
        hotplug.add_memory(0, mib(256))
        before = (hotplug.operations, hotplug.present_bytes(),
                  hotplug.online_bytes())
        with pytest.raises(HotplugError):
            getattr(hotplug, operation)(base, size)
        assert (hotplug.operations, hotplug.present_bytes(),
                hotplug.online_bytes()) == before
        # The whole range still moves as one.
        hotplug.online(0, mib(256))
        assert hotplug.online_bytes() == mib(256)


class TestLatencyModel:
    def test_latency_scales_with_sections(self):
        hotplug = MemoryHotplug(mib(128))
        one = hotplug.add_memory(0, mib(128))
        eight = hotplug.add_memory(gib(1), gib(1))
        overhead = hotplug.timings.operation_overhead_s
        assert (eight - overhead) == pytest.approx(8 * (one - overhead))

    def test_offline_slower_than_online(self):
        timings = HotplugTimings()
        assert timings.offline_per_section_s > timings.online_per_section_s

    def test_bigger_sections_fewer_operations(self):
        small = MemoryHotplug(mib(128))
        large = MemoryHotplug(gib(1))
        small_latency = small.add_memory(0, gib(2)) + small.online(0, gib(2))
        large_latency = large.add_memory(0, gib(2)) + large.online(0, gib(2))
        # 1 GiB sections cover the range with 8x fewer sections.
        assert large_latency < small_latency

    def test_custom_timings_respected(self):
        timings = HotplugTimings(add_per_section_s=1.0,
                                 operation_overhead_s=0.0)
        hotplug = MemoryHotplug(mib(128), timings)
        assert hotplug.add_memory(0, mib(256)) == pytest.approx(2.0)

    def test_default_section_size(self):
        assert MemoryHotplug().section_bytes == DEFAULT_SECTION_BYTES
