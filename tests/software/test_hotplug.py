"""Unit tests for memory sections and the hotplug state machine."""

from __future__ import annotations

import pytest

from repro.errors import HotplugError
from repro.software.hotplug import HotplugTimings, MemoryHotplug
from repro.software.pages import (
    DEFAULT_SECTION_BYTES,
    MemorySection,
    SectionState,
)
from repro.units import gib, mib


class TestMemorySection:
    def test_lifecycle(self):
        section = MemorySection(0)
        section.transition(SectionState.PRESENT)
        section.transition(SectionState.ONLINE)
        assert section.is_online
        section.transition(SectionState.PRESENT)
        section.transition(SectionState.ABSENT)

    def test_absent_to_online_illegal(self):
        with pytest.raises(HotplugError, match="illegal"):
            MemorySection(0).transition(SectionState.ONLINE)

    def test_online_to_absent_illegal(self):
        section = MemorySection(0, state=SectionState.ONLINE)
        with pytest.raises(HotplugError):
            section.transition(SectionState.ABSENT)

    def test_base_address(self):
        section = MemorySection(3, section_bytes=mib(128))
        assert section.base_address == 3 * mib(128)

    def test_negative_index_rejected(self):
        with pytest.raises(HotplugError):
            MemorySection(-1)


class TestSectionSpan:
    def test_aligned_range(self):
        hotplug = MemoryHotplug(mib(128))
        span = hotplug.section_span(gib(1), mib(256))
        assert list(span) == [8, 9]

    def test_misaligned_base_rejected(self):
        hotplug = MemoryHotplug(mib(128))
        with pytest.raises(HotplugError, match="not aligned"):
            hotplug.section_span(mib(64), mib(128))

    def test_misaligned_size_rejected(self):
        hotplug = MemoryHotplug(mib(128))
        with pytest.raises(HotplugError, match="not aligned"):
            hotplug.section_span(0, mib(100))


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
        # Nothing of the second range was touched.
        assert hotplug.section(1).state is SectionState.ABSENT

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
        assert hotplug.section(5000).state is SectionState.ABSENT
        assert not any(hotplug.sections_in_state(state)
                       for state in SectionState)

    def test_sections_in_state(self, hotplug):
        hotplug.add_memory(0, mib(256))
        hotplug.online(0, mib(128))
        assert len(hotplug.sections_in_state(SectionState.ONLINE)) == 1
        assert len(hotplug.sections_in_state(SectionState.PRESENT)) == 1


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
