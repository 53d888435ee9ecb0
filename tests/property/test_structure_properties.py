"""Property-based tests for RMST, address map, hotplug and BER physics."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SegmentTableError
from repro.hardware.rmst import RemoteMemorySegmentTable, SegmentEntry
from repro.memory.address import AddressRange, PhysicalAddressMap, align_up
from repro.network.optical.ber import ReceiverModel, ber_for_q, q_for_ber
from repro.software.hotplug import MemoryHotplug
from repro.units import mib

MIB = 1 << 20


# ---------------------------------------------------------------------------
# RMST
# ---------------------------------------------------------------------------

segments = st.builds(
    lambda index, base, size: SegmentEntry(
        f"seg-{index}", base * MIB, size * MIB, "mb0", 0, "cb0.cbn0"),
    index=st.integers(0, 1000),
    base=st.integers(0, 512),
    size=st.integers(1, 64),
)


@given(st.lists(segments, max_size=12))
@settings(max_examples=200)
def test_rmst_never_holds_overlapping_entries(entries):
    table = RemoteMemorySegmentTable(capacity=32)
    for entry in entries:
        try:
            table.install(entry)
        except SegmentTableError:
            continue
    installed = list(table)
    for i, first in enumerate(installed):
        for second in installed[i + 1:]:
            assert not first.overlaps(second)


@given(st.lists(segments, max_size=12), st.integers(0, 600 * MIB))
@settings(max_examples=200)
def test_rmst_lookup_agrees_with_containment(entries, address):
    table = RemoteMemorySegmentTable(capacity=32)
    for entry in entries:
        try:
            table.install(entry)
        except SegmentTableError:
            continue
    hit = table.lookup_or_none(address)
    containing = [e for e in table if e.contains(address)]
    if hit is None:
        assert containing == []
    else:
        assert containing == [hit]
        # Translation stays inside the remote span.
        remote = hit.translate(address)
        assert hit.remote_offset <= remote < hit.remote_offset + hit.size


# ---------------------------------------------------------------------------
# Address map
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(1, 48 * MIB), min_size=1, max_size=10),
       st.sampled_from([MIB, 2 * MIB, 16 * MIB]))
@settings(max_examples=200)
def test_address_map_windows_disjoint_and_aligned(sizes, alignment):
    pmap = PhysicalAddressMap(64 * MIB, window_alignment=alignment)
    for index, size in enumerate(sizes):
        pmap.map_window(f"w{index}", size)
    windows = sorted(pmap.remote_windows.values())
    for window in windows:
        assert window.base % alignment == 0
        assert window.size % alignment == 0
        assert window.base >= pmap.local_window.end
    for first, second in zip(windows, windows[1:]):
        assert first.end <= second.base


@given(st.integers(1, 10**9), st.sampled_from([1, 4096, MIB]))
def test_align_up_properties(value, alignment):
    aligned = align_up(value, alignment)
    assert aligned >= value
    assert aligned % alignment == 0
    assert aligned - value < alignment


@given(st.integers(0, 2**40), st.integers(1, 2**32))
def test_address_range_contains_iff_offset_valid(base, size):
    r = AddressRange(base, size)
    assert r.contains(base)
    assert not r.contains(base + size)
    assert r.offset_of(base) == 0


# ---------------------------------------------------------------------------
# Hotplug
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 31), st.integers(1, 8)),
                min_size=1, max_size=10))
@settings(max_examples=150)
def test_hotplug_online_bytes_never_exceed_present(operations):
    hotplug = MemoryHotplug(mib(128))
    for start, count in operations:
        base = start * mib(128)
        size = count * mib(128)
        try:
            hotplug.add_memory(base, size)
            hotplug.online(base, size)
        except Exception:
            continue
        assert hotplug.online_bytes() <= hotplug.present_bytes()


@given(st.integers(1, 16))
def test_hotplug_roundtrip_is_identity(section_count):
    hotplug = MemoryHotplug(mib(128))
    size = section_count * mib(128)
    hotplug.add_memory(0, size)
    hotplug.online(0, size)
    hotplug.offline(0, size)
    hotplug.remove_memory(0, size)
    assert hotplug.present_bytes() == 0
    assert hotplug.online_bytes() == 0


# ---------------------------------------------------------------------------
# BER physics
# ---------------------------------------------------------------------------

@given(st.floats(1e-15, 1e-3))
def test_q_ber_roundtrip(ber):
    assert ber_for_q(q_for_ber(ber)) == pytest.approx(ber, rel=1e-6)


@given(st.floats(-30.0, 0.0), st.floats(-30.0, 0.0))
def test_ber_monotone_nonincreasing_in_power(power_a, power_b):
    assume(abs(power_a - power_b) > 1e-9)
    receiver = ReceiverModel(sensitivity_dbm=-15.0)
    low, high = sorted((power_a, power_b))
    assert receiver.ber(high) <= receiver.ber(low)


@given(st.floats(-20.0, -5.0))
def test_required_power_is_exact_inverse(sensitivity):
    receiver = ReceiverModel(sensitivity_dbm=sensitivity)
    for target in (1e-9, 1e-12, 1e-15):
        power = receiver.required_power_dbm(target)
        assert receiver.ber(power) == pytest.approx(target, rel=1e-6)
