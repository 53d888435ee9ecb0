"""Unit and property tests for the kernel's pending-event queue.

The determinism contract: the queue serves the total order
``(time, sequence)`` and counts its pending entries.  The property
tests replay randomized op tapes (pushes, pops, horizon pops) against
:class:`HeapEventQueue` and against a sorted-list reference that
states the contract directly, and require identical histories.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.queues import HeapEventQueue


class _Token:
    """Stand-in event: the queue stores it and never looks inside."""

    __slots__ = ()


def _drain(queue):
    entries = []
    while True:
        entry = queue.pop()
        if entry is None:
            break
        entries.append(entry[:2])
    return entries


@pytest.fixture
def queue():
    return HeapEventQueue()


class TestBackendContract:
    def test_pop_empty_returns_none(self, queue):
        assert queue.pop() is None
        assert queue.pop_until(1e9) is None

    def test_peek_empty_is_infinite(self, queue):
        assert queue.peek() == math.inf

    def test_orders_by_time_then_sequence(self, queue):
        token = _Token()
        queue.push(2.0, 0, token)
        queue.push(1.0, 1, token)
        queue.push(1.0, 2, token)
        queue.push(1.0, 3, token)
        assert _drain(queue) == [(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 0)]

    def test_pop_until_respects_horizon(self, queue):
        token = _Token()
        queue.push(1.0, 0, token)
        queue.push(5.0, 1, token)
        assert queue.pop_until(2.0)[0] == 1.0
        assert queue.pop_until(2.0) is None
        assert len(queue) == 1  # the 5.0 entry is still queued
        assert queue.pop_until(5.0)[0] == 5.0

    def test_pop_until_horizon_is_inclusive(self, queue):
        queue.push(3.0, 0, _Token())
        assert queue.pop_until(3.0) is not None

    def test_len_and_peak_track_live_entries(self, queue):
        token = _Token()
        for index in range(5):
            queue.push(float(index), index, token)
        assert len(queue) == 5
        assert queue.peak_size == 5
        queue.pop()
        queue.pop()
        assert len(queue) == 3
        assert queue.peak_size == 5


class _SortedReference:
    """The queue contract stated directly, with no structure to get wrong.

    Every operation scans all entries: pop the minimum
    ``(time, sequence)``; ``len`` counts them.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple] = {}

    def push(self, time, sequence, event) -> None:
        self._entries[sequence] = (time, sequence, event)

    def pop_until(self, horizon):
        if not self._entries:
            return None
        head = min(self._entries.values(), key=lambda entry: entry[:2])
        if head[0] > horizon:
            return None
        del self._entries[head[1]]
        return head

    def pop(self):
        return self.pop_until(math.inf)

    def __len__(self) -> int:
        return len(self._entries)


def _random_workload(rng, operations):
    """A reproducible op tape: (kind, args) tuples."""
    tape = []
    for index in range(operations):
        roll = rng.random()
        if roll < 0.55:
            kind = rng.choice(("near", "far", "burst"))
            if kind == "near":
                delay = rng.uniform(0.0, 0.01)
            elif kind == "far":
                delay = rng.uniform(10.0, 1000.0)
            else:
                delay = rng.choice((0.0, 0.5, 0.5, 2.0))
            tape.append(("push", delay))
        elif roll < 0.8:
            tape.append(("pop",))
        elif roll < 0.9:
            tape.append(("pop_until", rng.uniform(0.0, 50.0)))
        else:
            # Horizon exactly at the next entry's time: the inclusive
            # edge that a continuous draw never hits.
            tape.append(("pop_until_next",))
    return tape


def _replay(queue, tape):
    """Run the op tape on *queue*; returns the observable history."""
    history = []
    pending = {}
    sequence = 0
    now = 0.0
    for op in tape:
        kind = op[0]
        if kind == "push":
            _, delay = op
            token = _Token()
            queue.push(now + delay, sequence, token)
            pending[sequence] = now + delay
            sequence += 1
        else:
            if kind == "pop":
                entry = queue.pop()
            elif kind == "pop_until":
                entry = queue.pop_until(now + op[1])
            else:  # pop_until_next
                entry = queue.pop_until(min(pending.values(), default=now))
            if entry is not None:
                now = entry[0]
                pending.pop(entry[1], None)
            history.append(entry[:2] if entry else None)
        history.append(len(queue))
    history.extend(_drain(queue))
    return history


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_match_sorted_reference(self, seed):
        tape = _random_workload(random.Random(seed), operations=400)
        assert (_replay(HeapEventQueue(), tape)
                == _replay(_SortedReference(), tape))


class TestSimulatorQueue:
    def test_queue_peak_size_visible_on_simulator(self):
        sim = Simulator()
        for _ in range(7):
            sim.timeout(1.0)
        assert sim.queue_peak_size == 7
        sim.run()
        assert sim.queue_size == 0
