"""Unit and property tests for the kernel's pending-event queue.

The determinism contract: the queue serves the total order
``(time, sequence)``, never surfaces a cancelled entry and
counts only live entries.  The property tests replay randomized op
tapes (pushes, pops, horizon pops, cancellations) against
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
    """Stand-in event: just the cancellation flag the queues inspect."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False


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

    def test_peek_skips_cancelled_head(self, queue):
        doomed, kept = _Token(), _Token()
        queue.push(1.0, 0, doomed)
        queue.push(2.0, 1, kept)
        doomed._cancelled = True
        queue.note_cancel(doomed)
        assert queue.peek() == 2.0
        assert len(queue) == 1

    def test_cancelled_entries_never_surface(self, queue):
        tokens = [_Token() for _ in range(10)]
        for index, token in enumerate(tokens):
            queue.push(float(index), index, token)
        for token in tokens[::2]:
            token._cancelled = True
            queue.note_cancel(token)
        assert [entry[0] for entry in _drain(queue)] == [
            1.0, 3.0, 5.0, 7.0, 9.0]

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
    ``(time, sequence)`` among the live ones; ``len`` counts
    the live ones.  Cancellation needs no bookkeeping at all.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple] = {}

    def _live(self) -> list:
        return [entry for entry in self._entries.values()
                if not entry[2]._cancelled]

    def push(self, time, sequence, event) -> None:
        self._entries[sequence] = (time, sequence, event)

    def pop_until(self, horizon):
        live = self._live()
        if not live:
            return None
        head = min(live, key=lambda entry: entry[:2])
        if head[0] > horizon:
            return None
        del self._entries[head[1]]
        return head

    def pop(self):
        return self.pop_until(math.inf)

    def note_cancel(self, event) -> None:
        pass

    def __len__(self) -> int:
        return len(self._live())


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
        elif roll < 0.85:
            tape.append(("pop_until", rng.uniform(0.0, 50.0)))
        elif roll < 0.9:
            # Horizon exactly at the next live entry's time: the
            # inclusive edge that a continuous draw never hits.
            tape.append(("pop_until_next",))
        else:
            tape.append(("cancel", rng.randrange(1, 8)))
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
            pending[sequence] = (now + delay, token)
            sequence += 1
        elif kind == "cancel":  # the n-th oldest pending entry, if any
            live = sorted(pending)
            if live:
                victim = live[min(op[1], len(live)) - 1]
                _, token = pending.pop(victim)
                token._cancelled = True
                queue.note_cancel(token)
        else:
            if kind == "pop":
                entry = queue.pop()
            elif kind == "pop_until":
                entry = queue.pop_until(now + op[1])
            else:  # pop_until_next
                entry = queue.pop_until(min(
                    (time for time, _ in pending.values()), default=now))
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
