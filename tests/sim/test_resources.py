"""Unit tests for DES resources and stores."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        request = resource.request()
        assert request.triggered
        assert resource.count == 1

    def test_fifo_granting_order(self, sim):
        resource = Resource(sim, capacity=1)
        grants = []

        def worker(name, hold):
            request = resource.request()
            yield request
            grants.append((sim.now, name))
            yield sim.timeout(hold)
            resource.release(request)

        sim.process(worker("first", 2))
        sim.process(worker("second", 1))
        sim.process(worker("third", 1))
        sim.run()
        assert grants == [(0.0, "first"), (2.0, "second"), (3.0, "third")]

    def test_grants_carry_no_value(self, sim):
        # A grant carrying its own request would make every request a
        # reference cycle that only the cyclic garbage collector frees.
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        resource.release(first)
        sim.run()
        assert first.value is None and second.value is None

    def test_queue_length_tracks_waiters(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        resource.request()
        resource.request()
        assert resource.queue_length == 2
        resource.release(held)
        assert resource.queue_length == 1

    def test_release_of_nonholder_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        waiting = resource.request()
        with pytest.raises(SimulationError):
            resource.release(waiting)

    def test_multi_slot_concurrency(self, sim):
        resource = Resource(sim, capacity=3)
        active_log = []

        def worker():
            request = resource.request()
            yield request
            active_log.append(resource.count)
            yield sim.timeout(1)
            resource.release(request)

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert max(active_log) == 3

    def test_acquire_helper(self, sim):
        resource = Resource(sim, capacity=1)
        log = []

        def worker():
            request = yield from resource.acquire()
            log.append(resource.count)
            resource.release(request)

        sim.process(worker())
        sim.run()
        assert log == [1]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        event = store.get()
        assert event.triggered
        sim.run()
        assert event.value == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        received = []

        def consumer():
            item = yield store.get()
            received.append((sim.now, item))

        def producer():
            yield sim.timeout(3)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert received == [(3.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for value in (1, 2, 3):
            store.put(value)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        sim.process(consumer())
        sim.run()
        assert received == [1, 2, 3]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        received = []

        def consumer(name):
            item = yield store.get()
            received.append((name, item))

        sim.process(consumer("a"))
        sim.process(consumer("b"))
        store.put(1)
        store.put(2)
        sim.run()
        assert received == [("a", 1), ("b", 2)]

    def test_size_and_waiting(self, sim):
        store = Store(sim)
        assert store.size == 0
        store.put("x")
        assert store.size == 1
        store.get()
        assert store.size == 0
        store.get()
        assert store.waiting == 1

    def test_peek_does_not_remove(self, sim):
        store = Store(sim)
        store.put("front")
        assert store.peek() == "front"
        assert store.size == 1

    def test_peek_empty_returns_none(self, sim):
        assert Store(sim).peek() is None
