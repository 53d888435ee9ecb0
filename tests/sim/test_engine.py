"""Unit tests for the DES engine."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Simulator
from repro.sim.resources import Resource, Store


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_fail_marks_not_ok(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        assert not event.ok

    def test_unwaited_failure_surfaces_in_run(self, sim):
        event = sim.event()
        event.fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            sim.run()


class TestTimeout:
    def test_fires_at_delay(self, sim):
        seen = []

        def proc():
            yield sim.timeout(5.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [5.0]

    def test_zero_delay_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        collected = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            collected.append(value)

        sim.process(proc())
        sim.run()
        assert collected == ["payload"]


class TestTimeoutAt:
    def test_fires_exactly_at_an_absolute_time(self, sim):
        start, due = 2.0 ** -53, 1.0 + 2.0 ** -52
        # No relative delay from *start* reaches *due*.
        delay = due - start
        assert all(start + d != due for d in (
            math.nextafter(delay, 0.0), delay, math.nextafter(delay, 2.0)))
        seen = []

        def proc():
            yield sim.timeout_at(start)
            value = yield sim.timeout_at(due, value="payload")
            seen.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert seen == [(due, "payload")]

    def test_now_is_allowed(self, sim):
        sim.run(until=2.0)
        timeout = sim.timeout_at(2.0)
        sim.run()
        assert timeout.processed and sim.now == 2.0

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), 1.0])
    def test_non_finite_or_past_time_rejected(self, sim, when):
        sim.run(until=2.0)
        with pytest.raises(SimulationError, match="no earlier than now"):
            sim.timeout_at(when)
        assert sim.queue_size == 0


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        process = sim.process(proc())
        assert sim.run(until=process) == "done"

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(1)
            yield sim.timeout(2)
            return sim.now

        assert sim.run(until=sim.process(proc())) == 3.0

    def test_processes_interleave(self, sim):
        order = []

        def worker(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.process(worker("slow", 2))
        sim.process(worker("fast", 1))
        sim.run()
        assert order == ["fast", "slow"]

    def test_yield_on_another_process(self, sim):
        def child():
            yield sim.timeout(3)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return result, sim.now

        assert sim.run(until=sim.process(parent())) == ("child-result", 3.0)

    def test_exception_in_process_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("inner failure")

        process = sim.process(proc())
        with pytest.raises(RuntimeError, match="inner failure"):
            sim.run(until=process)

    def test_failed_event_thrown_into_waiter(self, sim):
        failing = sim.event()
        caught = []

        def proc():
            try:
                yield failing
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(proc())
        failing.fail(ValueError("pushed"))
        sim.run()
        assert caught == ["pushed"]

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42  # type: ignore[misc]

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="must yield events"):
            sim.run(until=process)

    def test_yielding_foreign_event_fails_process(self, sim):
        other = Simulator()

        def proc():
            yield other.event()

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run(until=process)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        log = []

        def late():
            yield sim.timeout(4)
            value = yield done
            log.append((sim.now, value))

        sim.process(late())
        sim.run()
        assert log == [(4.0, "early")]

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def worker(delay):
            yield sim.timeout(delay)
            return delay

        processes = [sim.process(worker(d)) for d in (3, 1, 2)]
        finished_at = []

        def waiter():
            yield sim.all_of(processes)
            finished_at.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert finished_at == [3.0]

    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(1, value="a"), sim.timeout(2, value="b")]
        condition = sim.all_of(events)
        sim.run()
        assert list(condition.value.values()) == ["a", "b"]

    def test_all_of_empty_fires_immediately(self, sim):
        condition = sim.all_of([])
        assert condition.triggered

    def test_all_of_fails_fast(self, sim):
        good = sim.timeout(5)
        bad = sim.event()
        bad.fail(RuntimeError("dead"), delay=1)
        condition = sim.all_of([good, bad])
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=condition)

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [other.event()])


class TestSimulatorRun:
    def test_run_until_time_advances_clock(self, sim):
        sim.timeout(3)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_rejected(self, sim):
        sim.timeout(1)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=2.0)

    def test_run_until_infinity_leaves_clock_at_last_event(self, sim):
        sim.timeout(2.0)
        sim.run(until=float("inf"))
        assert sim.now == 2.0
        # The clock is still finite, so absolute and relative
        # timeouts keep working.
        later = sim.timeout_at(3.0)
        sim.timeout(1.5)
        sim.run()
        assert later.processed and sim.now == 3.5

    def test_run_until_event_without_sources_raises(self, sim):
        pending = sim.event()
        with pytest.raises(SimulationError, match="ran out of events"):
            sim.run(until=pending)

    def test_run_until_foreign_event_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=other.event())

    def test_step_on_empty_heap_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_empty_is_infinite(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(7)
        assert sim.peek() == 7.0

    def test_events_at_same_time_run_fifo(self, sim):
        order = []

        def worker(name):
            yield sim.timeout(1)
            order.append(name)

        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_zero_delay_succeed_fires_between_same_instant_timeouts(
            self, sim):
        order = []
        first = sim.timeout(0)
        event = sim.event()
        event.succeed()
        last = sim.timeout(0)
        for name, fired in (("first", first), ("event", event),
                            ("last", last)):
            fired.callbacks.append(
                lambda _fired, name=name: order.append(name))
        sim.run()
        assert order == ["first", "event", "last"]

    def test_schedule_into_past_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=-0.5)

    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0


class TestDelayValidation:
    def test_nan_timeout_rejected(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.timeout(float("nan"))

    def test_infinite_timeout_rejected(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.timeout(float("inf"))

    def test_nan_schedule_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=float("nan"))

    def test_infinite_schedule_rejected(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            sim.schedule(event, delay=float("inf"))

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("trigger", ["succeed", "fail"])
    def test_trigger_delay_rejected(self, sim, trigger, delay):
        event = sim.event()
        args = (RuntimeError("boom"),) if trigger == "fail" else ()
        with pytest.raises(SimulationError):
            getattr(event, trigger)(*args, delay=delay)
        assert sim.queue_size == 0


class TestConditionDetach:
    def test_all_of_failure_detaches_survivors(self, sim):
        good = sim.timeout(5)
        bad = sim.event()
        bad.fail(RuntimeError("dead"), delay=1)
        condition = sim.all_of([good, bad])
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=condition)
        assert not good.callbacks


def _entry_point_program(sim, log, seed):
    """A seeded random program of 29 processes; returns an ``all_of``.

    Quarter-second delays make many events tie in time, and zero
    delays fire at the current instant.  Every resume appends
    ``(now, who, step)`` to *log*.
    """
    rng = random.Random(seed)
    quarter = (0.0, 0.25, 0.5, 1.0)
    lock = Resource(sim, capacity=1)
    store = Store(sim)

    def sleeper(name, delays):
        for step, delay in enumerate(delays):
            yield sim.timeout(delay)
            log.append((sim.now, name, step))
        return name

    def alarm(name, times):
        for step, when in enumerate(times):
            yield sim.timeout_at(when)
            log.append((sim.now, name, step))

    def user(name, start, hold):
        yield sim.timeout(start)
        grant = yield from lock.acquire()
        log.append((sim.now, name, "granted"))
        yield sim.timeout(hold)
        lock.release(grant)
        log.append((sim.now, name, "released"))

    def feeder(delays):
        for step, delay in enumerate(delays):
            yield sim.timeout(delay)
            store.put(step)
            log.append((sim.now, "feeder", step))

    def consumer(name):
        item = yield store.get()
        log.append((sim.now, name, item))

    def worker(name, delay):
        yield sim.timeout(delay)
        raise ValueError(name)

    def waiter(name, target):
        try:
            yield target
        except ValueError as exc:
            log.append((sim.now, name, str(exc)))

    def joiner(condition):
        yield condition
        log.append((sim.now, "joiner", 0))

    sleepers = []
    for i in range(8):
        delays = [rng.choice(quarter) if rng.random() < 0.7
                  else rng.uniform(0.0, 2.0)
                  for _ in range(rng.randrange(2, 5))]
        sleepers.append(sim.process(sleeper(f"sleeper{i}", delays)))
    for i in range(4):
        times = sorted(rng.choice(quarter) + rng.choice((0.0, 1.0, 2.0, 3.0))
                       for _ in range(3))
        sim.process(alarm(f"alarm{i}", times))
    for i in range(6):
        sim.process(user(f"user{i}", rng.choice(quarter),
                         rng.choice(quarter)))
    sim.process(feeder([rng.choice(quarter) for _ in range(5)]))
    for i in range(5):
        sim.process(consumer(f"consumer{i}"))
    for i in range(2):
        failing = sim.process(worker(f"worker{i}", rng.choice(quarter)))
        sim.process(waiter(f"waiter{i}", failing))
    joined = sim.all_of(sleepers)
    sim.process(joiner(joined))
    return joined


class TestEntryPoints:
    """``run()``, ``run(until=t)``, ``run(until=event)``,
    ``run_window`` and ``step`` serve one event order."""

    CUTS = (0.0, 0.25, 1.0, 1.6, 2.5)

    def test_every_entry_point_serves_the_reference_order(self):
        def build():
            sim, log = Simulator(), []
            return sim, log, _entry_point_program(sim, log, seed=7)

        sim, reference, _ = build()
        sim.run()
        final = (sim.events_processed, sim.now)
        assert sim.now > max(self.CUTS) and len(reference) > 50

        def check(sim, log):
            assert log == reference
            assert (sim.events_processed, sim.now) == final

        sim, log, _ = build()
        for cut in self.CUTS:
            sim.run(until=cut)
            assert sim.now == cut
            assert log == [e for e in reference if e[0] <= cut]
        sim.run()
        check(sim, log)

        sim, log, joined = build()
        sim.run(until=joined)
        assert joined.processed and 0 < len(log) < len(reference)
        assert log == reference[:len(log)]
        sim.run()
        check(sim, log)

        sim, log, _ = build()
        for cut in self.CUTS:
            sim.run_window(cut)
            assert sim.now == cut
            assert log == [e for e in reference if e[0] < cut]
        sim.run()
        check(sim, log)

        sim, log, _ = build()
        while sim.queue_size:
            sim.step()
        check(sim, log)
