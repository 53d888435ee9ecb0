"""Unit tests for the DES engine."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, AnyOf, Interrupt, Simulator, Timeout


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


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                causes.append((sim.now, interrupt.cause))

        def killer(target):
            yield sim.timeout(2)
            target.interrupt("preempted")

        target = sim.process(sleeper())
        sim.process(killer(target))
        sim.run()
        assert causes == [(2.0, "preempted")]

    def test_unhandled_interrupt_fails_process(self, sim):
        def sleeper():
            yield sim.timeout(100)

        def killer(target):
            yield sim.timeout(1)
            target.interrupt()

        target = sim.process(sleeper())
        sim.process(killer(target))
        with pytest.raises(Interrupt):
            sim.run(until=target)

    def test_interrupting_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        trace = []

        def resilient():
            try:
                yield sim.timeout(100)
            except Interrupt:
                trace.append("interrupted")
            yield sim.timeout(5)
            trace.append(sim.now)

        def killer(target):
            yield sim.timeout(10)
            target.interrupt()

        target = sim.process(resilient())
        sim.process(killer(target))
        sim.run()
        assert trace == ["interrupted", 15.0]


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

    def test_any_of_fires_on_first(self, sim):
        slow = sim.timeout(10, value="slow")
        fast = sim.timeout(1, value="fast")
        condition = sim.any_of([slow, fast])
        result = sim.run(until=condition)
        assert sim.now == 1.0
        assert list(result.values()) == ["fast"]

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [other.event()])

    def test_any_of_type(self, sim):
        assert isinstance(sim.any_of([sim.timeout(1)]), AnyOf)


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


class TestCancel:
    def test_cancelled_timeout_never_runs(self, sim):
        fired = []
        keep = sim.timeout(2)
        keep.callbacks.append(lambda e: fired.append("keep"))
        doomed = sim.timeout(1)
        doomed.callbacks.append(lambda e: fired.append("doomed"))
        doomed.cancel()
        sim.run()
        assert fired == ["keep"]
        assert sim.now == 2.0
        assert doomed.cancelled

    def test_cancel_updates_queue_accounting(self, sim):
        doomed = sim.timeout(1)
        sim.timeout(2)
        assert sim.queue_size == 2
        doomed.cancel()
        assert sim.queue_size == 1
        assert sim.peek() == 2.0

    def test_cancel_pending_event_blocks_trigger(self, sim):
        event = sim.event()
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_cancel_twice_rejected(self, sim):
        doomed = sim.timeout(1)
        doomed.cancel()
        with pytest.raises(SimulationError, match="already cancelled"):
            doomed.cancel()

    def test_cancel_processed_rejected(self, sim):
        done = sim.timeout(1)
        sim.run()
        with pytest.raises(SimulationError, match="already processed"):
            done.cancel()


class TestConditionDetach:
    def test_any_of_detaches_losers(self, sim):
        slow = sim.timeout(10, value="slow")
        fast = sim.timeout(1, value="fast")
        condition = sim.any_of([slow, fast])
        sim.run(until=condition)
        # The race is decided: the loser no longer carries a callback
        # back into the condition, so its later firing adds nothing.
        assert not slow.callbacks
        sim.run()
        assert list(condition.value.values()) == ["fast"]

    def test_all_of_failure_detaches_survivors(self, sim):
        good = sim.timeout(5)
        bad = sim.event()
        bad.fail(RuntimeError("dead"), delay=1)
        condition = sim.all_of([good, bad])
        with pytest.raises(RuntimeError, match="dead"):
            sim.run(until=condition)
        assert not good.callbacks


class TestEventPooling:
    def test_processed_timeout_is_recycled(self, sim):
        sim.timeout(1)  # no reference retained -> poolable
        sim.run()
        pool = sim._pools[Timeout]
        assert pool
        recycled = pool[-1]
        fresh = sim.timeout(3, value="again")
        assert fresh is recycled
        assert fresh.delay == 3
        assert not fresh.processed
        sim.run()
        assert fresh.value == "again"
        assert sim.now == 4.0

    def test_referenced_timeout_is_not_recycled(self, sim):
        held = sim.timeout(1)
        sim.run()
        assert held not in sim._pools[Timeout]
        assert held.processed

    def test_recycled_timeouts_stay_deterministic(self, sim):
        log = []

        def worker(name):
            for _ in range(50):
                yield sim.timeout(0.5)
            log.append((name, sim.now))

        for name in range(4):
            sim.process(worker(name))
        sim.run()
        assert log == [(0, 25.0), (1, 25.0), (2, 25.0), (3, 25.0)]
        assert len(sim._pools[Timeout]) <= 1024
