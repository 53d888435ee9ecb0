"""Unit tests for control-plane execution contexts."""

from __future__ import annotations

import gc

from repro.sim.control import RESERVE_WAIT, ControlContext, run_sync


def _reserve_twice(ctx: ControlContext):
    yield ctx.sim.timeout(1.0)
    grant = yield from ctx.enter_domain("shard0", "vm-0")
    ctx.domain("shard0").release(grant)
    grant = yield from ctx.enter_domain("shard0", "vm-0")
    ctx.domain("shard0").release(grant)
    return [record.time for record in ctx.tracer.select(RESERVE_WAIT)]


class TestRunSync:
    def test_tracer_reads_the_context_clock(self):
        assert run_sync(_reserve_twice) == [1.0, 1.0]

    def test_private_contexts_are_freed_without_the_collector(self):
        # Each synchronous API call builds one private context; none
        # may survive as a reference cycle for the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                run_sync(_reserve_twice)
            assert gc.collect() == 0
        finally:
            gc.enable()
