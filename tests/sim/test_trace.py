"""Unit tests for the tracer."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def traced_sim():
    sim = Simulator()
    return sim, Tracer(lambda: sim.now)


class TestRecords:
    def test_record_captures_time(self, traced_sim):
        sim, tracer = traced_sim

        def proc():
            yield sim.timeout(2.5)
            tracer.record("memory.attach", "seg-0", {"bytes": 1024})

        sim.process(proc())
        sim.run()
        (record,) = tracer.records
        assert record.time == 2.5
        assert record.category == "memory.attach"
        assert record.data == {"bytes": 1024}

    def test_select_by_category_and_label(self, traced_sim):
        _sim, tracer = traced_sim
        tracer.record("a", "x")
        tracer.record("a", "y")
        tracer.record("b", "x")
        assert len(list(tracer.select(category="a"))) == 2
        assert len(list(tracer.select(label="x"))) == 2
        assert len(list(tracer.select(category="a", label="x"))) == 1

    def test_records_returns_copy(self, traced_sim):
        _sim, tracer = traced_sim
        tracer.record("a", "x")
        tracer.records.clear()
        assert len(tracer.records) == 1

