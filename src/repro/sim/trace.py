"""Structured tracing for simulations.

The hardware prototype was instrumented with logic analyzers and wall
clocks; the simulation equivalent is a :class:`Tracer` that components call
to record timestamped, categorized events.  The control plane's
reservation critical sections record their queueing delays here
(``sdm.reserve.wait``), and readers pick them out with
:meth:`Tracer.select`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One timestamped observation (immutable).

    Attributes:
        time: Simulated time of the observation, in seconds.
        category: Dotted subsystem name, e.g. ``"sdm.reserve"``.
        label: Human-readable identifier of the subject, e.g. ``"vm-3"``.
        data: Arbitrary payload (numbers, dicts) attached by the emitter.
    """

    time: float
    category: str
    label: str
    data: Any = None


class Tracer:
    """Collects timestamped :class:`TraceRecord` entries."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._records: list[TraceRecord] = []

    def record(self, category: str, label: str, data: Any = None) -> TraceRecord:
        """Append a timestamped record and return it."""
        rec = TraceRecord(self._clock(), category, label, data)
        self._records.append(rec)
        return rec

    @property
    def records(self) -> list[TraceRecord]:
        """All records, in emission order."""
        return list(self._records)

    def select(self, category: Optional[str] = None,
               label: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records filtered by category and/or label."""
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if label is not None and rec.label != label:
                continue
            yield rec
