"""Run every experiment and collect the rendered outputs.

Used by the CLI (``dredbox-repro run-all``) and handy for regenerating
the EXPERIMENTS.md data in one pass.

Every driver accepts a ``seed`` keyword: the runner threads one base
seed through the whole sweep, so a full reproduction is a single
``(code version, seed)`` pair.  Drivers derive their per-component
streams from it via :class:`~repro.sim.rng.RngRegistry`; deterministic
drivers accept and ignore it.

Drivers declare their own sweep axes (:func:`axes`): every keyword
that defaults to ``None`` and is annotated ``Optional[int]``,
``Optional[float]`` or ``Optional[str]`` — ``shards`` on
``cluster_scale``, ``pods`` or ``topology`` on the federation tier,
and so on.  :func:`run_all` forwards an axis only to the selected
drivers that declare it and refuses one that none of them declares;
:func:`parse_assignments` types the CLI's ``--set AXIS=VALUE`` text by
the declaring driver's annotation.
"""

from __future__ import annotations

import cProfile
import inspect
import io
import pstats
import typing
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.experiments.availability import run_availability
from repro.experiments.cluster_scale import run_cluster_scale
from repro.experiments.datamover import run_datamover
from repro.experiments.federation import run_federation
from repro.experiments.fig7_ber import run_fig7
from repro.experiments.fig8_latency import run_fig8
from repro.experiments.fig10_agility import run_fig10
from repro.experiments.fig12_poweroff import run_fig12
from repro.experiments.fig13_energy import run_fig13
from repro.experiments.kernel_bench import run_kernel_bench
from repro.experiments.maintenance import run_maintenance
from repro.experiments.pod_scale import run_pod_scale
from repro.experiments.table1_workloads import run_table1

#: Registry of experiment name -> driver (every driver takes ``seed=``).
EXPERIMENTS: dict[str, Callable[..., object]] = {
    "table1": run_table1,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig10": run_fig10,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "pod_scale": run_pod_scale,
    "datamover": run_datamover,
    "cluster_scale": run_cluster_scale,
    "federation": run_federation,
    "availability": run_availability,
    "maintenance": run_maintenance,
    "kernel_bench": run_kernel_bench,
}

#: Functions shown when an experiment runs under ``--profile``.
PROFILE_TOP_N = 25

#: Value types an axis may take; ``--set`` text converts with them.
AXIS_TYPES = (int, float, str)


def axes(driver: Callable[..., object]) -> dict[str, type]:
    """*driver*'s sweep axes, name -> value type, in signature order.

    An axis is a keyword whose default is ``None`` and whose annotation
    is ``Optional[int]``, ``Optional[float]`` or ``Optional[str]``.
    """
    hints = typing.get_type_hints(driver)
    declared = {}
    for name, parameter in inspect.signature(driver).parameters.items():
        kinds = typing.get_args(hints.get(name))
        if (parameter.default is None and len(kinds) == 2
                and kinds[1] is type(None) and kinds[0] in AXIS_TYPES):
            declared[name] = kinds[0]
    return declared


def _declared(names: list[str] | None) -> dict[str, dict[str, type]]:
    """The selected experiments (all by default) -> their drivers' axes."""
    if names is None:
        names = list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            known = ", ".join(EXPERIMENTS)
            raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return {name: axes(EXPERIMENTS[name]) for name in names}


def _axis_type(declared: dict[str, dict[str, type]], axis: str) -> type:
    """*axis*'s value type; refuses an axis no selected driver declares."""
    for own in declared.values():
        if axis in own:
            return own[axis]
    known = sorted({name for own in declared.values() for name in own})
    raise ConfigurationError(
        f"no selected experiment declares axis {axis!r} (declared: "
        f"{', '.join(known) or 'none'})")


def parse_assignments(names: list[str] | None,
                      assignments: list[str]) -> dict[str, object]:
    """``AXIS=VALUE`` strings -> axis values for :func:`run_all`.

    Each value converts with the annotation of a selected driver that
    declares the axis; a missing ``=``, an undeclared axis or a value
    the type refuses raises :class:`ConfigurationError`.
    """
    declared = _declared(names)
    values: dict[str, object] = {}
    for assignment in assignments:
        axis, equals, text = assignment.partition("=")
        if not equals:
            raise ConfigurationError(
                f"--set takes AXIS=VALUE, got {assignment!r}")
        kind = _axis_type(declared, axis)
        try:
            values[axis] = kind(text)
        except ValueError:
            raise ConfigurationError(
                f"axis {axis!r} takes {kind.__name__}, got "
                f"{text!r}") from None
    return values


@dataclass
class ExperimentRun:
    """One executed experiment: its result object and rendering."""

    name: str
    result: object
    rendered: str
    profile: Optional[str] = None


@dataclass
class RunAllReport:
    """Results of a full sweep."""

    runs: list[ExperimentRun] = field(default_factory=list)

    def rendered(self) -> str:
        """All experiment outputs concatenated with separators."""
        parts = []
        for run in self.runs:
            parts.append("=" * 72)
            parts.append(f"Experiment: {run.name}")
            parts.append("=" * 72)
            parts.append(run.rendered)
            if run.profile is not None:
                parts.append("-" * 72)
                parts.append(f"Profile: {run.name}")
                parts.append(run.profile)
        return "\n".join(parts)


def _profiled(driver: Callable[..., object],
              kwargs: dict) -> tuple[object, str]:
    """Run *driver* under cProfile; returns (result, stats text)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(driver, **kwargs)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    return result, buffer.getvalue().rstrip()


def run_all(names: list[str] | None = None,
            seed: Optional[int] = None,
            profile: bool = False,
            **axes: object) -> RunAllReport:
    """Execute the named experiments (all of them by default).

    When *seed* is given it is passed to every driver, overriding each
    one's default, so the whole sweep reproduces from one number.
    Each of *axes* goes to the selected drivers that declare it; one
    that no selected driver declares raises
    :class:`~repro.errors.ConfigurationError` before anything runs.
    With *profile* each driver runs under :mod:`cProfile` and the
    report carries the top functions by cumulative time — the hot-path
    view the kernel optimizations are steered by.
    """
    declared = _declared(names)
    for axis in axes:
        _axis_type(declared, axis)
    report = RunAllReport()
    for name, own in declared.items():
        driver = EXPERIMENTS[name]
        kwargs = {} if seed is None else {"seed": seed}
        kwargs.update((axis, value) for axis, value in axes.items()
                      if axis in own)
        if profile:
            result, stats_text = _profiled(driver, kwargs)
        else:
            result, stats_text = driver(**kwargs), None
        report.runs.append(ExperimentRun(
            name=name,
            result=result,
            rendered=result.render(),  # type: ignore[attr-defined]
            profile=stats_text,
        ))
    return report
