"""Per-layer host-time attribution, installed from outside the program.

:class:`Tracer` wraps entry points of the ``repro`` packages with
spans: a list of public functions and methods at the layer boundaries,
every public ``*_process`` generator method of the classes that drive
the serve path, the event queue's ``push``/``pop``, and each step of
every DES process (attributed to the package that defined the
process's generator).  A span has a layer, a start, an end and a
parent — the span open when it started.  Its self time is its duration
minus its children's; time inside ``Simulator.run`` that no other span
covers is the ``sim`` layer's, and time a layer spends in another
layer's unwrapped helpers counts as the caller's.

Spans are folded into one row per (layer, entry point) as they close,
so memory stays bounded however long the trace.  Nothing under
``src/`` is edited: :meth:`Tracer.install` patches classes and modules
at run time and :meth:`Tracer.uninstall` restores them.  Wrapped
calls run the original code with the original arguments, so a traced
serve fingerprints like an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any

#: Layers reported in the per-layer table, in report order.  Time in
#: any other package, or in code outside ``repro``, is unattributed.
LAYERS = ("sim", "orchestration", "federation", "cluster", "core",
          "software", "memory", "fabric", "network", "hardware",
          "maintenance", "faults", "topology")

#: Plain callables wrapped as spans: ``(module, "Class.attr")`` or
#: ``(module, "function")``.  Properties are wrapped through their
#: getter.  A name a later refactor removed is skipped and reported in
#: :attr:`Tracer.missing`.
CALLS = (
    ("repro.sim.engine", "Simulator.run"),
    ("repro.sim.engine", "Simulator.run_window"),
    # The parallel coordinator's window runner; waiting for the worker
    # processes' replies is the sim layer's time.
    ("repro.sim.parallel", "run_windows"),
    ("repro.sim.parallel", "ProcessFleet.finish_advance"),
    ("repro.federation.parallel", "ParallelFederationController.advance"),
    ("repro.federation.controller", "FederationController.serve_trace"),
    ("repro.federation.controller", "FederationController.submit"),
    ("repro.federation.parallel", "ParallelFederationController.serve_trace"),
    ("repro.federation.placer", "GlobalPlacer.place"),
    ("repro.federation.placer", "GlobalPlacer.place_for_readmission"),
    ("repro.federation.placer", "GlobalPlacer.snapshot"),
    ("repro.federation.messages", "measure_pod"),
    ("repro.cluster.control_plane", "ControlPlane.submit"),
    ("repro.orchestration.registry", "ResourceRegistry.compute_availability"),
    ("repro.orchestration.registry", "ResourceRegistry.memory_availability"),
    ("repro.memory.allocator", "SegmentAllocator.allocate"),
    ("repro.memory.allocator", "SegmentAllocator.free"),
    ("repro.memory.allocator", "SegmentAllocator.largest_free_span"),
    ("repro.memory.allocator", "SegmentAllocator.fragmentation"),
    ("repro.software.agent", "SdmAgent.program_segment"),
    ("repro.software.agent", "SdmAgent.unprogram_segment"),
    ("repro.software.agent", "SdmAgent.attach_segment"),
    ("repro.software.agent", "SdmAgent.detach_segment"),
    ("repro.software.hypervisor", "Hypervisor.spawn_vm"),
    ("repro.software.hypervisor", "Hypervisor.terminate_vm"),
    ("repro.software.kernel", "BaremetalKernel.available_bytes"),
    ("repro.fabric.fabric", "PodFabric.connect"),
    ("repro.fabric.fabric", "PodFabric.disconnect"),
    ("repro.fabric.fabric", "PodFabric.can_connect"),
    ("repro.fabric.fabric", "PodFabric.circuit_between"),
    ("repro.network.optical.topology", "OpticalFabric.connect"),
    ("repro.network.optical.topology", "OpticalFabric.disconnect"),
    ("repro.network.optical.topology", "OpticalFabric.can_connect"),
    ("repro.network.optical.topology", "OpticalFabric.circuit_between"),
    ("repro.hardware.rmst", "RemoteMemorySegmentTable.install"),
    ("repro.hardware.rmst", "RemoteMemorySegmentTable.evict"),
    ("repro.faults.injector", "FaultInjector.inject"),
    ("repro.faults.injector", "FaultInjector.fire_domain"),
)

#: Classes whose public ``*_process`` generator methods are wrapped:
#: each resume of the generator is a span of the class's layer.
PROCESS_CLASSES = (
    ("repro.core.system", "DisaggregatedSystem"),
    ("repro.orchestration.sdm_controller", "SdmController"),
    ("repro.orchestration.sharding", "ShardedSdmController"),
    ("repro.software.scaleup", "ScaleUpController"),
    ("repro.cluster.control_plane", "ControlPlane"),
    ("repro.federation.controller", "FederationController"),
    ("repro.federation.migration", "InterPodMigrator"),
    ("repro.federation.rebalancer", "FederationRebalancer"),
    ("repro.federation.parallel", "ParallelFederationController"),
    ("repro.maintenance.supervisor", "MaintenanceSupervisor"),
)

#: Event-queue methods timed as ``sim`` spans (``sim.queue_s``).
QUEUE_METHODS = ("push", "pop", "pop_until")


def layer_of_module(name: str) -> str:
    """``repro.network.optical.topology`` -> ``network``."""
    parts = name.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else ""


class Tracer:
    """Span tracer over the ``repro`` packages (see the module doc)."""

    def __init__(self) -> None:
        import repro
        self._repro_root = os.path.dirname(repro.__file__) + os.sep
        self._clock = time.perf_counter
        #: Open spans, innermost last: ``[layer, key, start, child_s]``.
        self._stack: list[list] = []
        #: ``(layer, key) -> [spans, total_s, self_s]``.
        self.table: dict[tuple[str, str], list] = {}
        #: Summed duration of spans opened with no parent.
        self.root_s = 0.0
        #: Entry points named in CALLS / PROCESS_CLASSES that no longer
        #: exist (a refactor moved them).
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._steps: dict[Any, tuple[str, str]] = {}

    # -- spans ---------------------------------------------------------------

    def _close(self) -> None:
        end = self._clock()
        layer, key, start, child_s = self._stack.pop()
        duration = end - start
        row = self.table.get((layer, key))
        if row is None:
            row = self.table[(layer, key)] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_s += duration

    def reset(self) -> None:
        """Forget every closed span (e.g. those of the set-up)."""
        self.table.clear()
        self.root_s = 0.0

    def call_wrapper(self, fn, layer: str, key: str):
        stack, clock, close = self._stack, self._clock, self._close

        def traced(*args, **kwargs):
            stack.append([layer, key, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                close()
        return functools.update_wrapper(traced, fn)

    def process_wrapper(self, fn, layer: str, key: str):
        tracer = self

        def traced(*args, **kwargs):
            return _traced_generator(tracer, layer, key, fn(*args, **kwargs))
        return functools.update_wrapper(traced, fn)

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point; returns the tracer."""
        for module_name, qualname in CALLS:
            self._wrap_call(module_name, qualname)
        for module_name, class_name in PROCESS_CLASSES:
            cls = self._resolve(module_name, class_name)
            if cls is None:
                continue
            layer = layer_of_module(module_name)
            for name, attr in list(vars(cls).items()):
                if (name.endswith("_process") and not name.startswith("_")
                        and callable(attr)):
                    self._patch(cls, name, self.process_wrapper(
                        attr, layer, f"{class_name}.{name}"))
        self._wrap_queues()
        self._wrap_steps()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _resolve(self, module_name: str, qualname: str):
        try:
            target: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                target = vars(target)[part]
        except (ImportError, KeyError):
            self.missing.append(f"{module_name}:{qualname}")
            return None
        return target

    def _wrap_call(self, module_name: str, qualname: str) -> None:
        original = self._resolve(module_name, qualname)
        if original is None:
            return
        layer = layer_of_module(module_name)
        owner_name, _, name = qualname.rpartition(".")
        if owner_name:
            owner = vars(importlib.import_module(module_name))[owner_name]
            if isinstance(original, property):
                wrapped = property(self.call_wrapper(
                    original.fget, layer, qualname))
            else:
                wrapped = self.call_wrapper(original, layer, qualname)
            self._patch(owner, name, wrapped)
            return
        # A module-level function is also rebound wherever another
        # repro module imported it by name.
        wrapped = self.call_wrapper(original, layer, qualname)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and vars(module).get(name) is original):
                self._patch(module, name, wrapped)

    def _wrap_queues(self) -> None:
        from repro.sim.queues import EventQueue
        pending = list(EventQueue.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name in QUEUE_METHODS:
                if name in vars(cls):
                    self._patch(cls, name, self.call_wrapper(
                        vars(cls)[name], "sim", f"queue.{name}"))

    def _wrap_steps(self) -> None:
        from repro.sim.engine import Process
        original = vars(Process)["_resume"]
        stack, clock, close = self._stack, self._clock, self._close
        steps, step_of = self._steps, self._step_entry

        def _resume(process, trigger):
            code = process._generator.gi_code
            entry = steps.get(code)
            if entry is None:
                entry = steps[code] = step_of(code)
            stack.append([entry[0], entry[1], clock(), 0.0])
            try:
                return original(process, trigger)
            finally:
                close()
        self._patch(Process, "_resume", _resume)

    def _step_entry(self, code) -> tuple[str, str]:
        """Layer and key of one step of a process running *code*."""
        if code is _traced_generator.__code__:
            # The process runs a wrapped *_process generator directly;
            # its own span covers the work, the rest is the kernel's.
            return "sim", "step (wrapped process)"
        layer = "unattributed"
        if code.co_filename.startswith(self._repro_root):
            relative = code.co_filename[len(self._repro_root):]
            package = relative.split(os.sep)[0]
            layer = package[:-3] if package.endswith(".py") else package
        return layer, f"step {code.co_qualname}"

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per reported layer; everything else is folded
        into ``unattributed``."""
        totals = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
        for (layer, _key), row in self.table.items():
            totals[layer if layer in totals else "unattributed"] += row[2]
        return totals

    def calls(self, layer: str, key: str) -> int:
        row = self.table.get((layer, key))
        return row[0] if row is not None else 0

    def inclusive_s(self, layer: str, key: str) -> float:
        row = self.table.get((layer, key))
        return row[1] if row is not None else 0.0

    def rows(self) -> list[dict]:
        """The aggregated table, heaviest self time first."""
        return [{"layer": layer, "entry": key, "spans": row[0],
                 "total_s": row[1], "self_s": row[2]}
                for (layer, key), row in sorted(
                    self.table.items(), key=lambda item: -item[1][2])]


def _traced_generator(tracer: Tracer, layer: str, key: str, generator):
    """Drive *generator* like ``yield from`` would, timing each resume
    as a span.  No yielded event or sent value is held across a
    suspension, so the kernel's event recycling sees the same reference
    counts as without the wrapper."""
    stack, clock, close = tracer._stack, tracer._clock, tracer._close
    value = None
    error = None
    while True:
        stack.append([layer, key, clock(), 0.0])
        try:
            if error is None:
                item = generator.send(value)
            else:
                item = generator.throw(error)
        except StopIteration as stop:
            close()
            return stop.value
        except BaseException:
            close()
            raise
        close()
        value = error = None
        outgoing = [item]
        del item
        try:
            value = yield outgoing.pop()
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:
            error = exc
