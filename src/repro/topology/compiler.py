"""Compile a validated spec into a running federation plus its
canonical operational surface.

:func:`compile_spec` is the single door between the declarative world
(:mod:`repro.topology.spec`) and the built one: it routes every pod
through the existing :func:`~repro.federation.controller.
build_federation` / :func:`~repro.federation.parallel.
build_parallel_federation` assembly paths (so a compiled topology is
construction-for-construction identical to a hand-built one — the
fingerprint tests pin this), and the :class:`CompiledTopology` it
returns then **emits** what no hand-built experiment derived from one
source before:

* :meth:`CompiledTopology.failure_domains` — the spec's correlated
  failure-domain layers, realized against the actual built topology by
  the :mod:`repro.faults.domains` builders, ready for
  ``FaultInjector(domains=...)``;
* :meth:`CompiledTopology.supervisor` /
  :meth:`CompiledTopology.install_maintenance` — a
  :class:`~repro.maintenance.supervisor.MaintenanceSupervisor` plus
  the spec's rolling-drain schedule as DES processes on the
  federation's clock.

Runtime-only collaborators that cannot live in a serializable spec —
a rebalancer instance, the worker-process count — pass through as
keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.cluster.trace import replica_group_of
from repro.errors import TopologyError
from repro.faults.domains import (
    FailureDomain,
    Hazard,
    coerce_hazard,
    pod_network_domains,
    rack_power_domains,
)
from repro.federation.controller import Federation, build_federation
from repro.federation.rebalancer import FederationRebalancer
from repro.maintenance.supervisor import (
    DrainReport,
    MaintenanceSupervisor,
)
from repro.topology.spec import MaintenanceWindow, TopologySpec, load_spec

#: Maps a spec domain kind to its topology-derived builder.
_DOMAIN_BUILDERS = {
    "rack-power": rack_power_domains,
    "pod-network": pod_network_domains,
}


def _domain_pod(domain: FailureDomain) -> str:
    """The pod a built domain instance belongs to (from its name:
    ``power.<pod>.<rack>`` or ``net.<pod>``)."""
    return domain.name.split(".")[1]


@dataclass
class CompiledTopology:
    """A built federation plus the operational surface its spec emits."""

    spec: TopologySpec
    federation: Federation
    #: ``None`` = the direct-call serial backend; an int = the parallel
    #: backend's worker-process count (0 = its in-process fleet).
    workers: Optional[int] = None
    _domain_cache: dict = field(default_factory=dict, repr=False)

    # -- canonical form -----------------------------------------------------

    def describe(self) -> dict:
        """The normalized spec dict this topology was compiled from.

        Re-compiling the description reproduces the topology: compile →
        describe → re-compile is a fixed point (property-tested).
        """
        return self.spec.to_dict()

    # -- failure domains ----------------------------------------------------

    def failure_domains(self,
                        kinds: Optional[Sequence[str]] = None,
                        hazard: Optional[Union[str, Hazard]] = None
                        ) -> list[FailureDomain]:
        """The spec's correlated failure domains, built against the
        compiled federation.

        *kinds* filters to a subset of the spec's domain layers (e.g.
        ``("rack-power",)``); *hazard* (a spec string or a
        :class:`~repro.faults.domains.Hazard`) overrides every
        emitted domain's inter-arrival distribution — the CLI's
        ``--set hazard=...`` axis.  Only the serial backend exposes pod
        internals to the domain builders, so this raises on a
        parallel-compiled topology.
        """
        if self.workers is not None:
            raise TopologyError(
                "failure domains need the serial federation backend "
                "(pod internals are process-local under workers=N)",
                path="domains")
        if kinds is not None:
            unknown = sorted(set(kinds)
                             - set(_DOMAIN_BUILDERS))
            if unknown:
                raise TopologyError(
                    f"unknown domain kind {unknown[0]!r}; known: "
                    f"{', '.join(_DOMAIN_BUILDERS)}", path="domains")
        if isinstance(hazard, str):
            hazard = coerce_hazard(hazard)
        key = (tuple(kinds) if kinds is not None else None, hazard)
        if key in self._domain_cache:
            return list(self._domain_cache[key])
        domains: list[FailureDomain] = []
        for dspec in self.spec.domains:
            if kinds is not None and dspec.kind not in kinds:
                continue
            effective = hazard
            if effective is None and dspec.hazard is not None:
                effective = coerce_hazard(dspec.hazard)
            built = _DOMAIN_BUILDERS[dspec.kind](
                self.federation, mtbf_s=dspec.mtbf_s,
                mttr_s=dspec.mttr_s, hazard=effective)
            scope = set(dspec.covers(self.spec.pod_ids))
            domains.extend(d for d in built
                           if _domain_pod(d) in scope)
        self._domain_cache[key] = list(domains)
        return domains

    # -- maintenance --------------------------------------------------------

    @property
    def maintenance_windows(self) -> tuple[MaintenanceWindow, ...]:
        """The spec's rolling-drain schedule (possibly empty)."""
        return self.spec.maintenance

    def supervisor(self, injector=None) -> MaintenanceSupervisor:
        """A maintenance supervisor over the compiled federation,
        optionally fenced against *injector*."""
        if self.workers is not None:
            raise TopologyError(
                "maintenance drains need the serial federation "
                "backend (the supervisor reaches into pod internals)",
                path="maintenance")
        return MaintenanceSupervisor(self.federation,
                                     injector=injector)

    def install_maintenance(self, supervisor: MaintenanceSupervisor,
                            ) -> list[DrainReport]:
        """Schedule every maintenance window as a DES process.

        Each window waits until its ``at_s`` and then runs a full pod
        drain; completed windows append their
        :class:`~repro.maintenance.supervisor.DrainReport` to the
        returned list (and to ``supervisor.reports``) as the clock
        reaches them.
        """
        reports: list[DrainReport] = []
        sim = self.federation.sim

        def drain_at(window: MaintenanceWindow):
            yield sim.timeout(window.at_s)
            report = yield from supervisor.drain_pod_process(window.pod)
            reports.append(report)

        for window in self.spec.maintenance:
            sim.process(drain_at(window))
        return reports

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (the parallel fleet's processes);
        a no-op on the serial backend."""
        close = getattr(self.federation, "close", None)
        if close is not None:
            close()


def compile_spec(source: Union[str, Mapping, TopologySpec], *,
                 workers: Optional[int] = None,
                 sync_window_s: Optional[float] = None,
                 rebalancer: Optional[FederationRebalancer] = None
                 ) -> CompiledTopology:
    """Validate *source* (template name, spec file path, dict or
    :class:`TopologySpec`) and build it.

    ``workers=None`` compiles onto the direct-call serial
    :class:`~repro.federation.controller.FederationController`;
    ``workers>=0`` compiles onto the message-passing parallel backend
    (0 = its in-process fleet), with *sync_window_s* overriding the
    spec's ``fabric.sync_window_s`` lookahead.  *rebalancer* is a
    runtime collaborator a serializable spec cannot carry.  When the
    spec sets ``replica_groups``, the placer keeps each replica group
    on distinct pods (:func:`~repro.cluster.trace.replica_group_of`).
    """
    spec = load_spec(source)
    pod_kwargs = dict(
        racks_per_pod=spec.racks_per_pod,
        uplinks_per_rack=spec.fabric.uplinks_per_rack,
        compute_bricks=spec.rack.compute_bricks,
        compute_cores=spec.rack.compute_cores,
        local_memory=spec.rack.local_memory_bytes,
        memory_bricks=spec.rack.memory_bricks,
        memory_modules=spec.rack.memory_modules,
        module_size=spec.rack.module_bytes,
        section_bytes=spec.section_bytes,
        placement=spec.placement,
        spill_policy=spec.spill_policy,
        anti_affinity=(replica_group_of if spec.replica_groups is not None
                       else None),
        rebalancer=rebalancer,
        interpod_link_bps=spec.fabric.interpod_link_bps,
        max_batch=spec.control.max_batch,
        batch_window_s=spec.control.batch_window_s,
    )
    if workers is None:
        federation: Federation = build_federation(spec.pods, **pod_kwargs)
    else:
        from repro.federation.parallel import (
            DEFAULT_SYNC_WINDOW_S,
            build_parallel_federation,
        )
        window = sync_window_s
        if window is None:
            window = spec.fabric.sync_window_s
        if window is None:
            window = DEFAULT_SYNC_WINDOW_S
        federation = build_parallel_federation(
            spec.pods, workers=workers, sync_window_s=window,
            **pod_kwargs)
    return CompiledTopology(spec=spec, federation=federation,
                            workers=workers)


def validate_spec(source: Union[str, Mapping,
                                TopologySpec]) -> TopologySpec:
    """Validation without construction: resolve and validate *source*,
    returning the canonical spec (the CLI ``topology validate`` path).
    """
    return load_spec(source)
