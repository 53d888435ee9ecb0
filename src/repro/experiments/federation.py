"""Federation sweep: pods × aggregate arrival rate × spill policy.

The pod tier's capacity wall is physical: once a pod's memory pool is
exhausted, its control plane can only reject.  The federation tier adds
a placement degree of freedom — spill the tenant to another pod — and
this driver measures what that buys: multi-tenant Poisson traffic with
a **skewed home-pod distribution** (a configurable share of tenants
call the first pod home, the capacity-planning worst case) is driven
through a :class:`~repro.federation.controller.FederationController`
at a swept aggregate arrival rate, once **pinned to the home pod**
(``spill_policy="never"``: the per-pod baseline, where the hot pod's
rejections are the story) and once with **spill enabled**
(``least-loaded`` scoring, plus the idle-window rebalancer draining the
hot pod between bursts).

Reported per cell: admitted/rejected tenants, spills, inter-pod
migrations (with rollbacks), and p50/p99 admission latency.  The
summary derives each configuration's **sustained rate** — the highest
swept rate at which at least 99 % of offered tenants were admitted —
and the expected shape is that spill-enabled federation sustains a
higher aggregate rate than pinned placement at equal pod count, because
the hot pod's overflow lands on pods with free capacity instead of on
the rejection path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.tables import render_table
from repro.cluster.trace import (
    TenantSpec,
    poisson_trace,
    with_replica_groups,
)
from repro.errors import ConfigurationError
from repro.federation.placer import SPILL_POLICIES
from repro.federation.rebalancer import FederationRebalancer
from repro.topology import TopologySpec, compile_spec, load_spec
from repro.units import gib, to_milliseconds

#: The template every cell's topology derives from when ``--topology``
#: is absent: compiled ``M`` is construction-identical to the
#: hand-built ``build_federation(pods)`` this sweep used before PR 10.
DEFAULT_TOPOLOGY = "M"

#: Share of tenants whose home is the first pod (locality skew).
HOT_POD_SHARE = 0.75

#: Tenant shape: small-VM multi-tenant traffic whose RAM exceeds the
#: compute brick's local DRAM, so every boot draws on the remote pool.
TENANT_VCPUS = 1
TENANT_RAM_BYTES = gib(2)
MEAN_LIFETIME_S = 1.2

#: Admitted fraction a configuration must hold to count as sustaining
#: a rate (the summary's "sustained rate" derivation).
SUSTAIN_FRACTION = 0.99

#: Policies the sweep compares by default.
DEFAULT_POLICIES = ("never", "least-loaded")


@dataclass
class FederationCell:
    """Measurements of one (pods, rate, spill policy) run."""

    pod_count: int
    arrival_rate_hz: float
    spill_policy: str
    admitted: int
    rejected: int
    spills: int
    migrations: int
    rollbacks: int
    p50_boot_ms: float
    p99_boot_ms: float
    duration_s: float

    @property
    def admitted_fraction(self) -> float:
        total = self.admitted + self.rejected
        return self.admitted / total if total else 0.0


@dataclass
class FederationResult:
    """The sweep: one cell per (pods, rate, policy)."""

    tenant_count: int
    cells: list[FederationCell] = field(default_factory=list)

    def cell(self, pod_count: int, rate_hz: float,
             policy: str) -> FederationCell:
        for candidate in self.cells:
            if (candidate.pod_count == pod_count
                    and candidate.arrival_rate_hz == rate_hz
                    and candidate.spill_policy == policy):
                return candidate
        raise KeyError(
            f"no cell for ({pod_count} pods, {rate_hz}/s, {policy!r})")

    @property
    def rates(self) -> list[float]:
        return sorted({cell.arrival_rate_hz for cell in self.cells})

    @property
    def pod_counts(self) -> list[int]:
        return sorted({cell.pod_count for cell in self.cells})

    @property
    def policies(self) -> list[str]:
        return sorted({cell.spill_policy for cell in self.cells})

    def sustained_rate(self, pod_count: int, policy: str) -> float:
        """Highest swept rate at which >= 99 % of tenants were admitted
        (0.0 when even the lowest rate overloads the configuration)."""
        sustained = 0.0
        for rate in self.rates:
            try:
                cell = self.cell(pod_count, rate, policy)
            except KeyError:
                continue
            if cell.admitted_fraction >= SUSTAIN_FRACTION:
                sustained = max(sustained, rate)
        return sustained

    def rows(self) -> list[tuple]:
        rows = []
        for cell in self.cells:
            rows.append((
                cell.pod_count,
                f"{cell.arrival_rate_hz:.0f}",
                cell.spill_policy,
                cell.admitted,
                cell.rejected,
                f"{cell.admitted_fraction:.0%}",
                cell.spills,
                cell.migrations,
                cell.rollbacks,
                f"{cell.p50_boot_ms:.1f}",
                f"{cell.p99_boot_ms:.1f}",
            ))
        return rows

    def render(self) -> str:
        table = render_table(
            ["pods", "rate (/s)", "spill", "ok", "rej", "admit",
             "spills", "migr", "rolled", "p50 (ms)", "p99 (ms)"],
            self.rows(),
            title=f"Multi-pod federation: {self.tenant_count} tenants "
                  f"per cell, {HOT_POD_SHARE:.0%} homed on pod0, "
                  f"pinned-to-home vs spill placement")
        lines = [table]
        top = max(self.rates)
        for pods in self.pod_counts:
            for policy in self.policies:
                rate = self.sustained_rate(pods, policy)
                lines.append(
                    f"{pods} pod(s) / {policy}: sustains "
                    f"{rate:.0f}/s aggregate "
                    f"(>= {SUSTAIN_FRACTION:.0%} admitted)")
            if len(self.policies) > 1 and "never" in self.policies:
                spill_policies = [p for p in self.policies
                                  if p != "never"]
                # Quote the admitted counts of the policy that actually
                # achieves the best sustained rate, not an arbitrary one.
                best_policy = max(
                    spill_policies,
                    key=lambda p: (self.sustained_rate(pods, p), p))
                best = self.sustained_rate(pods, best_policy)
                pinned = self.sustained_rate(pods, "never")
                pinned_cell = self.cell(pods, top, "never")
                spill_cell = self.cell(pods, top, best_policy)
                lines.append(
                    f"{pods} pod(s) at {top:.0f}/s: pinned admits "
                    f"{pinned_cell.admitted}/{pinned_cell.admitted + pinned_cell.rejected}"
                    f" vs {spill_cell.admitted}/"
                    f"{spill_cell.admitted + spill_cell.rejected} with "
                    f"spill — sustained rate {pinned:.0f}/s -> "
                    f"{best:.0f}/s (the hot pod's overflow lands on "
                    f"free capacity instead of the rejection path)")
        lines.append(
            "(global placer: locality-first with least-loaded spill; "
            "idle-window rebalancer drains the hot pod between bursts)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------

def _home_of(pod_ids: list[str], hot_share: float):
    """Skewed home assignment: *hot_share* of tenants (by a stable hash
    of their id) call the first pod home; the rest spread uniformly
    over the remaining pods (or the first again, with one pod)."""
    def choose(spec: TenantSpec) -> str:
        digest = zlib.crc32(spec.tenant_id.encode("utf-8"))
        if len(pod_ids) == 1 or (digest % 10_000) < hot_share * 10_000:
            return pod_ids[0]
        alternates = pod_ids[1:]
        return alternates[(digest // 10_000) % len(alternates)]
    return choose


def _run_cell(base: TopologySpec, pod_count: int, rate_hz: float,
              policy: str, tenant_count: int, seed: int,
              workers: Optional[int] = None,
              sync_window: Optional[float] = None,
              replica_groups: Optional[int] = None) -> FederationCell:
    rebalancer = (FederationRebalancer(interval_s=0.25,
                                       imbalance_threshold=0.2)
                  if policy != "never" else None)
    # The cell's topology is the base spec with the swept axes applied;
    # the operational surface (domains, maintenance windows) belongs to
    # the availability/maintenance drivers, so the sweep strips it —
    # which also keeps any pod-count override valid against schedules
    # written for the base pod count.
    spec = base.override(
        pods=pod_count, spill_policy=policy,
        replica_groups=replica_groups,
        domains=[], maintenance={"windows": []})
    topo = compile_spec(spec, workers=workers,
                        sync_window_s=sync_window,
                        rebalancer=rebalancer)
    federation = topo.federation
    pod_ids = sorted(federation.pods)
    close = topo.close
    # One trace per (rate, seed): every policy/pod-count cell at a rate
    # faces literally the same offered load.
    trace = poisson_trace(
        tenant_count, rate_hz, vcpus=TENANT_VCPUS,
        ram_bytes=TENANT_RAM_BYTES, mean_lifetime_s=MEAN_LIFETIME_S,
        scale_fraction=0.0, seed=seed, name=f"fed-a{rate_hz:g}")
    if replica_groups is not None:
        # Same arrivals and shapes; ids gain a ~gNNNN suffix so the
        # placer's anti-affinity spreads each group over distinct pods.
        trace = with_replica_groups(trace, replica_groups)
    try:
        stats = federation.serve_trace(
            trace, home_of=_home_of(pod_ids, HOT_POD_SHARE))
    finally:
        close()
    return FederationCell(
        pod_count=pod_count,
        arrival_rate_hz=rate_hz,
        spill_policy=policy,
        admitted=stats.boots_admitted,
        rejected=stats.boots_rejected,
        spills=stats.spills,
        migrations=stats.migrations,
        rollbacks=stats.migration_rollbacks,
        p50_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(50)),
        p99_boot_ms=to_milliseconds(
            stats.admission_latency_percentile(99)),
        duration_s=stats.duration_s,
    )


def run_federation(pod_counts: tuple[int, ...] = (2, 3),
                   arrival_rates_hz: tuple[float, ...] = (5, 8, 14, 20),
                   tenant_count: int = 120,
                   seed: int = 2018,
                   pods: Optional[int] = None,
                   spill_policy: Optional[str] = None,
                   workers: Optional[int] = None,
                   sync_window: Optional[float] = None,
                   replica_groups: Optional[int] = None,
                   topology: Optional[str] = None
                   ) -> FederationResult:
    """Sweep pod count × aggregate arrival rate × spill policy.

    *pods* (the CLI ``--pods`` flag) pins the pod-count axis to one
    value; *spill_policy* (``--spill-policy``) pins the policy axis —
    by default ``never`` (pinned-to-home baseline) and ``least-loaded``
    are compared.  *workers* (``--workers``) switches every cell to the
    message-passing parallel federation backend — ``0`` runs its
    in-process serial reference, ``N >= 1`` spreads the pods over *N*
    OS processes; *sync_window* (``--sync-window``, seconds) overrides
    its conservative lookahead.  The parallel backend is deterministic
    across worker counts but models explicit coordinator↔pod link
    latency, so its cells differ (physically, not numerically) from
    the direct-call serial sweep's.

    *replica_groups* (``--replica-groups``, an int >= 2) groups every
    *N* consecutive tenants into a replica set and turns on the
    placer's anti-affinity so group members land on distinct pods —
    one pod (or failure-domain) loss then never takes a whole group
    down.  Serial backend only.

    *topology* (``--topology``: a template name like ``M`` or a spec
    file path) names the compiled topology every cell derives from.
    Without it the sweep compiles the :data:`DEFAULT_TOPOLOGY`
    template over the usual pod-count axis; with it the pod axis pins
    to the spec's own pod count (``--pods`` still overrides), and the
    spec's replica-group policy takes effect unless
    ``--replica-groups`` is passed.
    """
    if pods is not None and pods < 1:
        raise ConfigurationError(f"need >= 1 pod, got {pods}")
    base = load_spec(topology if topology is not None
                     else DEFAULT_TOPOLOGY)
    if replica_groups is None:
        replica_groups = base.replica_groups
    if spill_policy is not None and spill_policy not in SPILL_POLICIES:
        raise ConfigurationError(
            f"unknown spill policy {spill_policy!r}; known: "
            f"{', '.join(SPILL_POLICIES)}")
    if workers is not None and workers < 0:
        raise ConfigurationError(
            f"--workers must be >= 0 (0 = in-process parallel "
            f"backend), got {workers}")
    if sync_window is not None:
        if workers is None:
            raise ConfigurationError(
                "--sync-window only applies to the parallel backend; "
                "pass --workers as well (0 for its in-process mode)")
        if not sync_window > 0:
            raise ConfigurationError(
                f"--sync-window must be positive seconds, got "
                f"{sync_window}")
    if replica_groups is not None:
        if replica_groups < 2:
            raise ConfigurationError(
                f"--replica-groups needs groups of >= 2 replicas for "
                f"anti-affinity to mean anything, got {replica_groups}")
        if workers is not None:
            raise ConfigurationError(
                "--replica-groups only runs on the serial federation "
                "backend: the anti-affinity ledger is coordinator-"
                "local; drop --workers")
    if pods is not None:
        pod_axis: tuple[int, ...] = (pods,)
    elif topology is not None:
        pod_axis = (base.pods,)
    else:
        pod_axis = pod_counts
    policy_axis = ((spill_policy,) if spill_policy is not None
                   else DEFAULT_POLICIES)
    result = FederationResult(tenant_count=tenant_count)
    for pod_count in pod_axis:
        for rate_hz in arrival_rates_hz:
            for policy in policy_axis:
                result.cells.append(_run_cell(
                    base, pod_count, float(rate_hz), policy,
                    tenant_count, seed, workers=workers,
                    sync_window=sync_window,
                    replica_groups=replica_groups))
    return result
