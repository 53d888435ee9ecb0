"""Experiment drivers: one module per paper table/figure.

Every driver exposes ``run(...) -> <Result>`` where the result carries
``rows()`` (the data the paper's artifact reports) and ``render()``
(a plain-text rendition of the table/figure).  The benchmarks in
``benchmarks/`` call these drivers; :mod:`repro.experiments.runner`
executes the full set.

Mapping (see DESIGN.md §2):

* ``table1_workloads`` — Table I, the VM workload mixes.
* ``fig7_ber`` — BER vs received optical power, channels through 6-8
  switch hops.
* ``fig8_latency`` — round-trip remote-memory latency breakdown on the
  packet-switched path.
* ``fig10_agility`` — scale-up delay vs conventional scale-out under
  8/16/32-way concurrency.
* ``fig12_poweroff`` — percentage of unutilized resources powered off.
* ``fig13_energy`` — power consumption normalized to conventional.

Beyond the paper's artifacts:

* ``pod_scale`` — VM density and remote-memory latency vs. pod size
  (1..8 racks behind the inter-rack switch tier).
* ``datamover`` — remote-memory data-mover cache/scheduler sweep.
* ``cluster_scale`` — control-plane latency under arrival rate × pod
  size × controller shard count (``--set shards=N``).
* ``federation`` — multi-pod global placement under pods × aggregate
  arrival rate × spill policy (``--set pods=N``,
  ``--set spill_policy=P``).
"""

from repro.experiments.fig7_ber import Fig7Result, run_fig7
from repro.experiments.fig8_latency import Fig8Result, run_fig8
from repro.experiments.fig10_agility import Fig10Result, run_fig10
from repro.experiments.fig12_poweroff import Fig12Result, run_fig12
from repro.experiments.fig13_energy import Fig13Result, run_fig13
from repro.experiments.pod_scale import PodScaleResult, run_pod_scale
from repro.experiments.table1_workloads import Table1Result, run_table1

__all__ = [
    "Fig10Result",
    "Fig12Result",
    "Fig13Result",
    "Fig7Result",
    "Fig8Result",
    "PodScaleResult",
    "Table1Result",
    "run_fig10",
    "run_fig12",
    "run_fig13",
    "run_fig7",
    "run_fig8",
    "run_pod_scale",
    "run_table1",
]
