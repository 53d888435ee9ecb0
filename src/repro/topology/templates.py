"""Named S/M/L/XL design templates.

The Infrahub datacenter-flow exemplar (SNIPPETS.md §1) ships validated
S/M/L/XL design patterns a deployment picks by name and adjusts; these
templates are the same idea for the dReDBox federation.  Each is a
complete raw spec dict — :func:`template` validates it (optionally with
overrides merged in) into a :class:`~repro.topology.spec.TopologySpec`.

========  ====  ==========  ==================  =======================
template  pods  racks/pod   bricks per rack     operational surface
========  ====  ==========  ==================  =======================
``S``     2     1           2 CB + 2 MB (16G)   none (smoke/dev)
``M``     3     2           2 CB + 2 MB (16G)   rack-power + pod-network
                                                domains, pod0 drain @4s
``L``     4     2           8 CB + 4 MB (256G)  rack-power domains
``XL``    8     4           8 CB + 8 MB (512G)  both domain layers,
                                                3-pod rolling drain,
                                                3-replica groups
========  ====  ==========  ==================  =======================

``M`` is the experiments' workhorse: it compiles to exactly the
federation the ``federation``/``availability``/``maintenance`` drivers
used to hand-build (three ``PodBuilder`` pods, two racks each, per-rack
sharded controllers), which the compiler tests pin with a federation
fingerprint.  ``L`` is the wide shape behind fedbench's ``steady_L``
and ``parallel_L0`` (wide pods, spread placement, per-request dispatch,
24 ms sync window).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import TopologyError
from repro.topology.spec import TopologySpec, merge_spec

#: Raw template dicts, deliberately dict-shaped (not TopologySpec
#: instances) so ``template(name, overrides)`` merges before a single
#: validation pass — an override can therefore relax or tighten any
#: field and still get path-qualified errors.
TEMPLATES: dict[str, dict] = {
    "S": {
        "name": "S",
        "pods": 2,
        "racks_per_pod": 1,
        "rack": {
            "compute_bricks": 2,
            "compute_cores": 16,
            "local_memory_bytes": "1GiB",
            "memory_bricks": 2,
            "memory_modules": 2,
            "module_bytes": "4GiB",
        },
        "section_bytes": "256MiB",
        "placement": "pack",
        "spill_policy": "least-loaded",
    },
    "M": {
        "name": "M",
        "pods": 3,
        "racks_per_pod": 2,
        "rack": {
            "compute_bricks": 2,
            "compute_cores": 16,
            "local_memory_bytes": "1GiB",
            "memory_bricks": 2,
            "memory_modules": 2,
            "module_bytes": "4GiB",
        },
        "section_bytes": "256MiB",
        "placement": "pack",
        "spill_policy": "least-loaded",
        "domains": [
            {"kind": "rack-power", "mtbf_s": 60.0, "mttr_s": 4.0},
            {"kind": "pod-network", "mtbf_s": 60.0, "mttr_s": 4.0},
        ],
        "maintenance": {
            "windows": [{"pod": "pod0", "at_s": 4.0}],
        },
    },
    "L": {
        "name": "L",
        "pods": 4,
        "racks_per_pod": 2,
        "rack": {
            "compute_bricks": 8,
            "compute_cores": 16,
            "local_memory_bytes": "1GiB",
            "memory_bricks": 4,
            "memory_modules": 8,
            "module_bytes": "8GiB",
        },
        "section_bytes": "256MiB",
        "placement": "spread",
        "spill_policy": "least-loaded",
        "control": {"max_batch": 1},
        "fabric": {"sync_window_s": 24e-3},
        "domains": [
            {"kind": "rack-power", "mtbf_s": 300.0, "mttr_s": 15.0},
        ],
    },
    "XL": {
        "name": "XL",
        "pods": 8,
        "racks_per_pod": 4,
        "rack": {
            "compute_bricks": 8,
            "compute_cores": 16,
            "local_memory_bytes": "1GiB",
            "memory_bricks": 8,
            "memory_modules": 8,
            "module_bytes": "8GiB",
        },
        "section_bytes": "256MiB",
        "placement": "spread",
        "spill_policy": "least-loaded",
        "replica_groups": 3,
        "domains": [
            {"kind": "rack-power", "mtbf_s": 300.0, "mttr_s": 15.0},
            {"kind": "pod-network", "mtbf_s": 600.0, "mttr_s": 10.0},
        ],
        "maintenance": {
            "windows": [
                {"pod": "pod0", "at_s": 5.0},
                {"pod": "pod1", "at_s": 10.0},
                {"pod": "pod2", "at_s": 15.0},
            ],
        },
    },
}

TEMPLATE_NAMES = tuple(TEMPLATES)


def template(name: str,
             overrides: Optional[Mapping] = None) -> TopologySpec:
    """Validate template *name* (with optional *overrides* merged in,
    one mapping level deep) into a :class:`TopologySpec`."""
    if name not in TEMPLATES:
        raise TopologyError(
            f"unknown template {name!r}; known: "
            f"{', '.join(TEMPLATE_NAMES)}", path="template")
    raw = TEMPLATES[name]
    if overrides:
        raw = merge_spec(raw, overrides)
    return TopologySpec.from_dict(raw)
