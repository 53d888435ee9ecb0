"""Command-line entry point: run the paper's experiments.

Usage::

    dredbox-repro list
    dredbox-repro run fig12
    dredbox-repro run federation --set pods=2 --set spill_policy=never
    dredbox-repro run-all --seed 7
    dredbox-repro topology validate examples/topologies/*.json
    dredbox-repro topology describe M

``list`` prints each experiment with the axes its driver declares;
``--set AXIS=VALUE`` (repeatable) pins one of them, typed by the
driver's annotation.  A configuration error prints one line and exits
with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    EXPERIMENTS,
    axes,
    parse_assignments,
    run_all,
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``run`` and ``run-all``."""
    parser.add_argument("--seed", type=int, default=None,
                        help="base RNG seed threaded through the "
                             "experiment (default: each driver's own)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="AXIS=VALUE",
                        help="pin one of the experiment's axes, e.g. "
                             "--set pods=2 (repeatable; `list` shows "
                             "every experiment's axes)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each experiment in cProfile and "
                             "append the hottest functions (sorted by "
                             "cumulative time) to its report")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="dredbox-repro",
        description="Reproduce the dReDBox (DATE 2018) tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS),
                     help="experiment id (paper table/figure)")
    _add_run_flags(run)

    run_all_cmd = sub.add_parser("run-all", help="run every experiment")
    _add_run_flags(run_all_cmd)

    topology = sub.add_parser(
        "topology", help="validate or describe topology specs")
    topology_sub = topology.add_subparsers(dest="topology_command",
                                           required=True)
    validate = topology_sub.add_parser(
        "validate",
        help="validate specs (template names or spec files) and print "
             "a one-line summary per spec; exit 1 on the first "
             "invalid one")
    validate.add_argument("specs", nargs="+",
                          help="template name (S, M, L, XL) or path "
                               "to a .json/.yaml spec file")
    describe = topology_sub.add_parser(
        "describe",
        help="print a spec's canonical normalized form as JSON "
             "(compile -> describe -> re-compile is a fixed point)")
    describe.add_argument("spec",
                          help="template name (S, M, L, XL) or path "
                               "to a .json/.yaml spec file")
    return parser


def _spec_summary(spec) -> str:
    """One human-readable line for ``topology validate`` output."""
    from repro.units import gib
    surface = []
    if spec.domains:
        surface.append(
            "domains: " + ", ".join(d.kind for d in spec.domains))
    if spec.maintenance:
        surface.append(f"{len(spec.maintenance)} drain window(s)")
    if spec.replica_groups:
        surface.append(f"replica groups of {spec.replica_groups}")
    return (f"{spec.name}: {spec.pods} pod(s) x {spec.racks_per_pod} "
            f"rack(s) x {spec.bricks_per_rack} brick(s), pool "
            f"{spec.pool_bytes / gib(1):g} GiB, "
            f"placement {spec.placement}/{spec.spill_policy}"
            + (" — " + "; ".join(surface) if surface else ""))


def _run_topology(args: argparse.Namespace) -> int:
    from repro.errors import TopologyError
    from repro.topology import load_spec
    if args.topology_command == "validate":
        for source in args.specs:
            try:
                spec = load_spec(source)
            except TopologyError as error:
                print(f"INVALID {source}: {error}", file=sys.stderr)
                return 1
            print(f"ok {source} — {_spec_summary(spec)}")
        return 0
    try:
        spec = load_spec(args.spec)
    except TopologyError as error:
        print(f"dredbox-repro: error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(spec.to_dict(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, driver in EXPERIMENTS.items():
            declared = " ".join(f"{axis}={kind.__name__}"
                                for axis, kind in axes(driver).items())
            print(f"{name:<14}{declared}".rstrip())
        return 0
    if args.command == "topology":
        return _run_topology(args)
    names = [args.experiment] if args.command == "run" else None
    try:
        report = run_all(names, seed=args.seed, profile=args.profile,
                         **parse_assignments(names, args.set))
    except ConfigurationError as error:
        print(f"dredbox-repro: error: {error}", file=sys.stderr)
        return 2
    if args.command == "run-all":
        print(report.rendered())
        return 0
    print(report.runs[0].rendered)
    if report.runs[0].profile is not None:
        print(report.runs[0].profile)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
