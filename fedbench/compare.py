"""Compare two benchmark result files: parent and change.

From the repository root::

    python3 fedbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold records appended by ``fedbench/run.py`` (its
``--results`` file).  Run the two sides alternately, one seed at a
time: host speed drifts for minutes, so a side run entirely later can
win most pairs with identical code.  For every workload present in
both and every end-to-end metric of ``BENCHMARK.json``, the
``--trace 0`` runs of each
side give a median and quartiles; runs with the same seed form pairs
(runs without a partner pair by position).  The verdict follows the
benchmark's bounds:

``better``
    the change won at least 90 % of the pairs (ties count for neither)
    and its median beats the parent's by more than the distance between
    the parent's quartiles;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median);
``unresolved``
    either side's quartile distance exceeds the bound, so a regression
    of the bound's size could hide in the noise — unless every change
    run reads better than every parent run;
``same``
    none of these: no regression beyond the bound.

The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Correct ``--trace 0`` records of *path*, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    with path.open(encoding="utf-8") as records:
        for line in records:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace") == 0 and record.get("correct"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Same-seed pairs first, then the leftovers by position."""
    by_seed = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    matched, parent_left = [], []
    for record in parent:
        partners = by_seed.get(record["seed"])
        if partners:
            matched.append((record, partners.pop(0)))
        else:
            parent_left.append(record)
    change_left = [r for group in by_seed.values() for r in group]
    return matched + list(zip(parent_left, change_left))


def verdict(metric: dict, parent: list[float], change: list[float],
            won: float) -> str:
    higher = metric["better"] == "higher"
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = (c_median - p_median) if higher else (p_median - c_median)
    if won >= WIN_SHARE and gain > p_q3 - p_q1:
        return "better"
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    spread = max((p_q3 - p_q1) / p_median if p_median else 0.0,
                 (c_q3 - c_q1) / c_median if c_median else 0.0)
    if -gain > metric["bound"] * abs(p_median):
        return "worse"
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "same"


def compare(parent_path: Path, change_path: Path,
            benchmark_path: Path) -> tuple[list[str], bool]:
    """The report lines, and whether any verdict is ``worse``."""
    metrics = json.loads(benchmark_path.read_text())["end_to_end"]
    parent_runs = load_runs(parent_path)
    change_runs = load_runs(change_path)
    lines = [f"{'workload':12s} {'metric':20s} "
             f"{'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'delta':>8s} "
             f"{'won':>5s}  verdict"]
    any_worse = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        all_pairs = pairs(parent_runs[workload], change_runs[workload])
        for metric in metrics:
            name = metric["name"]
            parent = [r["metrics"][name]["value"]
                      for r in parent_runs[workload] if name in r["metrics"]]
            change = [r["metrics"][name]["value"]
                      for r in change_runs[workload] if name in r["metrics"]]
            if not parent or not change:
                lines.append(f"{workload:12s} {name:20s} not in both files")
                continue
            matched = [(old, new) for old, new in all_pairs
                       if name in old["metrics"] and name in new["metrics"]]
            higher = metric["better"] == "higher"
            wins = sum(
                1 for old, new in matched
                if (new["metrics"][name]["value"]
                    != old["metrics"][name]["value"])
                and ((new["metrics"][name]["value"]
                      > old["metrics"][name]["value"]) == higher))
            won = wins / len(matched) if matched else 0.0
            result = verdict(metric, parent, change, won)
            any_worse |= result == "worse"
            p_q1, p_median, p_q3 = quartiles(parent)
            c_q1, c_median, c_q3 = quartiles(change)
            delta = ((c_median - p_median) / p_median * 100
                     if p_median else 0.0)
            lines.append(
                f"{workload:12s} {name:20s} "
                f"{p_median:12.6g} [{p_q1:9.6g}, {p_q3:9.6g}] "
                f"{c_median:12.6g} [{c_q1:9.6g}, {c_q3:9.6g}] "
                f"{delta:+7.1f}% {won:5.0%}  {result}"
                f"  ({len(parent)} vs {len(change)} runs, "
                f"{wins}/{len(matched)} pairs won, bound "
                f"{metric['bound'] * 100:g}%)")
    only = sorted(set(parent_runs) ^ set(change_runs))
    if only:
        lines.append(f"workloads in only one file: {', '.join(only)}")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json",
                        help="file holding the metrics and their bounds")
    args = parser.parse_args(argv)
    lines, any_worse = compare(args.parent, args.change, args.benchmark)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
