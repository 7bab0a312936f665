"""Compare two sets of benchmark runs: ``python3 perf/compare.py A/*.json B/*.json``.

Arguments are summaries written by ``run.py --out`` (or directories
holding them).  They are grouped by directory, in the order given:
the first directory is side A (the parent), the second side B (the
change).  For every workload and end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles and a verdict:

* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the metric's bound, and not every run of B
  beats every run of A;
* ``worse`` / ``better``: the medians differ by more than the bound;
* ``same`` otherwise.

When the summaries come from traced runs it also names, per workload,
the layer whose share of the traced self time moved most.  Exits 1 if
any verdict is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def group_by_directory(arguments: List[str]) -> List[List[str]]:
    groups: Dict[str, List[str]] = {}
    for argument in arguments:
        paths = (sorted(glob.glob(os.path.join(argument, "*.json")))
                 if os.path.isdir(argument) else [argument])
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            groups.setdefault(directory, []).append(path)
    return list(groups.values())


def load_values(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for path in paths:
        with open(path) as handle:
            for result in json.load(handle)["results"]:
                for metric, entry in result["metrics"].items():
                    values[result["workload"], metric].append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The verdict and B's signed change, positive meaning better."""
    sign = -1.0 if better == "lower" else 1.0
    median_a = statistics.median(a)
    change = sign * (statistics.median(b) - median_a) / median_a
    if spread(a) > bound or spread(b) > bound:
        b_wins = min(sign * v for v in b) > max(sign * v for v in a)
        return ("better" if b_wins else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def self_shares(values: Dict, workload: str) -> Dict[str, Tuple[float, float]]:
    """layer -> (median self time per op, its share of all layers')."""
    medians = {metric[:-len(".self_s")]: statistics.median(samples)
               for (name, metric), samples in values.items()
               if name == workload and metric.endswith(".self_s")
               and metric != "workloads.generate.self_s"}
    total = sum(medians.values())
    return {layer: (self_s, self_s / total if total else 0.0)
            for layer, self_s in medians.items()}


def top_mover(a: Dict, b: Dict, workload: str):
    """The layer whose share of traced self time moved most.

    Shares, not seconds: other load on the host slows every layer at
    once, which moves the largest layer's seconds most but leaves the
    shares alone.  Returns (layer, share A, share B, seconds delta).
    """
    before, after = self_shares(a, workload), self_shares(b, workload)
    best = None
    for layer in before.keys() & after.keys():
        moved = after[layer][1] - before[layer][1]
        if best is None or abs(moved) > abs(best[2] - best[1]):
            best = (layer, before[layer][1], after[layer][1],
                    after[layer][0] - before[layer][0])
    return best


def compare(side_a: List[str], side_b: List[str], out=sys.stdout) -> int:
    with open(BENCHMARK) as handle:
        declared = json.load(handle)["end_to_end"]
    a, b = load_values(side_a), load_values(side_b)
    workloads = sorted({workload for workload, _ in a} & {w for w, _ in b})
    print("A: %d files, B: %d files" % (len(side_a), len(side_b)), file=out)
    print("%-19s %-16s %-32s %-32s %7s %5s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B gain", "bound", "verdict"), file=out)
    worse = 0
    for workload in workloads:
        for entry in declared:
            key = (workload, entry["name"])
            if key not in a or key not in b:
                continue
            result, change = verdict(a[key], b[key], entry["better"],
                                     entry["bound"])
            worse += result == "worse"
            print("%-19s %-16s %-32s %-32s %+6.1f%% %5.2f  %s" % (
                workload, entry["name"], _describe(a[key]),
                _describe(b[key]), 100.0 * change, entry["bound"], result),
                file=out)
    for workload in workloads:
        mover = top_mover(a, b, workload)
        if mover is not None:
            layer, share_a, share_b, delta = mover
            print("%s: self time moved most in %s (share %.1f%% -> %.1f%%, "
                  "%+.6f s/op)" % (workload, layer, 100.0 * share_a,
                                   100.0 * share_b, delta), file=out)
    return 1 if worse else 0


def _describe(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def main(argv=None) -> int:
    groups = group_by_directory(sys.argv[1:] if argv is None else argv)
    if len(groups) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        print("need result files from exactly two directories, got %d"
              % len(groups), file=sys.stderr)
        return 2
    return compare(groups[0], groups[1])


if __name__ == "__main__":
    sys.exit(main())
