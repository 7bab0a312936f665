"""Run the benchmark: ``python3 perf/run.py --workload NAME --seed S``.

Options: ``--workload all|NAME[,NAME]``, ``--seed S``, ``--seconds T``
of measurement per workload, ``--trace 0|1`` (1 for the traced
per-layer run) and ``--out F`` to write the run's summary as JSON.
Several workloads run one after the other, each in its own process, so
peak RSS is per workload.

Prints one ``workload metric value unit`` line per metric, ``#`` lines
with the digest and the op counts, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
For several workloads that object covers all of them and its
``metrics`` are keyed by workload.  Exits 1 when any op fails or a
pinned digest does not match.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

PERF = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERF), "src")
OUT = os.path.join(PERF, "out")
#: Set-ups per untraced run; ``setup_s`` is their median.  The first is
#: this process's own; the others run in fresh processes spread over the
#: measurement, so a burst of other load on the host reaches few of them.
SETUP_SAMPLES = 5
DEFAULT_SECONDS = 20.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="all, a workload name, or a comma list")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1 for the traced per-layer run")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_harness():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perf/run.py: program sources not found in %s" % SRC)
    sys.path[:0] = [SRC, PERF]
    import harness

    return harness


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def setup_sample(args) -> float:
    """Set-up time of a fresh process, as it measures it."""
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(result.stdout.splitlines()[-1])["setup_s"]


def write_json(path: str, data) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_workload(args) -> int:
    harness = import_harness()
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(harness.WORKLOADS)), file=sys.stderr)
        return 2
    inputs = harness.setup(workload, args.seed)
    setup_s = harness.in_reference_seconds(time.perf_counter() - STARTED)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    samples = [setup_s]
    every = None
    if not args.trace:
        every = (args.seconds / SETUP_SAMPLES,
                 lambda: samples.append(setup_sample(args)))
    summary, trace_data = harness.bench(workload, inputs, args.seed,
                                        args.seconds, trace=bool(args.trace),
                                        every=every)
    metrics = summary["metrics"]
    if metrics and not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            **metrics,
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        summary["metrics"] = metrics
    if trace_data is not None:
        write_json(os.path.join(OUT, "trace-%s-seed%d.json"
                                % (workload.name, args.seed)), trace_data)
    name = workload.name
    for metric, entry in metrics.items():
        print("%s %s %r %s" % (name, metric, entry["value"], entry["unit"]))
    print("# %s digest %s %s" % (name, summary["digest"], summary["pinned"]))
    if "trace_digest" in summary:
        print("# %s trace_digest %s" % (name, summary["trace_digest"]))
    print("# %s attempted %d failed %d" % (name, summary["attempted"],
                                           summary["failed"]))
    if args.out:
        write_json(args.out, {"results": [summary]})
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if summary["correct"] else 1


def run_several(args, names) -> int:
    """Each workload in its own process, one after the other; then one
    result line for them all."""
    results = []
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        part = os.path.join(OUT, "part-%s-seed%d.json" % (name, args.seed))
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", part]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        for line in child.stdout.splitlines():
            if not line.startswith("{"):  # the child's own result line
                print(line, flush=True)
        if child.returncode or not os.path.exists(part):
            total["correct"] = False
        if os.path.exists(part):
            with open(part) as handle:
                summary, = json.load(handle)["results"]
            os.remove(part)
            results.append(summary)
            total["correct"] = total["correct"] and summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            total["metrics"][name] = summary["metrics"]
    if args.out:
        write_json(args.out, {"results": results})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    names = [name for name in args.workload.split(",") if name]
    if names == ["all"]:
        names = list(import_harness().WORKLOADS)
    if len(names) == 1:
        args.workload = names[0]
        return run_workload(args)
    return run_several(args, names)


if __name__ == "__main__":
    sys.exit(main())
