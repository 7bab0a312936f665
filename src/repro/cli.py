"""Command-line interface: the reproduced artifacts and campaigns.

Usage::

    python -m repro paper [NAME ...]  # regenerate the paper's tables/figures
    python -m repro attacks           # Table-1 mitigation matrix
    python -m repro decompose         # use case 1 overhead + exposure
    python -m repro audit             # audit the shipped decompositions
    python -m repro conformance       # differential oracle-vs-PCU fuzz
    python -m repro faults            # fault-injection campaigns
    python -m repro churn             # multi-tenant churn + slot recycling
    python -m repro bench             # evaluation rigs + work trajectory
    python -m repro orchestrate       # status of parallel campaign runs
    python -m repro contracts         # the universal-contract layer

``paper`` runs the artifacts of :mod:`repro.analysis.paper` (all of
them by default), prints each experiment, writes its record to
``benchmarks/results/`` and exits 1 if any shape check failed.

The campaign commands (``conformance``, ``faults``, ``faults
--machine``, ``churn`` and ``attacks --campaign``) monitor every run
against the universal ISA-Grid contracts by default (``--no-contracts``
turns the tap off); any *unwaived* violation — one not attributable to
an armed fault injector — fails the run.  ``contracts --explain``
documents each contract and the events it consumes.

The campaign commands and ``bench`` take one CLI path (see
:func:`_run_campaign_command`) and share the orchestration flags:
``--jobs N`` runs the matrix sharded over a supervised worker pool,
with ``--resume``, ``--run-dir``, ``--shard-timeout`` and ``--profile``
(per-shard cProfile dumps in the run directory).  At ``--jobs 1`` with
none of the others the shards run in-process; reports are
byte-identical either way.  ``bench`` writes a ``BENCH_<stamp>.json``
trajectory of each rig's simulated work and ``detail``, with its
wall-clock for reading; the ``perf/`` benchmark measures speed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_paper(args) -> int:
    """Regenerate paper artifacts (default: all) into benchmarks/results/."""
    from repro.analysis.paper import ARTIFACTS

    unknown = [name for name in args.names if name not in ARTIFACTS]
    if unknown:
        return _usage_error("unknown artifact %s (choose from %s)"
                            % (", ".join(unknown), ", ".join(ARTIFACTS)))
    return _show_artifacts(args.names or list(ARTIFACTS), write=True)


def _show_artifacts(names: List[str], write: bool) -> int:
    """Print each artifact's experiments (and, with ``write``, their
    records); ``FAIL: <artifact>: <check>`` on stderr for every failed
    check.  Exit 1 when any check failed."""
    from repro.analysis.paper import ARTIFACTS, write_record

    failed = False
    for name in names:
        result = ARTIFACTS[name]()
        for experiment in result.experiments:
            print(experiment.render())
            print()
            if write:
                write_record(experiment)
        for check in result.failed:
            print("FAIL: %s: %s" % (name, check), file=sys.stderr)
        failed = failed or bool(result.failed)
    return 1 if failed else 0


def _cmd_attacks(args) -> int:
    if args.campaign:
        return _run_attack_campaigns(args)
    return _show_artifacts(["table1"], write=False)


def _run_attack_campaigns(args) -> int:
    """Unintended-instruction campaigns: binary-scan baseline vs PCU.

    Gadget-bearing streams are generated per seed (one shard per seed);
    the ERIM-style scanner and the PCU-enforced decode race on every
    planted gadget.  Fails unless the baseline misses at least one
    gadget the PCU faults on, the legitimate stream stays fault-free,
    every sealed probe is denied, and no unwaived contract violation
    fired.
    """
    from repro.attacks import gadget_counts, write_attack_report

    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError:
        print("bad --seeds %r (want comma-separated ints)" % args.seeds,
              file=sys.stderr)
        return 2
    if not seeds:
        print("no seeds given", file=sys.stderr)
        return 2
    status = _size_error(args, "--streams", "--stream-len")
    if status is not None:
        return status

    def report(records) -> List[str]:
        for record in records:
            counts = gadget_counts(record)
            print("seed %-4d %3d streams  %4d gadgets  scanner=%d/%d  "
                  "pcu=%d/%d  missed-but-blocked=%d  rewrite-corrupted=%d  "
                  "unwaived=%d"
                  % (record["seed"], record["n_streams"], counts["generated"],
                     counts["scanner_detected"], counts["generated"],
                     counts["pcu_blocked"], counts["generated"],
                     counts["scanner_missed_pcu_blocked"],
                     record["rewrite_corrupted"],
                     record["unwaived_contract_violations"]))
        payload = write_attack_report(records, args.report)
        print("report written to %s" % args.report)
        print("scanner miss rate %.1f%%  pcu block rate %.1f%%  "
              "baseline missed %d gadget(s) the PCU blocks"
              % (payload["scanner_miss_rate"] * 100,
                 payload["pcu_block_rate"] * 100,
                 payload["baseline_missed_pcu_blocked"]))
        totals = payload["totals"]
        reasons = []
        if not payload["baseline_missed_pcu_blocked"]:
            reasons.append("the scanner caught everything the PCU caught "
                           "— the campaign demonstrates nothing")
        if totals.get("pcu_blocked") != totals.get("generated"):
            reasons.append("%d gadget(s) escaped the PCU"
                           % (totals.get("generated", 0)
                              - totals.get("pcu_blocked", 0)))
        if totals.get("legit_faults"):
            reasons.append("%d false positive(s) on the legitimate stream"
                           % totals["legit_faults"])
        if totals.get("sealed_blocked") != totals.get("sealed_probes"):
            reasons.append("a sealed-class probe executed")
        if payload["unwaived_contract_violations"]:
            reasons.append("%d unwaived contract violation(s)"
                           % payload["unwaived_contract_violations"])
        return reasons

    return _run_campaign_command(args, "attacks", {
        "seeds": seeds, "n_streams": args.streams,
        "stream_len": args.stream_len, "contracts": args.contracts,
    }, report)


def _cmd_decompose(_args) -> int:
    from repro.analysis import format_normalized
    from repro.baselines import compare_exposure
    from repro.kernel import X86Kernel
    from repro.workloads import SQLITE, normalized_time, run_riscv_app, run_x86_app

    for arch, runner in (("riscv", run_riscv_app), ("x86", run_x86_app)):
        native = runner(SQLITE, "native")
        decomposed = runner(SQLITE, "decomposed")
        print("%-6s SQLite normalized time: %s"
              % (arch, format_normalized(normalized_time(decomposed, native))))
    comparison = compare_exposure(X86Kernel("decomposed").system.manager)
    print("exposure: %d resources (levels only) -> worst domain %d (%.0fx reduction)"
          % (comparison.baseline_exposure, comparison.worst_domain_exposure,
             comparison.reduction_factor))
    return 0


def _cmd_audit(_args) -> int:
    from repro.analysis import audit
    from repro.kernel import RiscvKernel, X86Kernel

    for kernel in (RiscvKernel("decomposed"), X86Kernel("decomposed")):
        manager = kernel.system.manager
        report = audit(manager)
        print("%s (%s):" % (kernel.__class__.__name__, manager.isa_map.arch))
        print("    " + report.render().replace("\n", "\n    "))
        print()
    return 0


def _cmd_contracts(args) -> int:
    """List the universal contracts; --explain adds their vocabularies."""
    from repro.contracts import CONTRACT_CLASSES

    for cls in CONTRACT_CLASSES:
        print("%-24s %s" % (cls.name, cls.description))
        if args.explain:
            print("    consumes: %s" % ", ".join(cls.vocabulary))
    if args.explain:
        print()
        print("Violations during fault campaigns are waived when an armed")
        print("injector explains them; unwaived violations fail the run.")
    return 0


def _run_campaign_command(args, kind: str, params, report) -> int:
    """The one CLI path of every campaign command.

    Runs the campaign — in-process at ``--jobs 1`` with no ``--resume``,
    ``--run-dir`` or ``--profile``, otherwise on the supervised pool —
    then lets ``report(merged)`` print the family's summary lines and
    write its report, prints quarantined shards and run metrics, and
    the ``FAIL:`` reasons ``report`` returned.  Exit 0 when clean, 1 on
    a failure reason or a quarantined shard, 2 when ``--resume`` names
    a run directory bound to a different campaign.
    """
    from repro.orchestrator import KINDS, RunDirConflict, run_campaign

    if args.profile:
        params["profile"] = True
    try:
        merged, run, run_dir = run_campaign(
            KINDS[kind], params, jobs=args.jobs, run_dir=args.run_dir,
            resume=args.resume, shard_timeout=args.shard_timeout)
    except RunDirConflict as error:
        print(error, file=sys.stderr)
        return 2
    reasons = report(merged)
    quarantined = []
    if run is not None:
        quarantined = run.quarantined
        for spec in quarantined:
            print("QUARANTINED shard %s (params %s) — see %s/quarantine.json"
                  % (spec.shard_id, spec.params, run_dir), file=sys.stderr)
        print(run.metrics.render())
        print("run directory: %s" % run_dir)
    for reason in reasons:
        print("FAIL: %s" % reason, file=sys.stderr)
    return 1 if reasons or quarantined else 0


def _parse_configs(text: str):
    """``--config`` names (comma-separated, or 'all'); None after
    printing the error when one is unknown."""
    from repro.conformance import CONFORMANCE_CONFIGS

    configs = (tuple(CONFORMANCE_CONFIGS) if text == "all"
               else tuple(text.split(",")))
    unknown = [name for name in configs if name not in CONFORMANCE_CONFIGS]
    if unknown:
        print("unknown config %s (choose from %s)"
              % (", ".join(unknown), ", ".join(CONFORMANCE_CONFIGS)),
              file=sys.stderr)
        return None
    return configs


def _usage_error(message: str) -> int:
    """Print one line of bad campaign input to stderr; exit code 2."""
    print(message, file=sys.stderr)
    return 2


def _size_error(args, *options: str) -> Optional[int]:
    """The usage error for the first size option below 1, else None.

    An unset option (``None``) keeps its default and is not checked.
    """
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None and value < 1:
            return _usage_error("%s must be at least 1, got %d"
                                % (option, value))
    return None


def _backends(args):
    return ("riscv", "x86") if args.backend == "both" else (args.backend,)


def _matrix_report(summarize, matrix_cls, path):
    """The fault, machine and churn ``report``: ``summarize(matrix,
    counts)`` prints each matrix's lines, followed by its widening silent
    divergences; ``matrix_cls.write_report`` writes the report to
    ``path``."""
    from repro.faults import CLASSIFICATIONS

    def report(matrices) -> List[str]:
        for matrix in matrices:
            summarize(matrix, " ".join("%s=%d" % (name, matrix.counts[name])
                                       for name in CLASSIFICATIONS))
            for result in matrix.widening_silent:
                print("    WIDENING SILENT DIVERGENCE: campaign %d %s (%s)"
                      % (result.campaign, result.spec.to_dict(),
                         result.detail))
        payload = matrix_cls.write_report(matrices, path)
        print("report written to %s" % path)
        reasons = []
        if payload["widening_silent_divergences"]:
            reasons.append("%d widening fault(s) diverged with no detection"
                           % payload["widening_silent_divergences"])
        if payload["unwaived_contract_violations"]:
            reasons.append("%d unwaived contract violation(s) — not "
                           "attributable to any armed fault"
                           % payload["unwaived_contract_violations"])
        return reasons

    return report


def _cmd_conformance(args) -> int:
    """Differential conformance fuzz: cached PCU vs the oracle spec."""
    from repro.conformance import (
        DEFAULT_CONFIGS,
        DifferentialRunner,
        inject_cache_fill_bug,
        load_reproducer,
    )

    if args.replay:
        try:
            backend, config, events = load_reproducer(args.replay)
        except OSError as error:
            print("cannot read reproducer: %s" % error, file=sys.stderr)
            return 2
        runner = DifferentialRunner(
            backend, config=config, layer=args.layer,
            mutate=inject_cache_fill_bug if args.inject_bug else None)
        divergence = runner.replay(events)
        if divergence is None:
            print("%s/%s: replay of %d events: no divergence"
                  % (backend, config, len(events)))
            return 0
        print("%s/%s: DIVERGENCE at %s" % (backend, config,
                                           divergence.describe()))
        return 1

    status = _size_error(args, "--events")
    if status is not None:
        return status
    configs = _parse_configs(args.config or ",".join(DEFAULT_CONFIGS))
    if configs is None:
        return 2
    params = {
        "backends": _backends(args), "configs": configs, "seed": args.seed,
        "n_events": args.events, "layer": args.layer,
        "scrub_interval": args.scrub_interval,
        "oracle_only": args.oracle_only, "dump_dir": ".",
        "contracts": args.contracts,
    }
    if args.inject_bug:
        params["inject_bug"] = True

    def report(payloads) -> List[str]:
        failed = sum(_print_conformance_summary(p) for p in payloads)
        return (["%d (backend, config) pair(s) diverged or broke a contract"
                 % failed] if failed else [])

    return _run_campaign_command(args, "conformance", params, report)


def _print_conformance_summary(payload) -> int:
    """Print one (backend, config) fuzz summary; returns 1 on failure.

    One formatter for both execution paths keeps ``--jobs N`` output
    line-identical with the serial path.
    """
    backend, config = payload["backend"], payload["config"]
    outcomes = " ".join("%s=%d" % (k, v)
                        for k, v in sorted(payload["outcomes"].items()))
    monitored = payload.get("contracts") is not None
    contracts_note = ("  contracts=%d unwaived=%d"
                      % (sum(payload["contracts"].values()),
                         payload.get("contract_unwaived", 0))
                      if monitored else "")
    if payload["clean"]:
        print("%-6s %-10s %6d events  %s  divergences=0%s"
              % (backend, config, payload["events"], outcomes,
                 contracts_note))
        return 0
    if payload["divergence"] is not None:
        print("%-6s %-10s %6d events  DIVERGENCE: %s"
              % (backend, config, payload["events"], payload["divergence"]))
        if payload["reproducer_path"]:
            print("    reproducer dumped to %s" % payload["reproducer_path"])
    for detection in payload["scrub_detections"]:
        print("%-6s %-10s  SCRUB DETECTION: %s" % (backend, config, detection))
    if payload.get("contract_unwaived"):
        print("%-6s %-10s  CONTRACT VIOLATION: %s"
              % (backend, config,
                 payload.get("contract_first") or "unwaived violation"))
    return 1


def _cmd_faults(args) -> int:
    """Seeded fault-injection campaigns with scrub/rollback recovery."""
    from repro.faults import CampaignMatrix

    status = _size_error(args, "--faults-per-campaign",
                         "--iterations" if args.machine else "--events")
    if status is not None:
        return status
    if args.machine:
        return _run_machine_faults(args)
    configs = _parse_configs(args.config)
    if configs is None:
        return 2

    def summarize(matrix, counts) -> None:
        print("%-6s %-10s %d campaigns x %d events  %s  "
              "contracts=%d unwaived=%d"
              % (matrix.backend, matrix.config, len(matrix.results),
                 matrix.n_events, counts, matrix.contract_violations,
                 matrix.unwaived_contract_violations))

    return _run_campaign_command(args, "faults", {
        "backends": _backends(args), "configs": configs, "seed": args.seed,
        "n_events": args.events, "n_campaigns": args.campaign,
        "scrub_interval": args.scrub_interval,
        "faults_per_campaign": args.faults_per_campaign,
        "contracts": args.contracts,
    }, _matrix_report(summarize, CampaignMatrix,
                      args.report or "results/fault_campaigns.json"))


def _cmd_churn(args) -> int:
    """Tenant-churn campaigns: domain-ID virtualization under fault fire.

    Thousands of logical tenants are spawned, retired and revisited over
    a fixed pool of physical HPT slots while seeded recycle-window
    faults (mid-recycle store faults, generation flips, dropped
    flush-on-reuse) try to leak one tenant's privileges into the next.
    Every campaign runs in lockstep with the oracle and is monitored
    against all eight contracts — ``no_stale_generation`` included.
    """
    from repro.conformance import CONFORMANCE_CONFIGS
    from repro.faults import ChurnMatrix

    status = _size_error(args, "--ops")
    if status is not None:
        return status
    if args.config not in CONFORMANCE_CONFIGS:
        return _usage_error("unknown config %s (choose from %s)"
                            % (args.config, ", ".join(CONFORMANCE_CONFIGS)))
    max_domains = CONFORMANCE_CONFIGS[args.config].max_domains
    if not 1 <= args.slots < max_domains:
        return _usage_error("--slots must be between 1 and %d, got %d"
                            % (max_domains - 1, args.slots))

    def summarize(matrix, counts) -> None:
        percentiles = matrix.to_dict()["latency_percentiles"]
        print("%-6s churn  %d campaigns x %d ops  %s  contracts "
              "unwaived=%d" % (matrix.backend, len(matrix.results),
                               matrix.n_ops, counts,
                               matrix.unwaived_contract_violations))
        print("    %d logical domains over %d slots  slot_exhausted=%d  "
              "check stall p50=%d p99=%d"
              % (matrix.logical_domains, matrix.max_slots,
                 matrix.slot_exhausted, percentiles["p50"],
                 percentiles["p99"]))

    return _run_campaign_command(args, "churn", {
        "backends": _backends(args), "seed": args.seed, "n_ops": args.ops,
        "n_campaigns": args.campaign, "max_slots": args.slots,
        "config": args.config, "scrub_interval": args.scrub_interval,
        "contracts": args.contracts,
    }, _matrix_report(summarize, ChurnMatrix, args.report))


def _run_machine_faults(args) -> int:
    """Machine-level campaigns: faults under the fetch-execute loop.

    ``--events``, ``--config`` and ``--scrub-interval`` are abstract-
    campaign knobs and are ignored here; the machine mode sizes its
    pulse/scrub cadence from the workload geometry (overridable with
    ``--iterations`` / ``--pulse-interval``).
    """
    from repro.faults import DEFAULT_MACHINE_ITERATIONS, MachineCampaignMatrix

    params = {
        "backends": _backends(args), "seed": args.seed,
        "n_campaigns": args.campaign,
        "iterations": (args.iterations if args.iterations is not None
                       else DEFAULT_MACHINE_ITERATIONS),
        "faults_per_campaign": args.faults_per_campaign,
        "scrub_interval": None, "pulse_interval": args.pulse_interval,
        "contracts": args.contracts,
    }
    if args.state_changing_pulses:
        params["state_changing_pulses"] = True

    def summarize(matrix, counts) -> None:
        print("%-6s machine  %d campaigns x %d iterations  %s  "
              "rollbacks=%d contracts=%d unwaived=%d"
              % (matrix.backend, len(matrix.results), matrix.iterations,
                 counts, matrix.rollbacks, matrix.contract_violations,
                 matrix.unwaived_contract_violations))

    return _run_campaign_command(
        args, "machine_faults", params,
        _matrix_report(summarize, MachineCampaignMatrix, args.report
                       or "results/machine_fault_campaigns.json"))


def _cmd_bench(args) -> int:
    """Run the evaluation rigs; write their trajectory file."""
    import os
    import time

    from repro.bench import build_trajectory, resolve_rigs, write_trajectory

    try:
        rigs = resolve_rigs(args.rigs)
    except (KeyError, ValueError) as error:
        return _usage_error(error.args[0])
    fast_path = not args.slow_path
    block_cache = not args.no_block_cache

    def report(payloads) -> List[str]:
        for payload in payloads:
            print("%-16s %10d inst  %14.0f cyc  %8.3f s  %10.0f inst/s"
                  % (payload["rig"], payload["instructions"],
                     payload["cycles"], payload["wall_s"], payload["ips"]))
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = args.out or os.path.join("results", "bench",
                                       "BENCH_%s.json" % stamp)
        write_trajectory(build_trajectory(payloads, fast_path=fast_path,
                                          block_cache=block_cache), out)
        print("trajectory written to %s" % out)
        return []

    return _run_campaign_command(args, "bench", {
        "rigs": rigs, "fast_path": fast_path, "block_cache": block_cache,
    }, report)


def _cmd_orchestrate(args) -> int:
    """Inspect an orchestrated run directory (default: the latest)."""
    import json
    import os

    from repro.orchestrator import latest_run_dir, render_metrics
    from repro.orchestrator.checkpoint import MANIFEST_NAME, RunJournal

    run_dir = args.run_dir or latest_run_dir()
    if run_dir is None or not os.path.isfile(
            os.path.join(run_dir, MANIFEST_NAME)):
        print("no orchestrated run found%s; start one with --jobs N on "
              "any campaign command (conformance, faults, churn, "
              "attacks --campaign, bench)"
              % (" at %s" % run_dir if run_dir else ""), file=sys.stderr)
        return 2
    journal = RunJournal(run_dir)
    manifest = journal.read_manifest() or {}
    shard_ids = manifest.get("shards", [])
    done = [shard_id for shard_id in shard_ids
            if os.path.isfile(journal.result_path(shard_id))]
    print("run directory: %s" % run_dir)
    print("kind: %s  fingerprint: %s" % (manifest.get("kind"),
                                         manifest.get("fingerprint")))
    print("params: %s" % json.dumps(manifest.get("params", {}),
                                    sort_keys=True))
    print("shards: %d/%d checkpointed" % (len(done), len(shard_ids)))
    quarantine = journal.read_quarantine()
    for entry in quarantine:
        print("    QUARANTINED %s: %s"
              % (entry["shard_id"], "; ".join(entry["failures"])))
    metrics = journal.read_metrics()
    if metrics is not None:
        print(render_metrics(metrics))
    else:
        print("metrics: not written yet (run in flight or interrupted; "
              "resume with --resume)")
    return 0


_COMMANDS = {
    "audit": _cmd_audit,
    "bench": _cmd_bench,
    "churn": _cmd_churn,
    "orchestrate": _cmd_orchestrate,
    "paper": _cmd_paper,
    "attacks": _cmd_attacks,
    "decompose": _cmd_decompose,
    "conformance": _cmd_conformance,
    "faults": _cmd_faults,
    "contracts": _cmd_contracts,
}


def _jobs(text: str) -> int:
    """``--jobs``: a worker count, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is not an integer" % text) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % jobs)
    return jobs


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.paper import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ISA-Grid reproduction: quick experiment runners.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    subparsers.add_parser("audit",
                          help="audit the shipped kernel decompositions")
    subparsers.add_parser("decompose",
                          help="use case 1: SQLite overhead and exposure")
    paper = subparsers.add_parser(
        "paper",
        help="regenerate the paper's tables and figures into "
             "benchmarks/results/ (exit 1 on a failed shape check)",
    )
    paper.add_argument("names", nargs="*", metavar="NAME",
                       help="artifacts to regenerate (default: all of %s)"
                            % " ".join(ARTIFACTS))

    def add_orchestration_flags(subparser) -> None:
        subparser.add_argument("--jobs", type=_jobs, default=1,
                               help="worker processes; >1 runs through the "
                                    "orchestrator (same streams, same "
                                    "report bytes as --jobs 1)")
        subparser.add_argument("--resume", action="store_true",
                               help="skip shards already checkpointed in "
                                    "the run directory")
        subparser.add_argument("--shard-timeout", type=float, default=None,
                               help="kill and retry a shard after this "
                                    "many seconds")
        subparser.add_argument("--run-dir", default=None,
                               help="checkpoint directory (default: "
                                    "results/runs/<kind>-<fingerprint>)")
        subparser.add_argument("--profile", action="store_true",
                               help="cProfile each shard; top-N cumulative "
                                    "dump written to the run directory as "
                                    "profile-<shard>.txt")

    def add_contracts_flag(subparser) -> None:
        subparser.add_argument("--contracts", default=True,
                               action=argparse.BooleanOptionalAction,
                               help="monitor the run against the universal "
                                    "ISA-Grid contracts (default on; any "
                                    "unwaived violation fails the run)")
    attacks = subparsers.add_parser(
        "attacks",
        help="print the Table-1 artifact; --campaign runs the "
             "unintended-instruction campaigns (binary-scan baseline vs "
             "the PCU over gadget-bearing byte streams)",
    )
    attacks.add_argument("--campaign", action="store_true",
                         help="generate gadget-bearing streams and race "
                              "the scanner against PCU-enforced decode "
                              "(default: print the Table-1 artifact)")
    attacks.add_argument("--seeds", default="0",
                         help="comma-separated campaign seeds "
                              "(one self-contained campaign per seed)")
    attacks.add_argument("--streams", type=int, default=24,
                         help="gadget-bearing streams per seed")
    attacks.add_argument("--stream-len", type=int, default=48,
                         help="instructions per stream")
    attacks.add_argument("--report", default="results/attack_campaigns.json",
                         help="JSON report output path")
    add_contracts_flag(attacks)
    add_orchestration_flags(attacks)
    conformance = subparsers.add_parser(
        "conformance",
        help="differentially fuzz the cached PCU against the oracle spec",
    )
    conformance.add_argument("--events", type=int, default=5000,
                             help="fuzz events per (backend, config) pair")
    conformance.add_argument("--seed", type=int, default=0)
    conformance.add_argument("--backend", choices=("riscv", "x86", "both"),
                             default="both")
    conformance.add_argument("--config", default=None,
                             help="comma-separated PCU config names, or 'all'")
    conformance.add_argument("--oracle-only", action="store_true",
                             help="replay through the oracle alone "
                                  "(spec smoke test, no diffing)")
    conformance.add_argument("--inject-bug", action="store_true",
                             help="corrupt instruction-bitmap cache fills "
                                  "to demonstrate divergence detection")
    conformance.add_argument("--replay", metavar="REPRO_JSON", default=None,
                             help="replay a dumped reproducer file")
    conformance.add_argument("--layer", choices=("pcu", "kernel"),
                             default="pcu",
                             help="drive the cached side bare (pcu) or "
                                  "through the MiniKernel syscall table")
    conformance.add_argument("--scrub-interval", type=int, default=0,
                             help="run the integrity scrubber every N "
                                  "events (0 = off); any detection on a "
                                  "fault-free replay is a failure")
    add_contracts_flag(conformance)
    add_orchestration_flags(conformance)
    faults = subparsers.add_parser(
        "faults",
        help="seeded fault-injection campaigns with integrity scrubbing "
             "and recovery classification",
    )
    faults.add_argument("--events", type=int, default=2000,
                        help="events per campaign stream")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--campaign", type=int, default=50,
                        help="number of campaigns per (backend, config)")
    faults.add_argument("--backend", choices=("riscv", "x86", "both"),
                        default="both")
    faults.add_argument("--config", default="draco",
                        help="comma-separated PCU config names, or 'all'")
    faults.add_argument("--scrub-interval", type=int, default=64,
                        help="events between watchdog scrubs")
    faults.add_argument("--report", default=None,
                        help="JSON report output path (default: "
                             "results/fault_campaigns.json, or "
                             "results/machine_fault_campaigns.json with "
                             "--machine)")
    faults.add_argument("--faults-per-campaign", type=int, default=1,
                        help="concurrent faults scheduled per campaign "
                             "(2 = dual-fault mode)")
    faults.add_argument("--machine", action="store_true",
                        help="machine-level campaigns: inject under the "
                             "fetch-execute loop of a booted MiniKernel, "
                             "in lockstep with the oracle PCU (ignores "
                             "--events/--config/--scrub-interval)")
    faults.add_argument("--iterations", type=int, default=None,
                        help="machine mode: workload outer iterations per "
                             "campaign (default: the module's calibrated "
                             "default)")
    faults.add_argument("--pulse-interval", type=int, default=None,
                        help="machine mode: instructions between "
                             "reconfiguration pulses (default: derived "
                             "from the workload geometry)")
    faults.add_argument("--state-changing-pulses", action="store_true",
                        help="machine mode: let the reconfiguration pulser "
                             "also spawn/retire scratch domains (state-"
                             "changing domain-0 transactions) instead of "
                             "only state-neutral ones")
    add_contracts_flag(faults)
    add_orchestration_flags(faults)
    churn = subparsers.add_parser(
        "churn",
        help="multi-tenant churn campaigns: logical domain-ID "
             "virtualization over a fixed slot pool, with recycle-window "
             "fault injection and generation-coherence contracts",
    )
    churn.add_argument("--ops", type=int, default=1200,
                       help="churn operations per campaign stream")
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--campaign", type=int, default=12,
                       help="number of campaigns per backend")
    churn.add_argument("--backend", choices=("riscv", "x86", "both"),
                       default="both")
    churn.add_argument("--slots", type=int, default=48,
                       help="physical HPT slots the virtualizer multiplexes "
                            "logical tenants over")
    churn.add_argument("--config", default="stress",
                       help="PCU config name for the churn world")
    churn.add_argument("--scrub-interval", type=int, default=64,
                       help="churn ops between watchdog scrubs")
    churn.add_argument("--report", default="results/churn_campaigns.json",
                       help="JSON report output path")
    add_contracts_flag(churn)
    add_orchestration_flags(churn)
    bench = subparsers.add_parser(
        "bench",
        help="run the Table-4/5 and Fig-5-8 rigs sharded and write a "
             "BENCH_<stamp>.json trajectory of their work",
    )
    bench.add_argument("--rigs", default=None,
                       help="comma-separated rig names, 'all', or "
                            "'default' (the full evaluation suite)")
    bench.add_argument("--slow-path", action="store_true",
                       help="disable the PCU's compiled verdict plan in "
                            "every rig (the fast path's escape hatch; "
                            "results must be identical, only slower)")
    bench.add_argument("--no-block-cache", action="store_true",
                       help="disable the block-summary executor in every "
                            "rig (DESIGN \u00a73.18 escape hatch; results "
                            "must be identical, only slower)")
    bench.add_argument("--out", default=None,
                       help="trajectory output path (default: "
                            "results/bench/BENCH_<local time "
                            "YYYYmmdd-HHMMSS>.json)")
    add_orchestration_flags(bench)
    orchestrate = subparsers.add_parser(
        "orchestrate",
        help="inspect orchestrated run directories (checkpoints, "
             "quarantine, metrics)",
    )
    orchestrate.add_argument("--status", action="store_true",
                             help="print the status of a run directory "
                                  "(the default action)")
    orchestrate.add_argument("--run-dir", default=None,
                             help="run directory to inspect (default: the "
                                  "most recent under results/runs)")
    contracts = subparsers.add_parser(
        "contracts",
        help="list the universal ISA-Grid contracts the campaigns are "
             "checked against",
    )
    contracts.add_argument("--explain", action="store_true",
                           help="also print each contract's event "
                                "vocabulary and the waiver semantics")
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
