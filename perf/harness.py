"""The benchmark's workloads, their ops, the checks and the metrics.

One client runs in a closed loop in one thread: it starts an op only
after the previous one finished.  Every op boots fresh, as every
``repro bench`` rig and campaign does.  The seed is an argument; the
benchmark derives ``VARIANTS`` input variants from it (seeds
``S*1000+i``) and hands the program only the generated programs or
churn traces.  Op ``k`` runs variant ``k % VARIANTS``.

Each run starts with a first pass that runs every variant once.
Its fingerprints make the run's digest, and every later op of a
variant must reproduce them exactly.  The simulated per-layer counts
are summed over this pass, so they repeat exactly for a seed.
"""

from __future__ import annotations

import _pydecimal
import collections
import dataclasses
import gc
import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.conformance.events import N_CSR_SLOTS, N_INST_SLOTS
from repro.conformance.generator import make_backend
from repro.conformance.oracle import OraclePcu
from repro.contracts import ContractMonitor
from repro.core import CONFIG_8E, PrivilegeCheckUnit
from repro.core.domain import DomainManager
from repro.core.domain_virtualization import DomainVirtualizer
from repro.faults.churn import ChurnWorld, latency_percentiles
from repro.kernel import RiscvKernel, X86Kernel
from repro.riscv import assemble as riscv_assemble
from repro.riscv.cpu import RiscvCpu
from repro.riscv.encoding import decode as riscv_decode
from repro.riscv.mmu import Sv39Mmu
from repro.sim.machine import Machine
from repro.sim.memhier import MemoryHierarchy
from repro.sim.pipeline import InOrderPipelineModel, OutOfOrderPipelineModel
from repro.workloads import APPLICATIONS, GATE_STRESS, generate_churn_ops
from repro.workloads.generator import riscv_user_program, x86_user_program
from repro.x86 import assemble as x86_assemble
from repro.x86.cpu import X86Cpu
from repro.x86.encoding import decode as x86_decode

from tracing import Tracer

VARIANTS = 8
#: Untimed warm-up before measuring, so caches and lazy set-up settle
#: first.  The first pass counts towards it.
WARMUP_S = 3.0
#: Share of ``--seconds`` a traced run spends on untraced ops, the
#: baseline for ``trace.overhead_x``.
UNTRACED_SHARE = 0.25
MAX_STEPS = 5_000_000
#: A trace's cost per PCU check depends on its mix of ops; over ten
#: seeds the spread of that cost was 7% at 300 ops and 2.6% at 600.
CHURN_OPS = 600
#: At 24 slots a 300-op trace binds at most ~26 tenants and rarely
#: evicts; 8 slots keep eviction and recycling in every trace.
CHURN_SLOTS = 8
#: Decimal divisions in the reference loop timed before and after every
#: op (~2 ms).
REFERENCE_ITERATIONS = 170
#: The reference loop's time on the idle 2-vCPU Intel Xeon VM (2.1 GHz)
#: the bounds were recorded on; turns a time in refs back into seconds.
REFERENCE_S = 0.002
#: Reference loops timed after a set-up, to put it in refs.
REFERENCE_REPEATS = 7

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass
class Outcome:
    """What one op produced, as the checks and metrics need it."""

    #: The identity surface: must repeat exactly for a variant.
    fingerprint: dict
    #: Simulated work: instructions, or PCU checks for churn.
    work: int
    #: Simulated per-layer counts from the program's public stats.
    counters: collections.Counter
    #: Failed invariants; an op with any is counted as failed.
    problems: List[str]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    boot: Callable[[], object]
    run: Callable[[object], object]
    examine: Callable[[object], Outcome]


def variant_seeds(seed: int) -> List[int]:
    return [seed * 1000 + i for i in range(VARIANTS)]


def reference_loop() -> _pydecimal.Decimal:
    """Fixed pure-Python work that shares no code with the program.

    Other load on a shared host slows the interpreter for seconds to
    minutes at a time, by up to half.  Timed next to every op, this loop
    slows with it, so op time divided by loop time measures the program
    and not the host.  The loop is decimal arithmetic in the standard
    library's pure-Python ``_pydecimal``: many small calls and short-lived
    objects, as in the simulator, so contention slows both alike.  Under
    load it tracked the program about twice as closely as a tight loop
    over a small dict (see README.md).
    """
    decimal = _pydecimal.Decimal
    total = decimal(0)
    for i in range(1, REFERENCE_ITERATIONS + 1):
        total += decimal(i) / decimal(7)
    return total


def reference_seconds() -> float:
    """Host seconds of one reference loop, timed now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def in_reference_seconds(seconds: float) -> float:
    """``seconds`` just measured, in refs times ``REFERENCE_S``: the time
    it would have taken on a host where the reference loop takes
    ``REFERENCE_S``.  Times the loop ``REFERENCE_REPEATS`` times now and
    divides by the median."""
    ref = statistics.median(reference_seconds()
                            for _ in range(REFERENCE_REPEATS))
    return seconds / ref * REFERENCE_S


# ----------------------------------------------------------------------
# Machine workloads.  Generator functions are looked up as globals at
# call time so the tracer's rebinding of them takes effect.
# ----------------------------------------------------------------------
def _x86_gate_stress_inputs(seed: int) -> list:
    return [x86_user_program(dataclasses.replace(
        GATE_STRESS, outer_iterations=20, seed=s)) for s in variant_seeds(seed)]


def _riscv_gate_stress_inputs(seed: int) -> list:
    return [riscv_user_program(dataclasses.replace(
        GATE_STRESS, outer_iterations=10, seed=s)) for s in variant_seeds(seed)]


def _apps_inputs(seed: int) -> list:
    """SQLite, Mbedtls, gzip and tar at 1/10 of their Figure-7 length,
    two seeds each."""
    programs = []
    for index, s in enumerate(variant_seeds(seed)):
        app = APPLICATIONS[index * len(APPLICATIONS) // VARIANTS]
        programs.append(x86_user_program(dataclasses.replace(
            app, outer_iterations=app.outer_iterations // 10, seed=s)))
    return programs


def _machine_op(kernel_class, monitored: bool = False):
    """One op: boot a decomposed kernel (with the monitor attached when
    ``monitored``) and run a program on it to its exit."""
    def run(program):
        kernel = kernel_class("decomposed", CONFIG_8E)
        monitor = None
        if monitored:
            monitor = ContractMonitor(seed=0)
            monitor.attach(kernel.system.pcu, kernel.system.manager)
        return kernel, kernel.run(program, max_steps=MAX_STEPS), monitor
    return run


def _boot(kernel_class):
    return lambda: kernel_class("decomposed", CONFIG_8E)


def _pcu_counters(pcu) -> collections.Counter:
    stats = pcu.stats
    counters = collections.Counter(
        stall_cycles=stats.stall_cycles,
        domain_switches=stats.domain_switches,
        bypass_hits=stats.bypass_hits,
        bypass_fills=stats.bypass_fills,
        block_insts=pcu.block_stats.insts,
        block_probes=pcu.block_stats.probes,
        block_hits=pcu.block_stats.hits,
        block_refusals=pcu.block_stats.refusals,
    )
    for name in ("inst", "reg", "mask", "sgt"):
        cache = getattr(stats, name + "_cache")
        counters[name + "_hits"] = cache.hits
        counters[name + "_accesses"] = cache.accesses
    return counters


def _examine_machine(raw) -> Outcome:
    kernel, stats, monitor = raw
    machine = kernel.system.machine
    problems = []
    if kernel.fault_count:
        problems.append("%d kernel faults" % kernel.fault_count)
    if not stats.halted:
        problems.append("did not halt")
    counters = _pcu_counters(kernel.system.pcu)
    counters.update(instructions=stats.instructions, cycles=stats.cycles,
                    traps=stats.traps, syscalls=kernel.syscall_count)
    hierarchy = machine.hierarchy
    levels = {"l1i": hierarchy.l1i, "l1d": hierarchy.l1d}
    if hierarchy.shared:
        levels["l2"] = hierarchy.shared[0]
    for name, level in levels.items():
        counters[name + "_hits"] = level.stats.hits
        counters[name + "_accesses"] = level.stats.accesses
    branches = machine.pipeline.branch_stats
    counters["branch_predictions"] = branches.predictions
    counters["branch_mispredictions"] = branches.mispredictions
    if monitor is not None:
        counters["contract_events"] = monitor.events_seen
        if monitor.unwaived_violations:
            problems.append("contract violation: %s"
                            % monitor.first_unwaived().describe())
    fingerprint = {
        "instructions": stats.instructions, "cycles": stats.cycles,
        "traps": stats.traps, "syscalls": kernel.syscall_count,
        "faults": kernel.fault_count, "pcu": kernel.system.pcu.stats.as_dict(),
    }
    return Outcome(fingerprint, stats.instructions, counters, problems)


# ----------------------------------------------------------------------
# Tenant churn: the control plane, no Machine involved.
# ----------------------------------------------------------------------
def _churn_inputs(seed: int) -> list:
    return [generate_churn_ops(s, CHURN_OPS, N_INST_SLOTS, N_CSR_SLOTS)
            for s in variant_seeds(seed)]


def _new_world():
    return ChurnWorld(make_backend("x86"), max_slots=CHURN_SLOTS,
                      config="stress")


def _run_churn(trace):
    world = _new_world()
    pairs = []
    for index, op in enumerate(trace.ops):
        pairs.extend(world.apply(op, index))
    return world, pairs


def _examine_churn(raw) -> Outcome:
    world, pairs = raw
    problems = []
    mismatched = sum(1 for cached, oracle in pairs if cached != oracle)
    if mismatched:
        problems.append("%d cached/oracle mismatches" % mismatched)
    virtualizer = world.virtualizer.stats
    counters = _pcu_counters(world.pcu)
    counters.update(checks=world.checks_run, recycles=virtualizer.recycles,
                    evictions=virtualizer.evictions,
                    slot_exhausted=virtualizer.slot_exhausted)
    for stall, count in world.latency.items():
        counters[("stall", stall)] += count
    fingerprint = {
        "outcomes": hashlib.sha256(repr(pairs).encode()).hexdigest(),
        "pairs": len(pairs), "checks": world.checks_run,
        "virtualizer": virtualizer.to_dict(), "pcu": world.pcu.stats.as_dict(),
    }
    return Outcome(fingerprint, world.checks_run, counters, problems)


#: Why each workload was chosen is recorded in README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("x86_gate_stress", _x86_gate_stress_inputs, _boot(X86Kernel),
             _machine_op(X86Kernel), _examine_machine),
    Workload("riscv_gate_stress", _riscv_gate_stress_inputs,
             _boot(RiscvKernel), _machine_op(RiscvKernel), _examine_machine),
    Workload("x86_apps_monitored", _apps_inputs, _boot(X86Kernel),
             _machine_op(X86Kernel, monitored=True), _examine_machine),
    Workload("tenant_churn", _churn_inputs, _new_world, _run_churn,
             _examine_churn),
)}


def setup(workload: Workload, seed: int) -> list:
    """Generate and assemble every variant, then boot once."""
    inputs = workload.make_inputs(seed)
    workload.boot()
    return inputs


# ----------------------------------------------------------------------
# Tracing: which entry point belongs to which layer.
# ----------------------------------------------------------------------
#: Layers traced per op, in report order.  ``workloads.generate`` only
#: runs in set-up, so it is reported per set-up instead.
TRACED_LAYERS = (
    "cpu.run_blocks", "cpu.step", "cpu.decode", "cpu.mmu",
    "pcu.check", "pcu.block_probe", "pcu.account_block", "pcu.gate",
    "pcu.mem_filter", "pcu.invalidate",
    "sim.pipeline", "sim.memhier.fetch", "sim.memhier.data",
    "sim.machine_run",
    "kernel.boot", "kernel.assemble",
    "contracts.tap",
    "domain.manager", "domain.virtualizer", "churn.build", "churn.apply",
    "oracle",
    "workloads.generate",
)

_MANAGER_METHODS = (
    "create_domain", "allow_instructions", "allow_all_instructions",
    "deny_instruction", "grant_register", "grant_register_bits",
    "set_register_mask", "revoke_register", "seal_privileges",
    "destroy_domain", "register_gate", "unregister_gate",
    "allocate_trusted_stack",
)
_VIRTUALIZER_METHODS = (
    "spawn", "retire", "activate", "pin", "unpin", "allow_instructions",
    "deny_instruction", "grant_register", "revoke_register",
    "seal_privileges",
)
_TAP_METHODS = ("on_check", "on_gate", "on_mem_write", "on_txn",
                "on_reconfig")


def install_tracer() -> Tracer:
    """Wrap every traced entry point; undo with ``Tracer.uninstall``."""
    tracer = Tracer()
    method = tracer.wrap_method
    for cpu in (X86Cpu, RiscvCpu):
        method(cpu, "run_blocks", "cpu.run_blocks")
        method(cpu, "step", "cpu.step")
    method(Sv39Mmu, "translate", "cpu.mmu")
    for attr, layer in (("check", "pcu.check"),
                        ("check_block_summary", "pcu.block_probe"),
                        ("account_block", "pcu.account_block"),
                        ("execute_gate", "pcu.gate"),
                        ("check_memory_access", "pcu.mem_filter"),
                        ("invalidate_privileges", "pcu.invalidate")):
        method(PrivilegeCheckUnit, attr, layer)
    for pipeline in (InOrderPipelineModel, OutOfOrderPipelineModel):
        method(pipeline, "instruction_cycles", "sim.pipeline")
    method(MemoryHierarchy, "access_instruction", "sim.memhier.fetch")
    method(MemoryHierarchy, "access_data", "sim.memhier.data")
    method(Machine, "run", "sim.machine_run", coarse=True)
    for kernel in (X86Kernel, RiscvKernel):
        method(kernel, "__init__", "kernel.boot", coarse=True)
    for attr in _TAP_METHODS:
        method(ContractMonitor, attr, "contracts.tap")
    for attr in _MANAGER_METHODS:
        method(DomainManager, attr, "domain.manager")
    for attr in _VIRTUALIZER_METHODS:
        method(DomainVirtualizer, attr, "domain.virtualizer")
    method(ChurnWorld, "__init__", "churn.build", coarse=True)
    method(ChurnWorld, "apply", "churn.apply")
    for attr in ("check", "execute_gate", "check_memory_access"):
        method(OraclePcu, attr, "oracle")
    for function, layer in ((x86_decode, "cpu.decode"),
                            (riscv_decode, "cpu.decode"),
                            (x86_assemble, "kernel.assemble"),
                            (riscv_assemble, "kernel.assemble"),
                            (x86_user_program, "workloads.generate"),
                            (riscv_user_program, "workloads.generate"),
                            (generate_churn_ops, "workloads.generate")):
        tracer.wrap_function(function, layer)
    return tracer


# ----------------------------------------------------------------------
# Running ops.
# ----------------------------------------------------------------------
class Ops:
    """The ops of one phase of a run, checked as they finish."""

    def __init__(self, workload: Workload, inputs: list,
                 reference: Dict[int, dict], tracer: Optional[Tracer] = None):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.tracer = tracer
        #: Per successful op: its variant, host seconds, the mean seconds
        #: of the reference loop timed just before and just after it, and
        #: simulated work.
        self.variants: List[int] = []
        self.seconds: List[float] = []
        self.refs: List[float] = []
        self.work: List[int] = []
        self.fingerprints: Dict[int, dict] = {}
        self.counters = collections.Counter()
        self.attempted = 0
        self.failed = 0

    def run(self, count: Optional[int] = None,
            seconds: Optional[float] = None, every=None) -> "Ops":
        """Run ``count`` ops, or ops until ``seconds`` pass, whichever
        ends first.  ``every`` is an (interval, callback) pair: the
        callback runs between ops once per interval, untimed."""
        now = time.perf_counter()
        deadline = None if seconds is None else now + seconds
        next_call = None if every is None else now + every[0]
        done = 0
        while (count is None or done < count) and (
                deadline is None or time.perf_counter() < deadline):
            if next_call is not None and time.perf_counter() >= next_call:
                every[1]()
                next_call += every[0]
            self._one(self.attempted)
            done += 1
        return self

    def _one(self, index: int) -> None:
        variant = index % len(self.inputs)
        self.attempted += 1
        # Every op leaves a booted kernel behind as cyclic garbage.
        # Collecting it here, untimed, keeps an op from paying a full
        # collection over the garbage of the ops before it.
        gc.collect()
        ref_before = reference_seconds()
        try:
            start = time.perf_counter()
            if self.tracer is None:
                raw = self.workload.run(self.inputs[variant])
            else:
                raw = self.tracer.run_op(index, variant, self.workload.run,
                                         self.inputs[variant])
            elapsed = time.perf_counter() - start
            ref = (ref_before + reference_seconds()) / 2
            outcome = self.workload.examine(raw)
        except Exception as error:  # an op that raises is a failed op
            self._fail(variant, "%s: %s" % (type(error).__name__, error))
            return
        problems = list(outcome.problems)
        expected = self.reference.setdefault(variant, outcome.fingerprint)
        if outcome.fingerprint != expected:
            problems.append("did not reproduce the variant's first result")
        if problems:
            self._fail(variant, "; ".join(problems))
            return
        self.variants.append(variant)
        self.seconds.append(elapsed)
        self.refs.append(ref)
        self.work.append(outcome.work)
        self.fingerprints.setdefault(variant, outcome.fingerprint)
        self.counters += outcome.counters

    def _fail(self, variant: int, detail: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print("%s variant %d failed: %s" % (self.workload.name, variant,
                                                detail), file=sys.stderr)


def digest(fingerprints: Dict[int, dict]) -> str:
    ordered = [fingerprints[v] for v in sorted(fingerprints)]
    return hashlib.sha256(
        json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    """0 where the layer saw no attempts."""
    return numerator / denominator if denominator else 0.0


def op_costs(ops: Ops) -> List[float]:
    """Each op's host time in refs: divided by the reference loop's."""
    return [seconds / ref for seconds, ref in zip(ops.seconds, ops.refs)]


def end_to_end_metrics(ops: Ops):
    """The declared metrics, in refs, and host-second figures to read.

    ``sim_inst_per_ref`` is the simulated work of one pass of the
    variants over the sum of their median op costs, so the seed's mix
    of inputs does not move it.  The host-second figures move with the
    host's other load and are not declared metrics.
    """
    costs: Dict[int, List[float]] = collections.defaultdict(list)
    seconds: Dict[int, List[float]] = collections.defaultdict(list)
    work: Dict[int, int] = {}
    for variant, cost, op_s, done in zip(ops.variants, op_costs(ops),
                                         ops.seconds, ops.work):
        costs[variant].append(cost)
        seconds[variant].append(op_s)
        work[variant] = done
    total = sum(work.values())
    metrics = {"sim_inst_per_ref": _metric(
        total / sum(statistics.median(c) for c in costs.values()), "1/ref")}
    host = {
        "sim_ips": _metric(
            total / sum(statistics.median(s) for s in seconds.values()),
            "1/s"),
        "op_ms_p50": _metric(1000.0 * statistics.median(ops.seconds), "ms"),
        "ref_ms": _metric(1000.0 * statistics.median(ops.refs), "ms"),
    }
    return metrics, host


def simulated_metrics(c: collections.Counter) -> Dict[str, dict]:
    """Per-layer counts summed over one pass of every variant."""
    stalls = {key[1]: n for key, n in c.items() if isinstance(key, tuple)}
    return {
        "cpu.block_coverage": _metric(
            _ratio(c["block_insts"], c["instructions"]), "ratio"),
        "pcu.block_probe_hit_ratio": _metric(
            _ratio(c["block_hits"], c["block_probes"]), "ratio"),
        "pcu.block_refusals": _metric(c["block_refusals"], "count"),
        "pcu.bypass_hit_ratio": _metric(
            _ratio(c["bypass_hits"], c["bypass_hits"] + c["bypass_fills"]),
            "ratio"),
        **{"pcu.%s_cache_hit_ratio" % name: _metric(
            _ratio(c[name + "_hits"], c[name + "_accesses"]), "ratio")
           for name in ("inst", "reg", "mask", "sgt")},
        "pcu.stall_cycles": _metric(c["stall_cycles"], "cycles"),
        "pcu.domain_switches": _metric(c["domain_switches"], "count"),
        "sim.instructions": _metric(c["instructions"], "count"),
        "sim.cpi": _metric(_ratio(c["cycles"], c["instructions"]),
                           "cycles/inst"),
        "sim.traps": _metric(c["traps"], "count"),
        **{"memhier.%s_hit_ratio" % name: _metric(
            _ratio(c[name + "_hits"], c[name + "_accesses"]), "ratio")
           for name in ("l1i", "l1d", "l2")},
        "branch.mispredict_ratio": _metric(
            _ratio(c["branch_mispredictions"], c["branch_predictions"]),
            "ratio"),
        "kernel.syscalls": _metric(c["syscalls"], "count"),
        "contracts.events": _metric(c["contract_events"], "count"),
        "virt.recycles": _metric(c["recycles"], "count"),
        "virt.evictions": _metric(c["evictions"], "count"),
        "virt.slot_exhausted": _metric(c["slot_exhausted"], "count"),
        "churn.stall_p99_cycles": _metric(
            latency_percentiles(stalls)["p99"], "cycles"),
    }


def layer_metrics(tracer: Tracer, setup_layers: dict, traced: Ops,
                  untraced: Ops) -> Dict[str, dict]:
    """Host calls and self time per traced op, from the traced run."""
    ops = tracer.ops
    metrics = {}
    for layer in TRACED_LAYERS:
        if layer == "workloads.generate":
            calls, _, self_s = setup_layers.get(layer, (0, 0.0, 0.0))
            metrics[layer + ".calls"] = _metric(calls, "count")
            metrics[layer + ".self_s"] = _metric(self_s, "s")
            continue
        totals = [op["layers"].get(layer, (0, 0.0, 0.0)) for op in ops]
        metrics[layer + ".calls"] = _metric(
            sum(t[0] for t in totals) / len(ops), "calls/op")
        metrics[layer + ".self_s"] = _metric(
            sum(t[2] for t in totals) / len(ops), "s/op")
    metrics["trace.overhead_x"] = _metric(
        statistics.median(op_costs(traced))
        / statistics.median(op_costs(untraced)), "x")
    metrics["trace.unattributed_frac"] = _metric(
        sum(op["unattributed_s"] for op in ops) / sum(op["seconds"] for op in ops),
        "ratio")
    return metrics


def bench(workload: Workload, inputs: list, seed: int,
          seconds: Optional[float], *, trace: bool = False,
          warmup_s: float = WARMUP_S, max_ops: Optional[int] = None,
          every=None):
    """Run one workload; return its summary and, when traced, the trace.

    Ops stop after ``seconds`` or ``max_ops``, whichever comes first.  A
    traced run first measures untraced ops for a quarter of the time,
    as the baseline of ``trace.overhead_x``, then installs the tracer,
    sets up again and repeats the first pass and the measurement
    traced.  Every traced op must reproduce the untraced reference.
    ``every`` goes to the untraced measurement's ``Ops.run``.
    """
    reference: Dict[int, dict] = {}
    started = time.perf_counter()
    first = Ops(workload, inputs, reference).run(count=len(inputs))
    warm = Ops(workload, inputs, reference).run(
        seconds=max(0.0, warmup_s - (time.perf_counter() - started)))
    if trace and seconds is not None:
        untraced_seconds = seconds * UNTRACED_SHARE
    else:
        untraced_seconds = seconds
    untraced = Ops(workload, inputs, reference).run(
        count=max_ops, seconds=untraced_seconds, every=every)
    phases = [first, warm, untraced]
    summary = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "digest": digest(first.fingerprints),
        "block_coverage":
            simulated_metrics(first.counters)["cpu.block_coverage"]["value"],
    }
    trace_data = None
    metrics: Dict[str, dict] = {}
    if trace:
        tracer = install_tracer()
        try:
            before = tracer.snapshot()
            traced_inputs = setup(workload, seed)
            setup_layers = tracer.delta(before, tracer.snapshot())
            traced_first = Ops(workload, traced_inputs, reference).run(
                count=len(inputs))
            traced = Ops(workload, traced_inputs, reference, tracer).run(
                count=max_ops, seconds=seconds)
        finally:
            tracer.uninstall()
        phases += [traced_first, traced]
        summary["trace_digest"] = digest(traced_first.fingerprints)
        if traced.seconds and untraced.seconds:
            metrics = {
                **layer_metrics(tracer, setup_layers, traced, untraced),
                **simulated_metrics(traced_first.counters)}
        trace_data = {"workload": workload.name, "seed": seed,
                      "setup_layers": setup_layers, "spans": tracer.spans,
                      "ops": tracer.ops}
    elif untraced.seconds:
        metrics, summary["host"] = end_to_end_metrics(untraced)
    pinned = pinned_digest(workload.name, seed)
    summary["pinned"] = ("unpinned" if pinned is None
                         else "ok" if pinned == summary["digest"] else "mismatch")
    summary["attempted"] = sum(phase.attempted for phase in phases)
    summary["failed"] = sum(phase.failed for phase in phases)
    summary["correct"] = bool(
        metrics and summary["failed"] == 0 and summary["pinned"] != "mismatch"
        and summary.get("trace_digest", summary["digest"]) == summary["digest"])
    summary["metrics"] = metrics
    return summary, trace_data
