"""The paper's evaluation: one function per table or figure.

:data:`ARTIFACTS` maps each artifact name (``table1`` … ``ablations``)
to the function that runs its workload once and returns a
:class:`Result`: the :class:`~repro.analysis.report.Experiment` records
it reproduces, the named shape checks that failed, and the simulated
instructions and cycles its runs retired.  Everything that shows a
paper number calls these functions:

* ``python -m repro paper [NAME ...]`` prints each experiment and writes
  its record to ``benchmarks/results/`` (the files EXPERIMENTS.md
  quotes);
* the ``repro bench`` rigs for Figures 5-8 and Tables 4-5 run their
  artifact under the rig's :class:`~repro.core.PcuConfig` and report
  its totals and rows;
* ``python -m repro attacks`` prints ``table1``.

The totals cover the kernel, application and microbenchmark runs an
artifact makes itself; ``table1``'s attack runs and ``case3``'s gate
pair run inside library helpers and are not counted, and ``table6`` and
``scan`` simulate nothing.

``repro`` imports :mod:`repro.analysis` eagerly, so this module stays
out of the package ``__init__`` and imports kernels and workloads
inside the functions that run them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core import CONFIG_8E, PcuConfig

from .normalize import NormalizedResult, summarize
from .report import Experiment

#: Where ``python -m repro paper`` writes the records, relative to the
#: working directory.
RESULTS_DIR = os.path.join("benchmarks", "results")


@dataclass
class Result:
    """What one artifact reproduced, which checks failed, and its work."""

    experiments: List[Experiment] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    instructions: int = 0
    cycles: float = 0.0

    def experiment(self, artifact: str, title: str) -> Experiment:
        experiment = Experiment(artifact, title)
        self.experiments.append(experiment)
        return experiment

    def check(self, name: str, ok: bool) -> None:
        """Shape check ``name``; it fails when ``ok`` is false."""
        if not ok:
            self.failed.append(name)

    def count(self, run):
        """Add one run's instructions and cycles to the totals."""
        self.instructions += run.instructions
        self.cycles += run.cycles
        return run

    def rows(self) -> Dict[str, Dict[str, object]]:
        """The measured column of every experiment, by artifact and row."""
        return {experiment.artifact: {row.label: row.measured
                                      for row in experiment.rows}
                for experiment in self.experiments}


def record_path(experiment: Experiment) -> str:
    name = experiment.artifact.lower().replace(" ", "_")
    return os.path.join(RESULTS_DIR, "%s.txt" % name)


def write_record(experiment: Experiment) -> str:
    path = record_path(experiment)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(experiment.render() + "\n")
    return path


# ----------------------------------------------------------------------
# Table 1: ISA-abuse attacks, native vs decomposed; gate forgery.
# ----------------------------------------------------------------------
def _attack_label(outcome) -> str:
    if outcome.succeeded:
        return "SUCCEEDS"
    return "mitigated" if outcome.mitigated else "no effect"


def table1() -> Result:
    from repro.attacks import (
        GATE_ATTACKS,
        POSITIVE_CONTROLS,
        RISCV_ATTACKS,
        TABLE1_ATTACKS,
        run_attack,
    )

    result = Result()
    matrix = result.experiment(
        "Table 1", "ISA-abuse-based attacks: native vs ISA-Grid-decomposed kernel"
    )
    specs = TABLE1_ATTACKS + RISCV_ATTACKS
    mitigated = 0
    for spec in specs:
        native = run_attack(spec, "native")
        decomposed = run_attack(spec, "decomposed")
        matrix.add(
            "%s [%s]" % (spec.name, spec.prerequisite),
            "native: succeeds / ISA-Grid: mitigated",
            "native: %s / ISA-Grid: %s"
            % (_attack_label(native), _attack_label(decomposed)),
            note="hijacked module: %s" % spec.compromised_module,
        )
        result.check("%s succeeds natively" % spec.name, native.succeeded)
        result.check("%s mitigated by ISA-Grid" % spec.name,
                     decomposed.mitigated)
        mitigated += decomposed.mitigated
    matrix.add("mitigation rate", "100%", "%d/%d" % (mitigated, len(specs)))
    matrix.shape_criteria += [
        "every attack succeeds without ISA-Grid",
        "every attack faults (and the system survives) with ISA-Grid",
    ]
    result.check("every attack mitigated", mitigated == len(specs))

    gates = result.experiment(
        "Table 1 (gates)", "Gate forgery and unintended instructions (§4.2, §8)"
    )
    for spec in GATE_ATTACKS:
        outcome = run_attack(spec, "decomposed")
        gates.add(spec.name, "mitigated", _attack_label(outcome),
                  note=spec.prerequisite)
        result.check("%s mitigated by ISA-Grid" % spec.name, outcome.mitigated)
    for spec in POSITIVE_CONTROLS:
        control = run_attack(spec, "decomposed")
        gates.add(spec.name, "still works", _attack_label(control),
                  note="granted privilege keeps working")
        result.check("%s still works without faults" % spec.name,
                     control.succeeded and control.faults == 0)
    gates.shape_criteria += [
        "injected/misaligned gate instructions fault on the address check",
        "hidden wrmsr bytes are blocked at execution time",
        "least privilege: granted resources remain usable",
    ]
    return result


# ----------------------------------------------------------------------
# Table 4: domain-switch latencies, both prototypes, and the schemes
# they are compared with.
# ----------------------------------------------------------------------
def table4(config: PcuConfig = CONFIG_8E) -> Result:
    from repro.workloads.micro import (
        LITERATURE_ROWS,
        instruction_latencies,
        measure_riscv_gates,
        measure_riscv_supervisor_call,
        measure_riscv_syscall,
        measure_x86_gates,
    )

    result = Result()
    latencies = instruction_latencies()
    riscv = measure_riscv_gates(config, iterations=1500, on_run=result.count)
    x86 = measure_x86_gates(config, iterations=1500, on_run=result.count)
    calls = {
        "syscall": measure_riscv_syscall(
            config, iterations=400, on_run=result.count),
        "syscall_pti": measure_riscv_syscall(
            config, pti=True, iterations=400, on_run=result.count),
        "supervisor": measure_riscv_supervisor_call(
            config, iterations=400, on_run=result.count),
    }

    rocket = result.experiment("Table 4a", "RISC-V Rocket domain switching (cycles)")
    rocket.add("hccall (instruction)", 5, latencies["riscv"]["hccall"], "cycles")
    rocket.add("hccalls (instruction)", 12, latencies["riscv"]["hccalls"], "cycles")
    rocket.add("hcrets (instruction)", 12, latencies["riscv"]["hcrets"], "cycles")
    rocket.add("X-domain call, 2x hccall", 13,
               round(riscv["xdomain_two_hccall"], 1), "cycles",
               "loop-differenced")
    rocket.add("X-domain call, hccalls+hcrets", 32,
               round(riscv["hccalls+hcrets"], 1), "cycles",
               "loop-differenced")
    rocket.shape_criteria += [
        "hccall is a single-digit number of cycles",
        "extended gates cost ~2x the basic gate",
    ]
    result.check("RISC-V hccall costs 5 cycles",
                 latencies["riscv"]["hccall"] == 5)
    result.check("RISC-V hccalls+hcrets < 40 cycles",
                 riscv["hccalls+hcrets"] < 40)

    gem5 = result.experiment("Table 4b", "x86 Gem5 domain switching (cycles)")
    gem5.add("hccall (instruction)", 34, round(latencies["x86"]["hccall"], 1), "cycles")
    gem5.add("hccalls (instruction)", 52, round(latencies["x86"]["hccalls"], 1), "cycles")
    gem5.add("hcrets (instruction)", 44, round(latencies["x86"]["hcrets"], 1), "cycles")
    gem5.add("hccall (measured loop)", 34, round(x86["hccall"], 1), "cycles")
    gem5.add("X-domain call (hccalls+hcrets)", 74,
             round(x86["xdomain_hccalls_hcrets"], 1), "cycles",
             "store-to-load forwarding")
    gem5.shape_criteria += [
        "X-domain call < hccalls + hcrets (forwarding saves cycles)",
    ]
    result.check("x86 X-domain call < hccalls + hcrets",
                 x86["xdomain_hccalls_hcrets"]
                 < latencies["x86"]["hccalls"] + latencies["x86"]["hcrets"])
    result.check("x86 hccall within 2 cycles of 34", abs(x86["hccall"] - 34) < 2)

    schemes = result.experiment(
        "Table 4c", "Scheme comparison on RISC-V (cycles; MiniKernel paths "
        "are leaner than Linux, so absolute syscall numbers sit lower — "
        "orderings are the reproduced shape)"
    )
    schemes.add("Empty system call w/ PTI", 532, round(calls["syscall_pti"], 1), "cycles")
    schemes.add("Empty system call (no PTI)", "-", round(calls["syscall"], 1), "cycles")
    schemes.add("Empty supervisor call", 434, round(calls["supervisor"], 1), "cycles")
    # The same measurement as 4a's row, not a second one.
    schemes.add("X-domain call (2x hccall)", 13,
                round(riscv["xdomain_two_hccall"], 1), "cycles")
    for label, cycles in LITERATURE_ROWS.items():
        schemes.add(label, cycles, "(quoted)", "cycles")
    schemes.shape_criteria += [
        "gate switch << supervisor call << syscall w/ PTI << VM trap",
        "PTI adds measurable cost to the syscall path",
    ]
    result.check("2x hccall < supervisor call < syscall w/ PTI",
                 riscv["xdomain_two_hccall"] < calls["supervisor"]
                 < calls["syscall_pti"])
    result.check("PTI adds cost to the syscall",
                 calls["syscall_pti"] > calls["syscall"])
    result.check("syscall w/ PTI < VM trap",
                 calls["syscall_pti"]
                 < LITERATURE_ROWS["Empty VM call (virtualization trap)"])
    return result


# ----------------------------------------------------------------------
# Table 5: ioctl services in separate ISA domains, x86.
# ----------------------------------------------------------------------
_SERVICE_CALLS = 300

_SERVICE_LOOP = """
user_entry:
    mov rsp, 0x6f0000
    mov r12, %d
loop:
    mov rax, 12
    mov rdi, %d
    syscall
    sub r12, 1
    jne loop
    mov rax, 0
    mov rdi, 0
    syscall
"""


def table5(config: PcuConfig = CONFIG_8E) -> Result:
    from repro.kernel import (
        SERVICE_CPUID,
        SERVICE_MTRR,
        SERVICE_PMC_IRQ,
        SERVICE_PMC_MISS,
        X86Kernel,
    )
    from repro.x86 import USER_BASE, assemble

    result = Result()
    experiment = result.experiment(
        "Table 5",
        "Latency for ioctl services in separate ISA domains (cycles). "
        "MiniKernel's ioctl path (~350-450 cycles) is far leaner than "
        "Linux's (~1700-2000), so the same absolute gate cost is a "
        "larger fraction here; the 'projected' column scales the "
        "measured protection delta onto the paper's native latency.",
    )
    # (label, service, paper: ISA-Grid cycles, native cycles, overhead %)
    services = (
        ("Service-1 (CPUID)", SERVICE_CPUID, (2081, 1997, 4.21)),
        ("Service-2 (MTRR)", SERVICE_MTRR, (2038, 1970, 3.45)),
        ("Service-3 (PMC interrupts)", SERVICE_PMC_IRQ, (1803, 1721, 4.76)),
        ("Service-4 (PMC iTLB miss)", SERVICE_PMC_MISS, (1776, 1698, 4.60)),
    )
    for label, service, paper in services:
        program = assemble(_SERVICE_LOOP % (_SERVICE_CALLS, service),
                           base=USER_BASE)
        per_call = {}
        for mode in ("native", "decomposed"):
            kernel = X86Kernel(mode, config)
            stats = result.count(kernel.run(
                program, max_steps=600 * _SERVICE_CALLS + 2000))
            result.check("%s %s run fault-free" % (label, mode),
                         kernel.fault_count == 0)
            per_call[mode] = stats.cycles / _SERVICE_CALLS
        native, protected = per_call["native"], per_call["decomposed"]
        paper_isagrid, paper_native, paper_overhead = paper
        delta = protected - native
        overhead = delta / native * 100
        projected = delta / paper_native * 100
        experiment.add(
            label,
            "%d vs %d (+%.2f%%)" % (paper_isagrid, paper_native, paper_overhead),
            "%.0f vs %.0f (+%.2f%%; projected +%.2f%%)"
            % (protected, native, overhead, projected),
            "cycles",
        )
        result.check("%s: protection must cost something" % label,
                     protected > native)
        # The absolute protection cost is two gates plus residual cache
        # effects — the quantity that transfers across kernels.
        result.check("%s delta in (50, 150) cycles" % label, 50 < delta < 150)
        result.check("%s projected overhead < 8%%" % label, projected < 8.0)
    experiment.shape_criteria += [
        "absolute protection cost ≈ one hccalls+hcrets pair (~74 cycles)",
        "projected onto the paper's native latency: ~4-5%, matching Table 5",
    ]
    return result


# ----------------------------------------------------------------------
# Table 6: FPGA cost of the three PCU configurations.
# ----------------------------------------------------------------------
#: The paper's Table 6: (LUT, FF, LUT %, FF %).
_TABLE6_PAPER = {
    "Rocket Core": (51137, 37576, 0.0, 0.0),
    "16E.": (53421, 40280, 4.47, 7.20),
    "8E.": (52685, 39208, 3.03, 4.34),
    "8E.N": (52267, 38683, 2.21, 2.95),
}


def table6() -> Result:
    from repro.hwcost import table6_rows

    result = Result()
    experiment = result.experiment(
        "Table 6", "FPGA resource utilization (Vivado model)")
    for row in table6_rows():
        name = row["name"]
        paper = _TABLE6_PAPER[name]
        experiment.add(
            "%s LUT / FF" % name,
            "%d / %d (%.2f%% / %.2f%%)" % paper,
            "%d / %d (%.2f%% / %.2f%%)" % (
                row["lut_logic"], row["flip_flops"], row["lut_pct"], row["ff_pct"],
            ),
        )
        result.check("%s LUT within 5 of the paper" % name,
                     abs(row["lut_logic"] - paper[0]) <= 5)
        result.check("%s FF within 5 of the paper" % name,
                     abs(row["flip_flops"] - paper[1]) <= 5)
        result.check("%s RAM and DSP unchanged" % name,
                     row["ramb36"] == 10 and row["ramb18"] == 10
                     and row["dsp48e1"] == 15)
    experiment.shape_criteria += [
        "cost monotone in cache entries (16E. > 8E. > 8E.N)",
        "RAM blocks and DSPs unchanged across all configurations",
    ]
    return result


# ----------------------------------------------------------------------
# Figures 5-8: normalized execution time, decomposed vs native.
# ----------------------------------------------------------------------
def fig5(config: PcuConfig = CONFIG_8E) -> Result:
    """LMbench on the decomposed RISC-V kernel: each bar is
    cycles(decomposed) / cycles(native) for one operation's loop."""
    from repro.kernel import RiscvKernel
    from repro.workloads import LMBENCH_SUITE, run_riscv

    result = Result()
    bars = []
    for bench in LMBENCH_SUITE:
        per_op = {}
        for mode in ("native", "decomposed"):
            kernel = RiscvKernel(mode, config)
            per_op[mode] = run_riscv(bench, kernel)
            result.count(kernel.system.machine.stats)
        bars.append(NormalizedResult(bench.name, per_op["native"],
                                     per_op["decomposed"]))

    experiment = result.experiment(
        "Figure 5", "LMbench normalized execution time — Linux decomposition, RISC-V"
    )
    for bar in bars:
        experiment.add(
            bar.label, "~1.00-1.02", round(bar.normalized, 4),
            "normalized", "%.0f cyc/op native" % (bar.baseline_cycles),
        )
    summary = summarize(bars)
    experiment.add("geomean", "~1.00", round(summary["geomean_normalized"], 4), "normalized")
    experiment.shape_criteria += [
        "every operation within a few percent of native",
        "gated operations (mmap/sig/ctx) show the largest bars",
        "ungated operations (null/read/stat) are near 1.0",
    ]
    result.check("no operation may exceed 10%", summary["max_overhead"] < 0.10)
    result.check("geomean < 1.03", summary["geomean_normalized"] < 1.03)
    by_name = {bar.label: bar.normalized for bar in bars}
    # gated operations carry more overhead than the null call
    result.check("lat_mmap >= lat_null",
                 by_name["lat_mmap"] >= by_name["lat_null"] - 0.001)
    return result


def _under_one_percent(result: Result, artifact: str, title: str,
                       bars: List[NormalizedResult]) -> Experiment:
    """The Figure 6-8 record: one ``< 1.01`` bar per run, then the
    geomean; checks that no bar exceeds 1% overhead."""
    experiment = result.experiment(artifact, title)
    for bar in bars:
        experiment.add(bar.label, "< 1.01", round(bar.normalized, 4), "normalized")
    summary = summarize(bars)
    experiment.add("geomean", "< 1.01", round(summary["geomean_normalized"], 4), "normalized")
    result.check("%s: overhead must stay below 1%%" % artifact,
                 summary["max_overhead"] < 0.01)
    return experiment


def _apps(result: Result, runner, config: PcuConfig, factor: int,
          **run_args) -> List[NormalizedResult]:
    """Every application natively and decomposed, ``factor`` times its
    length; one bar each."""
    from repro.workloads import APPLICATIONS
    from repro.workloads.profiles import scaled

    bars = []
    for base_profile in APPLICATIONS:
        profile = scaled(base_profile, factor)
        native = result.count(runner(profile, "native", config, **run_args))
        decomposed = result.count(
            runner(profile, "decomposed", config, **run_args))
        result.check("%s runs valid" % profile.name,
                     native.valid and decomposed.valid)
        bars.append(NormalizedResult(profile.name, native.cycles,
                                     decomposed.cycles))
    return bars


def fig6(config: PcuConfig = CONFIG_8E) -> Result:
    """SQLite / Mbedtls / gzip / tar on the decomposed RISC-V kernel."""
    from repro.workloads import run_riscv_app

    result = Result()
    experiment = _under_one_percent(
        result, "Figure 6",
        "Application normalized execution time — decomposition, RISC-V",
        _apps(result, run_riscv_app, config, 1))
    experiment.shape_criteria += [
        "all four applications under 1% overhead",
        "syscall-light Mbedtls near zero overhead",
    ]
    return result


def fig7(config: PcuConfig = CONFIG_8E) -> Result:
    """The Figure-6 applications on the decomposed x86 (O3) kernel."""
    from repro.workloads import run_x86_app

    result = Result()
    # 3x-length runs so one-time cold PCU misses do not dominate the
    # way they never would in the paper's minutes-long executions.
    experiment = _under_one_percent(
        result, "Figure 7",
        "Application normalized execution time — decomposition, x86",
        _apps(result, run_x86_app, config, 3, max_steps=20_000_000))
    experiment.shape_criteria += [
        "all four applications under 1% overhead on the O3 core",
    ]
    return result


def fig8(config: PcuConfig = CONFIG_8E) -> Result:
    """Nested-Kernel monitor (use case 2), x86: Nest.Mon. mediates every
    page-table change through the monitor domain, Nest.Mon.Log also
    keeps a circular log; both normalized against the native kernel."""
    from repro.workloads import APPLICATIONS, run_x86_app
    from repro.workloads.profiles import scaled

    result = Result()
    pairs = []
    for base_profile in APPLICATIONS:
        profile = scaled(base_profile, 3)
        native, monitor, logged = (
            result.count(run_x86_app(profile, mode, config, variant=variant,
                                     max_steps=20_000_000))
            for mode, variant in (("native", "plain"),
                                  ("decomposed", "nested"),
                                  ("decomposed", "nested_log")))
        result.check("%s runs valid" % profile.name,
                     native.valid and monitor.valid and logged.valid)
        pairs.append((
            NormalizedResult(profile.name + " (Nest.Mon.)", native.cycles, monitor.cycles),
            NormalizedResult(profile.name + " (Nest.Mon.Log)", native.cycles, logged.cycles),
        ))
    experiment = _under_one_percent(
        result, "Figure 8", "Nested-Kernel monitor normalized execution time — x86",
        [bar for pair in pairs for bar in pair])
    experiment.shape_criteria += [
        "monitor overhead under 1% for every application",
        "logging variant costs at least as much as the plain monitor",
    ]
    for monitor, logged in pairs:
        result.check("%s costs at least the plain monitor" % logged.label,
                     logged.protected_cycles >= monitor.protected_cycles - 1)
    return result


# ----------------------------------------------------------------------
# §7.1: privilege-cache hit rates.
# ----------------------------------------------------------------------
def hitrate() -> Result:
    """Three applications on the decomposed kernel with 8E., each on a
    fresh kernel (reset = re-enter domain-0), counters aggregated."""
    from repro.core import PcuStats
    from repro.kernel import RiscvKernel, X86Kernel
    from repro.workloads import GATE_STRESS, SQLITE, TAR
    from repro.workloads.generator import riscv_user_program, x86_user_program
    from repro.workloads.profiles import scaled

    result = Result()
    profiles = (scaled(SQLITE, 2), scaled(TAR, 2), scaled(GATE_STRESS, 3))
    for arch, kernel_cls, program in (("x86", X86Kernel, x86_user_program),
                                      ("RISC-V", RiscvKernel, riscv_user_program)):
        stats = PcuStats()
        for profile in profiles:
            kernel = kernel_cls("decomposed", CONFIG_8E)
            result.count(kernel.run(program(profile), max_steps=20_000_000))
            result.check("%s %s run fault-free" % (arch, profile.name),
                         kernel.fault_count == 0)
            stats.merge(kernel.system.pcu.stats)
        rates = stats.hit_rates()
        bypass_share = stats.bypass_hits / max(1, stats.inst_checks)
        experiment = result.experiment(
            "§7.1 hit rate (%s)" % arch,
            "Privilege-cache hit rates, 8E., decomposed kernel, 3 applications",
        )
        for cache in ("inst", "reg", "mask", "sgt"):
            experiment.add("%s cache" % cache, ">= 99.9%",
                           "%.2f%%" % (rates[cache] * 100))
        experiment.add("CAM lookups (energy proxy)", "-", stats.total_cam_lookups)
        experiment.add("bypass hit share", "high", "%.2f%%" % (100 * bypass_share))
        experiment.shape_criteria += [
            "all privilege caches above 99% once the kernel paths are hot",
            "the bypass register serves almost all instruction checks",
        ]
        for cache, rate in rates.items():
            result.check("%s %s cache hit rate > 99%%" % (arch, cache), rate > 0.99)
        result.check("%s bypass hit share > 99%%" % arch, bypass_share > 0.99)
    return result


# ----------------------------------------------------------------------
# Case 3 (§7.2): PKS + ISA-Grid trampoline.
# ----------------------------------------------------------------------
def case3() -> Result:
    """wrpkru (26, quoted) + MPK trampoline (105, quoted) + two measured
    hccall switches (70) = 175 cycles, against page-table switching
    (938 / 577) and vmfunc (268); plus the wrpkrs guard demo."""
    from repro.kernel import estimate_case3, run_pks_demo

    result = Result()
    estimate = estimate_case3()
    experiment = result.experiment("Case 3", "PKS + ISA-Grid domain switch (cycles)")
    experiment.add("two hccall (measured)", 70, round(estimate.two_hccall_cycles, 1), "cycles")
    experiment.add("MPK trampoline (quoted)", 105, estimate.mpk_trampoline_cycles, "cycles")
    experiment.add("wrpkru (quoted)", 26, estimate.wrpkru_cycles, "cycles")
    experiment.add("PKS + ISA-Grid total", 175,
                   round(estimate.pks_with_isagrid_cycles, 1), "cycles")
    for label, cost in estimate.alternatives.items():
        experiment.add(label, cost, "(quoted)", "cycles")
    experiment.shape_criteria += [
        "PKS+ISA-Grid beats vmfunc (268) and page-table switches (577/938)",
    ]
    result.check("PKS + ISA-Grid total within 10% of 175",
                 abs(estimate.pks_with_isagrid_cycles - 175) <= 0.1 * 175)
    result.check("PKS + ISA-Grid beats every alternative",
                 estimate.faster_than_all_alternatives)

    demo = run_pks_demo()
    guard = result.experiment("Case 3 (guard)", "wrpkrs confined to the trampoline domain")
    guard.add("wrpkrs inside trampoline", "executes",
              "executes" if demo.trampoline_writes_succeeded else "BLOCKED")
    guard.add("wrpkrs outside trampoline", "faults",
              "faults" if demo.outside_write_blocked else "EXECUTES")
    result.check("wrpkrs guarded to the trampoline", demo.guarded)
    return result


# ----------------------------------------------------------------------
# §2.3 motivation: binary scanning on real images.
# ----------------------------------------------------------------------
def scan() -> Result:
    """The software baseline's two failure modes on the generated kernel
    image plus an immediate-heavy module: hidden forbidden bytes linear
    disassembly cannot see, and rewrites that corrupt their carriers."""
    from repro.baselines import rewrite_hidden_bytes, scan_program
    from repro.kernel.x86_kernel import kernel_source
    from repro.x86 import KERNEL_BASE, assemble

    kernel = assemble(kernel_source(True)[0], base=KERNEL_BASE).data
    # A data-heavy module: immediates contain wrmsr/cli bytes, the way
    # constants and jump tables do in real kernels.
    module = assemble("\n".join(
        "    mov rax, 0x%016X" % (0x0000300F_EEFA300F + (i << 40)) for i in range(64)
    ) + "\n    wrmsr\n    ret\n", base=0x200000).data
    wrmsr = scan_program(module)["wrmsr"]
    rewrite = rewrite_hidden_bytes(module)

    result = Result()
    experiment = result.experiment(
        "§2.3 motivation", "Binary scanning on real images (x86 MiniKernel + module)"
    )
    for mnemonic, report in scan_program(kernel).items():
        experiment.add(
            "kernel image: %s" % mnemonic,
            "hidden occurrences exist in real binaries",
            "%d total / %d intended / %d hidden" % (
                len(report.total_occurrences),
                len(report.intended_offsets),
                len(report.unintended_offsets),
            ),
        )
    experiment.add(
        "module: wrmsr (paper: out appears 50k+ times, 300 intended)",
        "hidden >> intended",
        "%d hidden vs %d intended" % (
            len(wrmsr.unintended_offsets), len(wrmsr.intended_offsets)
        ),
    )
    experiment.add(
        "naive rewrite of hidden bytes",
        "corrupts carrier instructions",
        "corrupted %d instructions" % len(rewrite.corrupted_instructions),
    )
    experiment.shape_criteria += [
        "hidden occurrences outnumber intended ones in data-heavy code",
        "rewriting is provably unsafe on this image",
        "ISA-Grid needs no scan: the PCU checks the decoded stream",
    ]
    result.check("module wrmsr: hidden > 10x intended",
                 len(wrmsr.unintended_offsets)
                 > 10 * max(1, len(wrmsr.intended_offsets)))
    result.check("naive rewrite is unsafe", not rewrite.safe)
    return result


# ----------------------------------------------------------------------
# Ablations (ours, not the paper's): the §4.3 mechanisms and the §8
# extensions, each on the RISC-V gate-stress workload.
# ----------------------------------------------------------------------
def _prefetch(result: Result, prefetch: bool):
    """Reg-cache stats of one CSR access after a domain entry, with
    ``pfch`` (or a ``nop``) ahead of it."""
    from repro.riscv import KERNEL_BASE, assemble, build_riscv_system

    system = build_riscv_system(CONFIG_8E)
    manager = system.manager
    domain = manager.create_domain("bench")
    manager.allow_all_instructions(domain.domain_id)
    manager.grant_register(domain.domain_id, "satp", read=True, write=True)
    body = "    pfch t2\n" if prefetch else "    nop\n"
    source = """
entry:
    li t0, 0
g0:
    hccall t0
start:
    li t2, %d
%s
    li t3, 600
warmup:
    addi t3, t3, -1
    bnez t3, warmup
    csrw satp, t4
    halt
""" % (system.pcu.isa_map.csr_index("satp"), body)
    program = assemble(source, base=KERNEL_BASE)
    system.load(program)
    manager.register_gate(program.symbol("g0"), program.symbol("start"), domain.domain_id)
    result.count(system.run(program.symbol("entry"), max_steps=10_000))
    return system.pcu.stats.reg_cache


def ablations() -> Result:
    """A: the 16E./8E./8E.N sweep; B: CAM lookups the bypass register
    saves (the dynamic-energy argument); C: demand misses ``pfch``
    removes; D: a Draco-style legal-access cache (§8); E: flushing the
    privilege cache on every switch (§8).  A, B, D and E share the 8E.
    run."""
    import dataclasses

    from repro.core import ALL_CONFIGS
    from repro.kernel import RiscvKernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import riscv_user_program

    result = Result()

    def gate_stress(config: PcuConfig):
        kernel = RiscvKernel("decomposed", config)
        stats = result.count(kernel.run(riscv_user_program(GATE_STRESS),
                                        max_steps=8_000_000))
        result.check("%s gate stress fault-free" % config.name,
                     kernel.fault_count == 0)
        return stats.cycles, kernel.system.pcu.stats

    sweep = {config.name: gate_stress(config) for config in ALL_CONFIGS}
    native = result.count(RiscvKernel("native").run(
        riscv_user_program(GATE_STRESS), max_steps=8_000_000)).cycles
    cycles, stats = sweep[CONFIG_8E.name]

    experiment = result.experiment(
        "Ablation A", "PCU configuration sweep (gate-stress workload, RISC-V)"
    )
    for config in ALL_CONFIGS:
        config_cycles, config_stats = sweep[config.name]
        experiment.add(
            "%s normalized time" % config.name, "≈1.0 (all configs)",
            round(config_cycles / native, 4), "normalized",
            "sgt hit %.1f%%" % (100 * config_stats.sgt_cache.hit_rate)
            if config.has_sgt_cache else "no SGT cache",
        )
    experiment.shape_criteria += [
        "8E.N pays SGT memory reads on every gate yet stays close to 8E.",
        "16E. is never slower than 8E.",
    ]
    cycles_8n = sweep["8E.N"][0]
    result.check("A: 16E. never slower than 8E.", sweep["16E."][0] <= cycles + 1)
    # the SGT cache visibly earns its area
    result.check("A: 8E.N slower than 8E.", cycles_8n > cycles)
    # Gate-stress is the SGT cache's worst case: 3 cross-domain calls
    # per handful of syscalls.  Even then the no-SGT-cache variant stays
    # within ~15% — and real workloads (Figures 5-7) are far below.
    result.check("A: 8E.N within 15% of native", cycles_8n / native < 1.15)

    no_bypass = gate_stress(PcuConfig(name="8E.nobypass", bypass_enabled=False))[1]
    saved = 1 - stats.inst_cache.lookups / max(1, no_bypass.inst_cache.lookups)
    experiment = result.experiment(
        "Ablation B", "Cache bypass: CAM lookups saved (dynamic-energy proxy)"
    )
    experiment.add("inst-cache lookups w/ bypass", "-", stats.inst_cache.lookups)
    experiment.add("inst-cache lookups w/o bypass", "-", no_bypass.inst_cache.lookups)
    experiment.add("lookups saved", "large", "%.2f%%" % (saved * 100))
    experiment.add("bypass hit share", "≈100%",
                   "%.2f%%" % (100 * stats.bypass_hits / max(1, stats.inst_checks)))
    experiment.shape_criteria += [
        "bypass removes the vast majority of fully-associative searches",
    ]
    result.check("B: bypass saves > 95% of inst-cache lookups", saved > 0.95)

    with_prefetch = _prefetch(result, True)
    without = _prefetch(result, False)
    experiment = result.experiment(
        "Ablation C", "Software prefetch (pfch) vs demand miss on first CSR access"
    )
    experiment.add("reg-cache demand misses w/ pfch", 0, with_prefetch.misses)
    experiment.add("reg-cache demand misses w/o pfch", ">= 1", without.misses)
    experiment.add("prefetch fills", 1, with_prefetch.prefetch_fills)
    experiment.shape_criteria += [
        "the prefetched access hits where the demand access misses",
    ]
    result.check("C: no demand miss with pfch", with_prefetch.misses == 0)
    result.check("C: a demand miss without pfch", without.misses >= 1)
    result.check("C: pfch fills the reg cache", with_prefetch.prefetch_fills >= 1)

    draco = gate_stress(
        dataclasses.replace(CONFIG_8E, name="8E.+draco", draco_entries=64))[1]
    skipped = draco.draco_hits / max(1, draco.inst_checks)
    draco_csr_work = draco.csr_read_checks + draco.csr_write_checks
    csr_work = stats.csr_read_checks + stats.csr_write_checks
    experiment = result.experiment(
        "Ablation D", "Draco-style legal-access cache (§8 Cache Optimization)"
    )
    experiment.add("checks skipped by legal cache", "large",
                   "%.2f%%" % (skipped * 100))
    experiment.add("CSR-check work w/ draco", "-", draco_csr_work)
    experiment.add("CSR-check work baseline", "-", csr_work)
    experiment.shape_criteria += [
        "the legal-access cache absorbs the vast majority of checks",
        "security unchanged: faults are never cached",
    ]
    result.check("D: legal cache skips > 90% of checks", skipped > 0.90)
    result.check("D: legal cache reduces CSR-check work", draco_csr_work < csr_work)

    hardened = gate_stress(
        dataclasses.replace(CONFIG_8E, name="8E.+flush", flush_on_switch=True))[0]
    experiment = result.experiment(
        "Ablation E", "Flush-before-switch side-channel hardening (§8)"
    )
    experiment.add("gate-stress cycles, default", "-", round(cycles))
    experiment.add("gate-stress cycles, flush-on-switch", "-", round(hardened))
    experiment.add("hardening cost", "a measurable tradeoff",
                   "%+.2f%%" % ((hardened / cycles - 1) * 100))
    experiment.shape_criteria += [
        "flushing costs something (every post-switch access misses)",
        "the cost is bounded — tens of percent on the gate-heavy worst case",
    ]
    result.check("E: flush-on-switch costs cycles", hardened > cycles)
    result.check("E: flush-on-switch costs < 2x", hardened / cycles < 2.0)
    return result


#: Every paper artifact, in the order ``python -m repro paper`` runs them.
ARTIFACTS: Dict[str, Callable[..., Result]] = {
    "table1": table1,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "hitrate": hitrate,
    "case3": case3,
    "scan": scan,
    "ablations": ablations,
}
