"""Benchmark rigs: the paper's evaluation workloads as timed units.

A *rig* is one self-contained slice of the evaluation — a Table-4/5
latency experiment or a Fig-5–8 workload sweep — packaged so the bench
runner (and the sharded orchestrator behind ``python -m repro bench``)
can execute it in isolation and report how much simulated work it did:

* ``instructions`` / ``cycles`` — total simulated work across every
  run the rig performs (both sides of each native-vs-protected pair);
* ``detail`` — the experiment's own numbers (per-op latencies,
  normalized times), so a trajectory file doubles as a coarse
  correctness record.

Rigs take one parameter, ``fast_path``: with ``False`` every PCU in
the rig runs with the compiled verdict plan disabled
(:attr:`repro.core.config.PcuConfig.fast_path`), which is how the
``--slow-path`` escape hatch and the fast-vs-slow differential gate are
wired.  A rig must produce identical ``instructions``, ``cycles`` and
``detail`` either way — only wall-clock may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from repro.core import CONFIG_8E, PcuConfig


@dataclass(frozen=True)
class BenchRig:
    """One orchestratable benchmark unit."""

    name: str
    description: str
    run: Callable[[bool, bool], Dict[str, object]]
    #: Rough dynamic instruction count, used as the shard weight so the
    #: orchestrator's metrics can report events/sec without running it.
    approx_instructions: int = 1_000_000


def _config(fast_path: bool, block_cache: bool = True) -> PcuConfig:
    if fast_path and block_cache:
        return CONFIG_8E
    return replace(CONFIG_8E, fast_path=fast_path, block_summaries=block_cache)


def _result(instructions: int, cycles: float, detail: Dict[str, object]):
    return {
        "instructions": int(instructions),
        "cycles": float(cycles),
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Gate stress (the §7.1 hit-rate workload — the hot-path acceptance rig).
# ----------------------------------------------------------------------
def _run_gate_stress(fast_path: bool, block_cache: bool = True,
                     iterations: int = 300, max_steps: int = 20_000_000,
                     full_stats: bool = False) -> Dict[str, object]:
    import dataclasses

    from repro.kernel import X86Kernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=iterations)
    kernel = X86Kernel("decomposed", _config(fast_path, block_cache))
    stats = kernel.run(x86_user_program(profile), max_steps=max_steps)
    assert kernel.fault_count == 0
    pcu = kernel.system.pcu
    hit_rates = pcu.stats.hit_rates()
    detail: Dict[str, object] = {
        "hit_rates": {name: round(rate, 6) for name, rate in hit_rates.items()},
        "syscalls": kernel.syscall_count,
    }
    if full_stats:
        # For identity-asserting wrappers (smoke_blocks): the whole
        # counter surface, not just the headline hit rates.
        detail["pcu_stats"] = pcu.stats.as_dict()
        detail["block_stats"] = pcu.block_stats.as_dict()
    return _result(stats.instructions, stats.cycles, detail)


def _run_smoke(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    return _run_gate_stress(fast_path, block_cache, iterations=60,
                            max_steps=4_000_000)


def _run_smoke_blocks(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    """``smoke`` run twice: block executor on, then off, as one rig.

    The on-vs-off identity assertion (instructions, cycles and the
    whole :class:`~repro.core.stats.PcuStats` dict must match exactly)
    turns the block-summary coherence contract (DESIGN §3.18) into a
    perf-trajectory row: a divergence fails the rig, and a slowdown in
    either executor drags the gated ips down.  ``detail`` carries the
    block cache's own probe counters.  The rig's own ``block_cache``
    flag only affects the *first* run — under ``--no-block-cache``
    both runs take the per-instruction loop and the assertion still
    holds trivially.
    """
    on = _run_gate_stress(fast_path, block_cache, iterations=60,
                          max_steps=4_000_000, full_stats=True)
    off = _run_gate_stress(fast_path, False, iterations=60,
                           max_steps=4_000_000, full_stats=True)
    for key in ("instructions", "cycles"):
        assert on[key] == off[key], (key, on[key], off[key])
    assert on["detail"]["pcu_stats"] == off["detail"]["pcu_stats"]
    block_stats = on["detail"].pop("block_stats")
    off_blocks = off["detail"].pop("block_stats")
    assert off_blocks["insts"] == 0, off_blocks
    on["detail"].pop("pcu_stats")
    off["detail"].pop("pcu_stats")
    assert on["detail"] == off["detail"], (on["detail"], off["detail"])
    return _result(on["instructions"] + off["instructions"],
                   on["cycles"] + off["cycles"], {
        "verified_identical": True,
        "block_stats": block_stats,
        "hit_rates": on["detail"]["hit_rates"],
    })


def _run_smoke_hooked(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    """``smoke`` with a no-op per-step hook installed on the machine.

    The machine-level fault campaigns interpose on
    :attr:`repro.sim.machine.Machine.step_hook`, which keeps
    ``Machine.run`` on its per-instruction loop; this rig holds that
    loop to the same ips floor as ``smoke``, which runs the block
    executor.  The simulated work must be identical to ``smoke`` —
    only wall-clock may move.
    """
    import dataclasses

    from repro.kernel import X86Kernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=60)
    kernel = X86Kernel("decomposed", _config(fast_path, block_cache))
    kernel.system.machine.step_hook = lambda info: False
    stats = kernel.run(x86_user_program(profile), max_steps=4_000_000)
    assert kernel.fault_count == 0
    hit_rates = kernel.system.pcu.stats.hit_rates()
    return _result(stats.instructions, stats.cycles, {
        "hit_rates": {name: round(rate, 6) for name, rate in hit_rates.items()},
        "syscalls": kernel.syscall_count,
    })


def _run_smoke_contracts(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    """``smoke`` with the universal-contract monitor attached.

    The contract tap (see DESIGN §3.16) must be invisible when armed on
    a healthy run: zero violations, and ``instructions``/``cycles``/
    hit-rates identical to the unmonitored ``smoke`` rig.  Blocks run
    under the armed tap, each narrated as one ``block`` event, so this
    rig contract-checks the block executor, the path ``smoke`` runs:
    ``detail`` reports the share of instructions retired in blocks
    (``block_coverage``) next to the event count, and how many of those
    events the monitor's clean-verdict memo served without calling a
    contract (``contract_memo_hits``).  Keeping this rig in
    the registry makes that claim a perf-trajectory row, so a tap-path
    slowdown shows up as an ips regression next to ``smoke``.
    """
    import dataclasses

    from repro.contracts import ContractMonitor
    from repro.kernel import X86Kernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=60)
    kernel = X86Kernel("decomposed", _config(fast_path, block_cache))
    monitor = ContractMonitor(seed=0)
    monitor.attach(kernel.system.pcu, kernel.system.manager)
    stats = kernel.run(x86_user_program(profile), max_steps=4_000_000)
    assert kernel.fault_count == 0
    assert monitor.total_violations == 0, monitor.first_unwaived()
    hit_rates = kernel.system.pcu.stats.hit_rates()
    return _result(stats.instructions, stats.cycles, {
        "hit_rates": {name: round(rate, 6) for name, rate in hit_rates.items()},
        "syscalls": kernel.syscall_count,
        "contract_events": monitor.events_seen,
        "contract_memo_hits": monitor.memo_hits,
        "block_coverage": round(kernel.system.pcu.block_stats.coverage, 6),
        "contract_counts": monitor.counts(),
    })


# ----------------------------------------------------------------------
# Tenant churn: domain-ID virtualization under eviction pressure.
# ----------------------------------------------------------------------
def _run_churn_stress(fast_path: bool, block_cache: bool = True,
                      n_ops: int = 900,
                      max_slots: int = 24) -> Dict[str, object]:
    """Fault-free churn stream over a deliberately small slot pool.

    ``block_cache`` is accepted for signature uniformity but has no
    effect: the churn world drives ``pcu.check`` directly with no
    Machine run loop, so the block executor never engages.

    Times the virtualization layer where it hurts: constant eviction,
    recycle and rebind traffic interleaved with live gate/check pairs.
    ``detail`` carries the p50/p99 check-stall tail — the
    generation-guard and refill costs the virtualizer adds to the check
    path — plus the lifecycle counters, so a trajectory row doubles as
    a coarse churn-correctness record.  Simulated work (checks, pairs,
    stall cycles) must be fast/slow-path identical; only wall-clock and
    ips may move.
    """
    from repro.conformance.events import N_CSR_SLOTS, N_INST_SLOTS
    from repro.conformance.generator import make_backend
    from repro.faults.churn import ChurnWorld, latency_percentiles
    from repro.workloads import generate_churn_ops

    world = ChurnWorld(make_backend("x86"), max_slots=max_slots,
                       config="stress", fast_path=fast_path)
    trace = generate_churn_ops(0, n_ops, N_INST_SLOTS, N_CSR_SLOTS)
    pairs = 0
    for index, op in enumerate(trace.ops):
        for cached, oracle in world.apply(op, index):
            assert cached == oracle, (index, cached, oracle)
            pairs += 1
    stall_cycles = sum(stall * count for stall, count in world.latency.items())
    stats = world.virtualizer.stats
    return _result(world.checks_run, stall_cycles, {
        "pairs": pairs,
        "latency": latency_percentiles(dict(world.latency)),
        "spawned": stats.spawned,
        "retired": stats.retired,
        "recycles": stats.recycles,
        "evictions": stats.evictions,
        "slot_exhausted": stats.slot_exhausted,
        "backpressured": world.backpressured,
    })


# ----------------------------------------------------------------------
# Figure 5: LMbench microbenchmarks, RISC-V.
# ----------------------------------------------------------------------
def _run_fig5_riscv(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.kernel import RiscvKernel
    from repro.riscv import USER_BASE, assemble
    from repro.workloads import LMBENCH_SUITE
    from repro.workloads.lmbench import riscv_loop_source

    config = _config(fast_path, block_cache)
    instructions = 0
    cycles = 0.0
    detail: Dict[str, object] = {}
    for bench in LMBENCH_SUITE:
        program = assemble(riscv_loop_source(bench), base=USER_BASE)
        per_mode = {}
        for mode in ("native", "decomposed"):
            stats = RiscvKernel(mode, config).run(program, max_steps=3_000_000)
            instructions += stats.instructions
            cycles += stats.cycles
            per_mode[mode] = stats.cycles / bench.iterations
        detail[bench.name] = {
            "native_cycles_per_op": round(per_mode["native"], 2),
            "decomposed_cycles_per_op": round(per_mode["decomposed"], 2),
            "normalized": round(per_mode["decomposed"] / per_mode["native"], 4),
        }
    return _result(instructions, cycles, detail)


# ----------------------------------------------------------------------
# Figures 6/7: application profiles, RISC-V and x86.
# ----------------------------------------------------------------------
def _run_apps(runner, fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.workloads import APPLICATIONS

    config = _config(fast_path, block_cache)
    instructions = 0
    cycles = 0.0
    detail: Dict[str, object] = {}
    for profile in APPLICATIONS:
        native = runner(profile, "native", config)
        decomposed = runner(profile, "decomposed", config)
        assert native.valid and decomposed.valid
        instructions += native.instructions + decomposed.instructions
        cycles += native.cycles + decomposed.cycles
        detail[profile.name] = round(decomposed.cycles / native.cycles, 4)
    return _result(instructions, cycles, detail)


def _run_fig6_apps_riscv(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.workloads import run_riscv_app

    return _run_apps(run_riscv_app, fast_path, block_cache)


def _run_fig7_apps_x86(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.workloads import run_x86_app

    return _run_apps(run_x86_app, fast_path, block_cache)


# ----------------------------------------------------------------------
# Figure 8: Nested-Kernel monitor variants, x86.
# ----------------------------------------------------------------------
def _run_fig8_nested(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.workloads import APPLICATIONS, run_x86_app
    from repro.workloads.profiles import scaled

    config = _config(fast_path, block_cache)
    instructions = 0
    cycles = 0.0
    detail: Dict[str, object] = {}
    for base_profile in APPLICATIONS:
        profile = scaled(base_profile, 2)
        runs = {
            "native": run_x86_app(profile, "native", config,
                                  max_steps=20_000_000),
            "nested": run_x86_app(profile, "decomposed", config,
                                  variant="nested", max_steps=20_000_000),
            "nested_log": run_x86_app(profile, "decomposed", config,
                                      variant="nested_log",
                                      max_steps=20_000_000),
        }
        assert all(result.valid for result in runs.values())
        instructions += sum(result.instructions for result in runs.values())
        cycles += sum(result.cycles for result in runs.values())
        native = runs["native"].cycles
        detail[profile.name] = {
            "nested": round(runs["nested"].cycles / native, 4),
            "nested_log": round(runs["nested_log"].cycles / native, 4),
        }
    return _result(instructions, cycles, detail)


# ----------------------------------------------------------------------
# Table 4: domain-switch latencies (both backends).
# ----------------------------------------------------------------------
def _run_table4_switch(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.workloads.micro import measure_riscv_gates, measure_x86_gates

    config = _config(fast_path, block_cache)
    totals: Dict[str, float] = {}
    riscv = measure_riscv_gates(config, iterations=800, totals=totals)
    x86 = measure_x86_gates(config, iterations=800, totals=totals)
    detail = {
        "riscv": {name: round(value, 2) for name, value in riscv.items()},
        "x86": {name: round(value, 2) for name, value in x86.items()},
    }
    return _result(totals.get("instructions", 0), totals.get("cycles", 0.0),
                   detail)


# ----------------------------------------------------------------------
# Table 5: multi-service protection latency, x86 ioctl path.
# ----------------------------------------------------------------------
_TABLE5_ITERATIONS = 300

_TABLE5_LOOP = """
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


def _run_table5_services(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    from repro.kernel import (
        SERVICE_CPUID,
        SERVICE_MTRR,
        SERVICE_PMC_IRQ,
        SERVICE_PMC_MISS,
        X86Kernel,
    )
    from repro.x86 import USER_BASE, assemble

    services = (
        ("cpuid", SERVICE_CPUID),
        ("mtrr", SERVICE_MTRR),
        ("pmc_irq", SERVICE_PMC_IRQ),
        ("pmc_miss", SERVICE_PMC_MISS),
    )
    config = _config(fast_path, block_cache)
    instructions = 0
    cycles = 0.0
    detail: Dict[str, object] = {}
    for label, service in services:
        source = _TABLE5_LOOP % (_TABLE5_ITERATIONS, service)
        program = assemble(source, base=USER_BASE)
        per_mode = {}
        for mode in ("native", "decomposed"):
            kernel = X86Kernel(mode, config)
            stats = kernel.run(
                program, max_steps=600 * _TABLE5_ITERATIONS + 2000
            )
            assert kernel.fault_count == 0
            instructions += stats.instructions
            cycles += stats.cycles
            per_mode[mode] = stats.cycles / _TABLE5_ITERATIONS
        detail[label] = {
            "native_cycles_per_call": round(per_mode["native"], 1),
            "protected_cycles_per_call": round(per_mode["decomposed"], 1),
            "delta_cycles": round(per_mode["decomposed"] - per_mode["native"], 1),
        }
    return _result(instructions, cycles, detail)


#: Registry of every rig the bench CLI knows, in canonical order.
RIGS: Dict[str, BenchRig] = {
    rig.name: rig
    for rig in (
        BenchRig("smoke", "short gate-stress loop (CI PR gate)",
                 _run_smoke, approx_instructions=200_000),
        BenchRig("smoke_hooked",
                 "smoke with a no-op Machine.step_hook (fault-campaign "
                 "injection point)",
                 _run_smoke_hooked, approx_instructions=200_000),
        BenchRig("smoke_contracts",
                 "smoke with the universal-contract monitor attached "
                 "(tap-path floor; simulated work identical to smoke)",
                 _run_smoke_contracts, approx_instructions=200_000),
        BenchRig("smoke_blocks",
                 "smoke with the block-summary executor on vs off, "
                 "asserting bit-identical work (DESIGN §3.18 gate)",
                 _run_smoke_blocks, approx_instructions=400_000),
        BenchRig("gate_stress", "§7.1 privilege-cache stress workload",
                 _run_gate_stress, approx_instructions=1_000_000),
        BenchRig("churn_stress",
                 "tenant churn over a small slot pool (virtualizer "
                 "eviction/recycle path; p50/p99 check-stall tail)",
                 _run_churn_stress, approx_instructions=10_000),
        BenchRig("fig5_riscv", "Figure 5: LMbench microbenchmarks, RISC-V",
                 _run_fig5_riscv, approx_instructions=2_500_000),
        BenchRig("fig6_apps_riscv", "Figure 6: application profiles, RISC-V",
                 _run_fig6_apps_riscv, approx_instructions=2_500_000),
        BenchRig("fig7_apps_x86", "Figure 7: application profiles, x86",
                 _run_fig7_apps_x86, approx_instructions=2_500_000),
        BenchRig("fig8_nested", "Figure 8: Nested-Kernel monitor variants, x86",
                 _run_fig8_nested, approx_instructions=7_500_000),
        BenchRig("table4_switch", "Table 4: domain-switch latencies",
                 _run_table4_switch, approx_instructions=600_000),
        BenchRig("table5_services", "Table 5: ioctl service latencies, x86",
                 _run_table5_services, approx_instructions=1_500_000),
    )
}

#: What ``python -m repro bench`` runs by default: the full evaluation
#: suite.  ``smoke`` is opt-in (the CI PR gate's 1-rig run).
DEFAULT_RIGS: Sequence[str] = (
    "gate_stress", "fig5_riscv", "fig6_apps_riscv", "fig7_apps_x86",
    "fig8_nested", "table4_switch", "table5_services",
)


def resolve_rigs(names: str = None) -> List[str]:
    """Expand a ``--rigs`` argument into an ordered, validated list."""
    if not names or names == "default":
        return list(DEFAULT_RIGS)
    if names == "all":
        return list(RIGS)
    chosen = [name.strip() for name in names.split(",") if name.strip()]
    unknown = [name for name in chosen if name not in RIGS]
    if unknown:
        raise KeyError("unknown rig(s) %s (choose from %s)"
                       % (", ".join(unknown), ", ".join(RIGS)))
    return chosen


def run_rig(name: str, fast_path: bool = True,
            block_cache: bool = True) -> Dict[str, object]:
    """Execute one rig and wrap it with wall-clock accounting.

    The returned payload is the per-rig record of the trajectory file:
    simulated work (``instructions``/``cycles``), host wall-clock
    (``wall_s``) and the throughput quotient (``ips``) every future PR
    regresses against.
    """
    import time

    rig = RIGS[name]
    started = time.perf_counter()
    out = rig.run(fast_path, block_cache)
    wall = time.perf_counter() - started
    return {
        "rig": name,
        "fast_path": bool(fast_path),
        "block_cache": bool(block_cache),
        "instructions": out["instructions"],
        "cycles": round(out["cycles"], 1),
        "wall_s": round(wall, 3),
        "ips": round(out["instructions"] / wall, 1) if wall > 0 else 0.0,
        "detail": out["detail"],
    }
