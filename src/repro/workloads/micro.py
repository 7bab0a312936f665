"""Latency microbenchmarks (Table 4).

Methodology matches the paper's: tight loops around the operation under
test, minus an identical loop with the operation replaced by ``nop``,
divided by the iteration count.  Gates loop by registering each gate's
destination as its own fall-through instruction (a domain can legally
switch to itself).

Single-instruction latencies for ``hccalls``/``hcrets`` cannot be
isolated by differencing (they must balance the trusted stack), so the
loop measures the *pair* — which is exactly the paper's "X-domain call"
row — and :func:`instruction_latencies` additionally reports the
per-instruction costs straight from the pipeline model.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core import CONFIG_8E, PcuConfig
from repro.core.isa_extension import GateKind
from repro.kernel.riscv_kernel import RiscvKernel
from repro.riscv import KERNEL_BASE as RISCV_KERNEL_BASE
from repro.riscv import USER_BASE as RISCV_USER_BASE
from repro.riscv import assemble as riscv_assemble
from repro.riscv import build_riscv_system
from repro.sim.machine import MachineStats
from repro.sim.pipeline import StepInfo
from repro.x86 import KERNEL_BASE as X86_KERNEL_BASE
from repro.x86 import assemble as x86_assemble
from repro.x86 import build_x86_system

#: Called with the :class:`MachineStats` of every run a measurement
#: makes (the paper registry totals the simulated work this way).
OnRun = Optional[Callable[[MachineStats], object]]

#: Literature comparison rows quoted in Table 4 (cycles).
LITERATURE_ROWS = {
    "CHERI cross-domain (CHERI MIPS)": 400,
    "Donky memory-permission switch (Ariane)": 2136,
    "Empty VM call (virtualization trap)": 1700,
}

_RISCV_GATE_LOOP = """
entry:
    li t0, 0
g_d0:
    hccall t0
bench_start:
    li t0, 1
    li s2, %(iters)d
loop:
%(body)s
    addi s2, s2, -1
    bnez s2, loop
    halt
%(tail)s
"""


def _riscv_loop_cycles(
    body: str, gates, iterations: int, config: PcuConfig, tail: str = "",
    on_run: OnRun = None,
) -> float:
    """Cycles of one RISC-V loop; ``gates`` = [(gate_label, dest_label)].

    The preamble gate (id 0) leaves domain-0 so the measured gates run
    between ordinary domains; body gates get ids 1, 2, ...
    """
    system = build_riscv_system(config)
    manager = system.manager
    domain = manager.create_domain("bench")
    manager.allow_all_instructions(domain.domain_id)
    manager.allocate_trusted_stack(frames=16)
    source = _RISCV_GATE_LOOP % {"iters": iterations, "body": body, "tail": tail}
    program = riscv_assemble(source, base=RISCV_KERNEL_BASE)
    system.load(program)
    manager.register_gate(
        program.symbol("g_d0"), program.symbol("bench_start"), domain.domain_id
    )
    for gate_label, dest_label in gates:
        manager.register_gate(
            program.symbol(gate_label), program.symbol(dest_label), domain.domain_id
        )
    stats = system.run(program.symbol("entry"), max_steps=60 * iterations + 1000)
    return _report_run(stats, on_run).cycles


def _report_run(stats: MachineStats, on_run: OnRun) -> MachineStats:
    if on_run is not None:
        on_run(stats)
    return stats


def measure_riscv_gates(
    config: PcuConfig = CONFIG_8E, iterations: int = 2000,
    on_run: OnRun = None,
) -> Dict[str, float]:
    """Measured RISC-V gate latencies (Table 4 rows, cycles/op)."""
    baseline = _riscv_loop_cycles("    nop", [], iterations, config,
                                  on_run=on_run)
    hccall = _riscv_loop_cycles(
        "g0:\n    hccall t0\nafter0:", [("g0", "after0")], iterations, config,
        on_run=on_run,
    )
    pair = _riscv_loop_cycles(
        "g0:\n    hccalls t0\nafter0:",
        [("g0", "fn")], iterations, config,
        tail="fn:\n    hcrets",
        on_run=on_run,
    )
    two_hccall = _riscv_loop_cycles(
        "g0:\n    hccall t0\nmid:\n    li t1, 2\ng1:\n    hccall t1\nafter1:",
        [("g0", "mid"), ("g1", "after1")], iterations, config,
        on_run=on_run,
    )
    two_baseline = _riscv_loop_cycles(
        "    nop\n    li t1, 2\n    nop", [], iterations, config,
        on_run=on_run,
    )
    return {
        "hccall": (hccall - baseline) / iterations,
        "hccalls+hcrets": (pair - baseline) / iterations,
        "xdomain_two_hccall": (two_hccall - two_baseline) / iterations,
    }


_X86_GATE_LOOP = """
entry:
    mov rsp, 0x6e0000
    mov r10, 0
g_d0:
    hccall r10
bench_start:
    mov r10, 1
    mov r12, %(iters)d
loop:
%(body)s
    sub r12, 1
    jne loop
    hlt
%(tail)s
"""


def _x86_loop_cycles(
    body: str, gates, iterations: int, config: PcuConfig, tail: str = "",
    on_run: OnRun = None,
) -> float:
    system = build_x86_system(config)
    manager = system.manager
    domain = manager.create_domain("bench")
    manager.allow_all_instructions(domain.domain_id)
    manager.allocate_trusted_stack(frames=16)
    source = _X86_GATE_LOOP % {"iters": iterations, "body": body, "tail": tail}
    program = x86_assemble(source, base=X86_KERNEL_BASE)
    system.load(program)
    manager.register_gate(
        program.symbol("g_d0"), program.symbol("bench_start"), domain.domain_id
    )
    for gate_label, dest_label in gates:
        manager.register_gate(
            program.symbol(gate_label), program.symbol(dest_label), domain.domain_id
        )
    stats = system.run(program.symbol("entry"), max_steps=60 * iterations + 1000)
    return _report_run(stats, on_run).cycles


def measure_x86_gates(
    config: PcuConfig = CONFIG_8E, iterations: int = 2000,
    on_run: OnRun = None,
) -> Dict[str, float]:
    """Measured x86 gate latencies (Table 4 rows, cycles/op)."""
    baseline = _x86_loop_cycles("    nop", [], iterations, config,
                                on_run=on_run)
    hccall = _x86_loop_cycles(
        "g0:\n    hccall r10\nafter0:", [("g0", "after0")], iterations, config,
        on_run=on_run,
    )
    pair = _x86_loop_cycles(
        "g0:\n    hccalls r10\nafter0:",
        [("g0", "fn")], iterations, config,
        tail="fn:\n    hcrets",
        on_run=on_run,
    )
    return {
        "hccall": (hccall - baseline) / iterations,
        "xdomain_hccalls_hcrets": (pair - baseline) / iterations,
    }


def instruction_latencies() -> Dict[str, Dict[str, float]]:
    """Per-instruction gate costs straight from the pipeline models
    (the Table 4 "Instruction / Cycles" rows)."""
    from repro.sim import (
        InOrderPipelineModel,
        OutOfOrderPipelineModel,
        gem5_o3_hierarchy,
        rocket_hierarchy,
    )

    out: Dict[str, Dict[str, float]] = {}
    inorder = InOrderPipelineModel(rocket_hierarchy())
    inorder.hierarchy.access_instruction(0x1000)
    out["riscv"] = {
        kind.name.lower(): inorder.instruction_cycles(
            StepInfo(pc=0x1000, is_gate=True, gate_kind=kind)
        )
        for kind in (GateKind.HCCALL, GateKind.HCCALLS, GateKind.HCRETS)
    }
    o3 = OutOfOrderPipelineModel(gem5_o3_hierarchy())
    o3.hierarchy.access_instruction(0x1000)
    o3.hierarchy.access_instruction(0x1000)
    out["x86"] = {}
    for kind in (GateKind.HCCALL, GateKind.HCCALLS, GateKind.HCRETS):
        # fresh model per kind so forwarding state doesn't leak
        model = OutOfOrderPipelineModel(gem5_o3_hierarchy())
        model.hierarchy.access_instruction(0x1000)
        model.hierarchy.access_instruction(0x1000)
        out["x86"][kind.name.lower()] = model.instruction_cycles(
            StepInfo(pc=0x1000, is_gate=True, gate_kind=kind)
        )
    return out


_SYSCALL_LOOP = """
user_entry:
    li s2, %(iters)d
loop:
    li a7, 1
    ecall
    addi s2, s2, -1
    bnez s2, loop
    li a7, 0
    li a0, 0
    ecall
"""

_EMPTY_LOOP = """
user_entry:
    li s2, %(iters)d
loop:
    li a7, 99
    nop
    addi s2, s2, -1
    bnez s2, loop
    li a7, 0
    li a0, 0
    ecall
"""


def measure_riscv_syscall(
    config: PcuConfig = CONFIG_8E, *, pti: bool = False,
    iterations: int = 500, on_run: OnRun = None,
) -> float:
    """Empty system call latency on the native RISC-V kernel (cycles)."""
    kernel = RiscvKernel("native", config, pti=pti)
    program = riscv_assemble(_SYSCALL_LOOP % {"iters": iterations}, base=RISCV_USER_BASE)
    stats = kernel.run(program, max_steps=400 * iterations + 2000)
    loop_cycles = _report_run(stats, on_run).cycles

    baseline_kernel = RiscvKernel("native", config, pti=pti)
    baseline_program = riscv_assemble(
        _EMPTY_LOOP % {"iters": iterations}, base=RISCV_USER_BASE
    )
    baseline = _report_run(baseline_kernel.run(
        baseline_program, max_steps=400 * iterations + 2000
    ), on_run).cycles
    return (loop_cycles - baseline) / iterations


_SUPERVISOR_CALL_LOOP = """
entry:
    la t0, trap
    csrw stvec, t0
    li s2, %(iters)d
loop:
    ecall
back:
    addi s2, s2, -1
    bnez s2, loop
    halt
trap:
    csrr t1, sepc
    addi t1, t1, 4
    csrw sepc, t1
    sret
"""


def measure_riscv_supervisor_call(
    config: PcuConfig = CONFIG_8E, iterations: int = 500,
    on_run: OnRun = None,
) -> float:
    """Empty S-mode ecall round-trip on bare metal (cycles/op)."""
    system = build_riscv_system(config, with_isagrid=False)
    program = riscv_assemble(
        _SUPERVISOR_CALL_LOOP % {"iters": iterations}, base=RISCV_KERNEL_BASE
    )
    system.load(program)
    stats = system.run(program.symbol("entry"), max_steps=100 * iterations + 1000)
    cycles = _report_run(stats, on_run).cycles

    baseline_system = build_riscv_system(config, with_isagrid=False)
    baseline_source = (_SUPERVISOR_CALL_LOOP % {"iters": iterations}).replace(
        "    ecall\nback:", "    nop\nback:"
    )
    baseline_program = riscv_assemble(baseline_source, base=RISCV_KERNEL_BASE)
    baseline_system.load(baseline_program)
    baseline_stats = baseline_system.run(
        baseline_program.symbol("entry"), max_steps=100 * iterations + 1000)
    baseline = _report_run(baseline_stats, on_run).cycles
    return (cycles - baseline) / iterations
