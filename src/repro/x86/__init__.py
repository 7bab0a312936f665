"""x86-64 substrate: the Gem5-O3-like ISA-Grid prototype.

Provides the functional x86 CPU with variable-length instruction
encoding, an Intel-syntax assembler, and :func:`build_x86_system`, which
wires the machine the way the paper's Gem5 prototype is configured
(Table 3): 8-wide O3 pipeline model, 3-level cache hierarchy, trusted
memory, PCU and domain-0 runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import (
    CONFIG_8E,
    DomainManager,
    PcuConfig,
    PrivilegeCheckUnit,
    TrustedMemory,
)
from repro.sim import (
    Machine,
    OutOfOrderPipelineModel,
    PhysicalMemory,
    gem5_o3_hierarchy,
)

from .assembler import Assembler, AssemblerError, Program, assemble
from .cpu import (
    CpuPanic,
    RING0,
    RING3,
    VEC_GP,
    VEC_ISA_GRID,
    VEC_SYSCALL_INT,
    VEC_TRUSTED_MEMORY,
    VEC_UD,
    X86Cpu,
)
from .encoding import EncodingError, Instruction, decode, simple_bytes
from .isa import (
    BASE_COMPUTE_CLASSES,
    CSR_INDEX,
    GATE_CLASSES,
    INST_CLASSES,
    MSR_CSR_NAME,
    RING0_CLASSES,
    X86_ISA_MAP,
)
from . import registers
from .registers import (
    CR0_CD,
    CR0_NE,
    CR0_TS,
    CR0_WP,
    CR4_PCE,
    CR4_PKE,
    CR4_SMAP,
    CR4_SMEP,
    CR4_TSD,
    GPR_NAMES,
    GPR_NUMBER,
    MSR_EFER,
    MSR_LSTAR,
    MSR_PRED_CMD,
    MSR_SPEC_CTRL,
    MSR_VOLTAGE,
    SystemRegisters,
)

# Canonical memory map of the simulated x86 machine.
KERNEL_BASE = 0x0010_0000
USER_BASE = 0x0040_0000
DATA_BASE = 0x0060_0000
IDT_BASE = 0x0068_0000
KERNEL_STACK_TOP = 0x006E_0000
USER_STACK_TOP = 0x006F_0000
TRUSTED_BASE = 0x0100_0000
TRUSTED_SIZE = 1 << 20
MEMORY_SIZE = 1 << 30


@dataclass
class X86System:
    """A fully wired x86 machine (the Gem5-prototype analogue)."""

    machine: Machine
    cpu: X86Cpu
    pcu: Optional[PrivilegeCheckUnit]
    manager: Optional[DomainManager]

    def load(self, program: Program) -> None:
        program.load(self.machine.memory)
        self.cpu.flush_decode_cache()

    def run(self, entry: int, max_steps: int = 2_000_000):
        self.cpu.pc = entry
        return self.machine.run(max_steps)


def build_x86_system(
    config: PcuConfig = CONFIG_8E,
    *,
    with_isagrid: bool = True,
) -> X86System:
    """Build a Gem5-O3-like machine, optionally without ISA-Grid."""
    memory = PhysicalMemory(size=MEMORY_SIZE)
    hierarchy = gem5_o3_hierarchy()
    pipeline = OutOfOrderPipelineModel(hierarchy)
    pcu = None
    manager = None
    if with_isagrid:
        trusted = TrustedMemory(TRUSTED_BASE, TRUSTED_SIZE, backing=memory)
        pcu = PrivilegeCheckUnit(
            X86_ISA_MAP,
            config.with_refill_latency(hierarchy.miss_path_latency),
            trusted,
        )
        manager = DomainManager(pcu)
    machine = Machine(memory, hierarchy, pipeline, pcu)
    # Native (PCU-less) machines honour the escape hatch too, so
    # ``paper --no-block-cache`` never takes the block executor on
    # either side of a native-vs-protected pair.
    machine.block_summaries = config.block_summaries
    cpu = X86Cpu(machine)
    return X86System(machine, cpu, pcu, manager)


__all__ = [
    "Assembler",
    "AssemblerError",
    "BASE_COMPUTE_CLASSES",
    "CR0_CD",
    "CR0_NE",
    "CR0_TS",
    "CR0_WP",
    "CR4_PCE",
    "CR4_PKE",
    "CR4_SMAP",
    "CR4_SMEP",
    "CR4_TSD",
    "CSR_INDEX",
    "CpuPanic",
    "DATA_BASE",
    "EncodingError",
    "GATE_CLASSES",
    "GPR_NAMES",
    "GPR_NUMBER",
    "IDT_BASE",
    "INST_CLASSES",
    "Instruction",
    "KERNEL_BASE",
    "KERNEL_STACK_TOP",
    "MEMORY_SIZE",
    "MSR_CSR_NAME",
    "MSR_EFER",
    "MSR_LSTAR",
    "MSR_PRED_CMD",
    "MSR_SPEC_CTRL",
    "MSR_VOLTAGE",
    "Program",
    "RING0",
    "RING0_CLASSES",
    "RING3",
    "SystemRegisters",
    "TRUSTED_BASE",
    "TRUSTED_SIZE",
    "USER_BASE",
    "USER_STACK_TOP",
    "VEC_GP",
    "VEC_ISA_GRID",
    "VEC_SYSCALL_INT",
    "VEC_TRUSTED_MEMORY",
    "VEC_UD",
    "X86Cpu",
    "X86System",
    "X86_ISA_MAP",
    "assemble",
    "build_x86_system",
    "decode",
    "registers",
    "simple_bytes",
]
