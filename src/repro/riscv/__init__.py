"""RISC-V substrate: the Rocket-like ISA-Grid prototype.

Provides the RV64 functional CPU, a real-encoding assembler, and
:func:`build_riscv_system`, which wires a complete simulated machine the
way the paper's FPGA prototype is wired: in-order 5-stage pipeline
model, Rocket-like memory hierarchy, trusted memory, PCU and domain-0
runtime.
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
    InOrderPipelineModel,
    Machine,
    PhysicalMemory,
    rocket_hierarchy,
)

from .assembler import Assembler, AssemblerError, Program, assemble
from .cpu import (
    CAUSE_ECALL_S,
    CAUSE_ECALL_U,
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_ISA_GRID_FAULT,
    CAUSE_TRUSTED_MEMORY,
    CpuPanic,
    PRIV_M,
    PRIV_S,
    PRIV_U,
    RiscvCpu,
)
from .encoding import EncodingError, Instruction, decode, encode
from .mmu import (
    PageFault,
    PageTableBuilder,
    Sv39Mmu,
    make_pte,
    make_satp,
)
from .isa import (
    ABI_REGISTERS,
    BASE_COMPUTE_CLASSES,
    CSR_ADDRESS,
    CSR_INDEX_BY_ADDRESS,
    GATE_CLASSES,
    INST_CLASSES,
    REGISTER_NUMBER,
    RISCV_ISA_MAP,
    SSTATUS_SIE,
    SSTATUS_SPIE,
    SSTATUS_SPP,
    SSTATUS_SUM,
)

# Canonical memory map of the simulated RISC-V machine.
KERNEL_BASE = 0x0010_0000
USER_BASE = 0x0040_0000
DATA_BASE = 0x0060_0000
KERNEL_STACK_TOP = 0x006E_0000
USER_STACK_TOP = 0x006F_0000
TRUSTED_BASE = 0x0100_0000
TRUSTED_SIZE = 1 << 20
MEMORY_SIZE = 1 << 30  # the FPGA board's 1 GB DDR3


@dataclass
class RiscvSystem:
    """A fully wired RISC-V machine (the FPGA-prototype analogue)."""

    machine: Machine
    cpu: RiscvCpu
    pcu: Optional[PrivilegeCheckUnit]
    manager: Optional[DomainManager]

    def load(self, program: Program) -> None:
        program.load(self.machine.memory)
        self.cpu.flush_decode_cache()

    def run(self, entry: int, max_steps: int = 2_000_000):
        self.cpu.pc = entry
        return self.machine.run(max_steps)


def build_riscv_system(
    config: PcuConfig = CONFIG_8E,
    *,
    with_isagrid: bool = True,
) -> RiscvSystem:
    """Build a Rocket-like machine, optionally without ISA-Grid (baseline)."""
    memory = PhysicalMemory(size=MEMORY_SIZE)
    hierarchy = rocket_hierarchy()
    pipeline = InOrderPipelineModel(hierarchy)
    pcu = None
    manager = None
    if with_isagrid:
        trusted = TrustedMemory(TRUSTED_BASE, TRUSTED_SIZE, backing=memory)
        pcu = PrivilegeCheckUnit(
            RISCV_ISA_MAP,
            config.with_refill_latency(hierarchy.miss_path_latency),
            trusted,
        )
        manager = DomainManager(pcu)
    machine = Machine(memory, hierarchy, pipeline, pcu)
    # Native (PCU-less) machines honour the escape hatch too, so
    # ``paper --no-block-cache`` never takes the block executor on
    # either side of a native-vs-protected pair.
    machine.block_summaries = config.block_summaries
    cpu = RiscvCpu(machine)
    return RiscvSystem(machine, cpu, pcu, manager)


__all__ = [
    "ABI_REGISTERS",
    "Assembler",
    "AssemblerError",
    "BASE_COMPUTE_CLASSES",
    "CAUSE_ECALL_S",
    "CAUSE_ECALL_U",
    "CAUSE_ILLEGAL_INSTRUCTION",
    "CAUSE_ISA_GRID_FAULT",
    "CAUSE_TRUSTED_MEMORY",
    "CSR_ADDRESS",
    "CSR_INDEX_BY_ADDRESS",
    "CpuPanic",
    "DATA_BASE",
    "EncodingError",
    "GATE_CLASSES",
    "INST_CLASSES",
    "Instruction",
    "KERNEL_BASE",
    "KERNEL_STACK_TOP",
    "MEMORY_SIZE",
    "PRIV_M",
    "PRIV_S",
    "PRIV_U",
    "PageFault",
    "PageTableBuilder",
    "Program",
    "REGISTER_NUMBER",
    "RISCV_ISA_MAP",
    "RiscvCpu",
    "RiscvSystem",
    "Sv39Mmu",
    "SSTATUS_SIE",
    "SSTATUS_SPIE",
    "SSTATUS_SPP",
    "SSTATUS_SUM",
    "TRUSTED_BASE",
    "TRUSTED_SIZE",
    "USER_BASE",
    "USER_STACK_TOP",
    "assemble",
    "build_riscv_system",
    "decode",
    "encode",
    "make_pte",
    "make_satp",
]
