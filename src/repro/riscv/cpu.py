"""Functional RV64 CPU model with an integrated Privilege Check Unit.

The core models U/S privilege modes (plus an M mode for completeness),
the supervisor trap machinery (``stvec``/``sepc``/``scause``/``stval``/
``sstatus``), and the full instruction subset of
:mod:`repro.riscv.encoding`.  Every issued instruction is checked by the
CPU privilege level *and* by the attached PCU, exactly as Section 4.1
prescribes; either rejection vectors to the supervisor trap handler.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.errors import PrivilegeFault, TrustedMemoryFault
from repro.core.isa_extension import AccessInfo, CacheId, GateKind
from repro.core.pcu import PrivilegeCheckUnit
from repro.sim import blocks
from repro.sim.machine import Machine
from repro.sim.pipeline import InOrderPipelineModel, StepInfo
from repro.sim.trap import Trap, TrapKind

from .encoding import (
    EncodingError,
    Instruction,
    decode,
    is_unsigned_load,
    load_width,
    sign_extend,
)
from .isa import (
    CSR_ADDRESS,
    CSR_INDEX_BY_ADDRESS,
    CSR_MIN_PRIV,
    GATE_CLASSES,
    READ_ONLY_CSRS,
    RISCV_ISA_MAP,
    SSTATUS_SIE,
    SSTATUS_SPIE,
    SSTATUS_SPP,
    SSTATUS_SUM,
)
from .mmu import (
    ACCESS_FETCH,
    ACCESS_LOAD,
    ACCESS_STORE,
    SATP_MODE_SHIFT,
    Sv39Mmu,
)

MASK64 = (1 << 64) - 1

PRIV_U = 0
PRIV_S = 1
PRIV_M = 3

# scause values (RISC-V privileged spec + two custom causes for ISA-Grid).
CAUSE_ILLEGAL_INSTRUCTION = 2
CAUSE_BREAKPOINT = 3
CAUSE_ECALL_U = 8
CAUSE_ECALL_S = 9
CAUSE_ISA_GRID_FAULT = 24      # custom: PCU privilege rejection
CAUSE_TRUSTED_MEMORY = 25      # custom: trusted-memory access violation

_CAUSE_BY_KIND = {
    TrapKind.ILLEGAL_INSTRUCTION: CAUSE_ILLEGAL_INSTRUCTION,
    TrapKind.BREAKPOINT: CAUSE_BREAKPOINT,
    TrapKind.ISA_GRID_FAULT: CAUSE_ISA_GRID_FAULT,
    TrapKind.TRUSTED_MEMORY_FAULT: CAUSE_TRUSTED_MEMORY,
}

_GATE_KIND = {
    "hccall": GateKind.HCCALL,
    "hccalls": GateKind.HCCALLS,
    "hcrets": GateKind.HCRETS,
}


class CpuPanic(Exception):
    """A trap occurred with no handler installed (stvec == 0)."""


def to_signed(value: int) -> int:
    return sign_extend(value & MASK64, 64)


def _div_trunc(a: int, b: int) -> int:
    """RISC-V signed division: truncate toward zero, div-by-zero = -1."""
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _remw(r, inst, pc):
    aw = sign_extend(r[inst.rs1] & 0xFFFFFFFF, 32)
    bw = sign_extend(r[inst.rs2] & 0xFFFFFFFF, 32)
    rem = aw if bw == 0 else aw - _div_trunc(aw, bw) * bw
    return sign_extend(rem & 0xFFFFFFFF, 32)


def _rem(r, inst, pc):
    sa, sb = to_signed(r[inst.rs1]), to_signed(r[inst.rs2])
    return sa if sb == 0 else sa - _div_trunc(sa, sb) * sb


def _divw(r, inst, pc):
    aw = sign_extend(r[inst.rs1] & 0xFFFFFFFF, 32)
    bw = sign_extend(r[inst.rs2] & 0xFFFFFFFF, 32)
    return sign_extend(_div_trunc(aw, bw) & 0xFFFFFFFF, 32)


def _divuw(r, inst, pc):
    aw, bw = r[inst.rs1] & 0xFFFFFFFF, r[inst.rs2] & 0xFFFFFFFF
    return -1 if bw == 0 else sign_extend(aw // bw, 32)


def _remuw(r, inst, pc):
    aw, bw = r[inst.rs1] & 0xFFFFFFFF, r[inst.rs2] & 0xFFFFFFFF
    return sign_extend(aw if bw == 0 else aw % bw, 32)


# Per-mnemonic ALU evaluators, resolved once at decode time; each takes
# (regs, inst, pc) and returns the (unmasked) rd value.  The expressions
# are the same ones the old mnemonic if-chain computed.
_ALU_OPS = {
    "lui": lambda r, inst, pc: inst.imm,
    "auipc": lambda r, inst, pc: pc + inst.imm,
    "addi": lambda r, inst, pc: r[inst.rs1] + inst.imm,
    "slti": lambda r, inst, pc: int(to_signed(r[inst.rs1]) < inst.imm),
    "sltiu": lambda r, inst, pc: int(r[inst.rs1] < inst.imm & MASK64),
    "xori": lambda r, inst, pc: r[inst.rs1] ^ inst.imm & MASK64,
    "ori": lambda r, inst, pc: r[inst.rs1] | inst.imm & MASK64,
    "andi": lambda r, inst, pc: r[inst.rs1] & inst.imm & MASK64,
    "slli": lambda r, inst, pc: r[inst.rs1] << inst.imm,
    "srli": lambda r, inst, pc: r[inst.rs1] >> inst.imm,
    "srai": lambda r, inst, pc: to_signed(r[inst.rs1]) >> inst.imm,
    "addiw": lambda r, inst, pc: sign_extend((r[inst.rs1] + inst.imm) & 0xFFFFFFFF, 32),
    "slliw": lambda r, inst, pc: sign_extend((r[inst.rs1] << inst.imm) & 0xFFFFFFFF, 32),
    "srliw": lambda r, inst, pc: sign_extend((r[inst.rs1] & 0xFFFFFFFF) >> inst.imm, 32),
    "sraiw": lambda r, inst, pc: sign_extend(r[inst.rs1] & 0xFFFFFFFF, 32) >> inst.imm,
    "add": lambda r, inst, pc: r[inst.rs1] + r[inst.rs2],
    "sub": lambda r, inst, pc: r[inst.rs1] - r[inst.rs2],
    "sll": lambda r, inst, pc: r[inst.rs1] << (r[inst.rs2] & 63),
    "slt": lambda r, inst, pc: int(to_signed(r[inst.rs1]) < to_signed(r[inst.rs2])),
    "sltu": lambda r, inst, pc: int(r[inst.rs1] < r[inst.rs2]),
    "xor": lambda r, inst, pc: r[inst.rs1] ^ r[inst.rs2],
    "srl": lambda r, inst, pc: r[inst.rs1] >> (r[inst.rs2] & 63),
    "sra": lambda r, inst, pc: to_signed(r[inst.rs1]) >> (r[inst.rs2] & 63),
    "or": lambda r, inst, pc: r[inst.rs1] | r[inst.rs2],
    "and": lambda r, inst, pc: r[inst.rs1] & r[inst.rs2],
    "mul": lambda r, inst, pc: to_signed(r[inst.rs1]) * to_signed(r[inst.rs2]),
    "mulh": lambda r, inst, pc: (to_signed(r[inst.rs1]) * to_signed(r[inst.rs2])) >> 64,
    "mulhu": lambda r, inst, pc: (r[inst.rs1] * r[inst.rs2]) >> 64,
    "mulhsu": lambda r, inst, pc: (to_signed(r[inst.rs1]) * r[inst.rs2]) >> 64,
    "div": lambda r, inst, pc: _div_trunc(to_signed(r[inst.rs1]), to_signed(r[inst.rs2])),
    "divu": lambda r, inst, pc: MASK64 if r[inst.rs2] == 0 else r[inst.rs1] // r[inst.rs2],
    "rem": _rem,
    "remu": lambda r, inst, pc: r[inst.rs1] if r[inst.rs2] == 0 else r[inst.rs1] % r[inst.rs2],
    "addw": lambda r, inst, pc: sign_extend((r[inst.rs1] + r[inst.rs2]) & 0xFFFFFFFF, 32),
    "subw": lambda r, inst, pc: sign_extend((r[inst.rs1] - r[inst.rs2]) & 0xFFFFFFFF, 32),
    "sllw": lambda r, inst, pc: sign_extend((r[inst.rs1] << (r[inst.rs2] & 31)) & 0xFFFFFFFF, 32),
    "srlw": lambda r, inst, pc: sign_extend((r[inst.rs1] & 0xFFFFFFFF) >> (r[inst.rs2] & 31), 32),
    "sraw": lambda r, inst, pc: sign_extend(r[inst.rs1] & 0xFFFFFFFF, 32) >> (r[inst.rs2] & 31),
    "mulw": lambda r, inst, pc: sign_extend((r[inst.rs1] * r[inst.rs2]) & 0xFFFFFFFF, 32),
    "divw": _divw,
    "divuw": _divuw,
    "remw": _remw,
    "remuw": _remuw,
}

# Fully specialized ALU factories for the mnemonics that dominate the
# microbenchmarks: called once at decode with the Instruction, they
# return a closure over the *integer* operand fields, so the per-step
# call reads no ``inst`` attributes at all.  Each body is the matching
# ``_ALU_OPS`` expression with the ``& MASK64`` kept exactly where the
# result can leave [0, MASK64] (operands themselves are always stored
# masked).  ``auipc`` stays on the generic path — it needs the runtime
# pc, which translated aliases make per-step, not per-entry.
def _spec_lui(inst):
    rd, value = inst.rd, inst.imm & MASK64

    def op(r):
        r[rd] = value

    return op


def _spec_addi(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = (r[rs1] + imm) & MASK64

    return op


def _spec_slti(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = int(to_signed(r[rs1]) < imm)

    return op


def _spec_sltiu(inst):
    rd, rs1, value = inst.rd, inst.rs1, inst.imm & MASK64

    def op(r):
        r[rd] = int(r[rs1] < value)

    return op


def _spec_xori(inst):
    rd, rs1, value = inst.rd, inst.rs1, inst.imm & MASK64

    def op(r):
        r[rd] = r[rs1] ^ value

    return op


def _spec_ori(inst):
    rd, rs1, value = inst.rd, inst.rs1, inst.imm & MASK64

    def op(r):
        r[rd] = r[rs1] | value

    return op


def _spec_andi(inst):
    rd, rs1, value = inst.rd, inst.rs1, inst.imm & MASK64

    def op(r):
        r[rd] = r[rs1] & value

    return op


def _spec_slli(inst):
    rd, rs1, shamt = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = (r[rs1] << shamt) & MASK64

    return op


def _spec_srli(inst):
    rd, rs1, shamt = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = r[rs1] >> shamt

    return op


def _spec_srai(inst):
    rd, rs1, shamt = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = (to_signed(r[rs1]) >> shamt) & MASK64

    return op


def _spec_addiw(inst):
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm

    def op(r):
        r[rd] = sign_extend((r[rs1] + imm) & 0xFFFFFFFF, 32) & MASK64

    return op


def _spec_add(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = (r[rs1] + r[rs2]) & MASK64

    return op


def _spec_sub(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = (r[rs1] - r[rs2]) & MASK64

    return op


def _spec_sll(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = (r[rs1] << (r[rs2] & 63)) & MASK64

    return op


def _spec_slt(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = int(to_signed(r[rs1]) < to_signed(r[rs2]))

    return op


def _spec_sltu(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = int(r[rs1] < r[rs2])

    return op


def _spec_xor(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = r[rs1] ^ r[rs2]

    return op


def _spec_srl(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = r[rs1] >> (r[rs2] & 63)

    return op


def _spec_sra(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = (to_signed(r[rs1]) >> (r[rs2] & 63)) & MASK64

    return op


def _spec_or(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = r[rs1] | r[rs2]

    return op


def _spec_and(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = r[rs1] & r[rs2]

    return op


def _spec_mul(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = (to_signed(r[rs1]) * to_signed(r[rs2])) & MASK64

    return op


def _spec_addw(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = sign_extend((r[rs1] + r[rs2]) & 0xFFFFFFFF, 32) & MASK64

    return op


def _spec_subw(inst):
    rd, rs1, rs2 = inst.rd, inst.rs1, inst.rs2

    def op(r):
        r[rd] = sign_extend((r[rs1] - r[rs2]) & 0xFFFFFFFF, 32) & MASK64

    return op


_ALU_SPEC = {
    "lui": _spec_lui,
    "addi": _spec_addi,
    "slti": _spec_slti,
    "sltiu": _spec_sltiu,
    "xori": _spec_xori,
    "ori": _spec_ori,
    "andi": _spec_andi,
    "slli": _spec_slli,
    "srli": _spec_srli,
    "srai": _spec_srai,
    "addiw": _spec_addiw,
    "add": _spec_add,
    "sub": _spec_sub,
    "sll": _spec_sll,
    "slt": _spec_slt,
    "sltu": _spec_sltu,
    "xor": _spec_xor,
    "srl": _spec_srl,
    "sra": _spec_sra,
    "or": _spec_or,
    "and": _spec_and,
    "mul": _spec_mul,
    "addw": _spec_addw,
    "subw": _spec_subw,
}


# Per-mnemonic branch comparators, resolved once at decode time.
_BRANCH_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


class RiscvCpu:
    """A single RV64 hart attached to a :class:`Machine`."""

    def __init__(self, machine: Machine, pcu: Optional[PrivilegeCheckUnit] = None):
        self.machine = machine
        self.memory = machine.memory
        self.pcu = pcu if pcu is not None else machine.pcu
        self.isa_map = RISCV_ISA_MAP
        self.regs = [0] * 32
        self.pc = 0
        self.mode = PRIV_S  # boot in supervisor mode (kernel boot code)
        self.csrs: Dict[int, int] = {addr: 0 for addr in CSR_INDEX_BY_ADDRESS}
        self.exit_code: Optional[int] = None
        self.trap_count = 0
        self.last_trap: Optional[Trap] = None
        self._class_index = {
            name: self.isa_map.inst_class(name)
            for name in self.isa_map.inst_class_names
        }
        self._csr_class = self._class_index["csr"]
        self._satp_address = CSR_ADDRESS["satp"]
        self._sstatus_address = CSR_ADDRESS["sstatus"]
        # Bound-method handles for the load/store hot path (the memory
        # object is fixed for the CPU's life).  The trusted-memory filter
        # is not bound here: the handlers look it up on ``self.pcu`` at
        # each access, so the lockstep monitor's shadowing sees them.
        self._mem_load = self.memory.load
        self._mem_store = self.memory.store
        # pa -> (inst, handler, prebuilt AccessInfo | None, extra).
        # ``handler(cpu, inst, pc, info, extra)`` is a plain function of
        # the class.  ``access`` is the plain PCU check the step loop
        # performs before dispatch; handlers with ``None`` (gates, CSR
        # ops, mode-checked specials) run their own checks in the
        # architecturally required order.  ``extra`` holds per-handler
        # precomputed operands.
        self._decode_cache: Dict[int, tuple] = {}
        # pc -> CompiledBlock | NO_BLOCK (DESIGN §3.18): superblocks
        # over the decode entries, each carrying a privilege summary so
        # a block costs one PCU probe per epoch.  Blocks are only formed
        # and entered while translation is Bare (satp.MODE = 0, so
        # pa == pc) and are invalidated with the decode cache; privilege
        # edits need no explicit invalidation because the summary is
        # re-proved against the *live* bypass register in every epoch,
        # and an epoch ends at every reference step, where such an edit
        # runs.
        self._block_cache: Dict[int, object] = {}
        # Block formation bakes the Rocket timing model into the member
        # closures, so any other pipeline falls back to the
        # per-instruction loop.
        pipeline = machine.pipeline
        self.blocks_supported = type(pipeline) is InOrderPipelineModel
        # The handles through which shared member closures reach this
        # CPU's timing model, and the constants they bake in: (L1I line
        # bytes, warm-fetch cost, mispredict penalty).  A warm fetch is
        # an L1I MRU hit (DESIGN §3.18), costing what
        # ``instruction_cycles`` charges.
        l1i = pipeline.hierarchy.l1i
        self._fetch = pipeline._access_instruction
        self._data = pipeline._access_data
        self._l1i_stats = l1i.stats
        self._branch_stats = pipeline.branch_stats
        self._predict = pipeline._predictor_update
        self._timing = None
        if self.blocks_supported:
            f = l1i.latency
            self._timing = (l1i.line, 1.0 + (f - 1) if f > 1 else 1.0,
                            pipeline._mispredict_penalty)
        # Optional Sv39 translation: identity (Bare) until software
        # writes a Sv39-mode SATP.  The decode cache is keyed by
        # *physical* address, so address-space switches stay coherent.
        self.mmu = Sv39Mmu(machine.memory, machine.hierarchy)
        self._ACCESS_FETCH = ACCESS_FETCH
        self._ACCESS_LOAD = ACCESS_LOAD
        self._ACCESS_STORE = ACCESS_STORE
        machine.attach_cpu(self)

    # ------------------------------------------------------------------
    # Address translation.
    # ------------------------------------------------------------------
    def _translate(
        self, vaddr: int, access: str, info: StepInfo, satp: int
    ) -> int:
        if not satp >> SATP_MODE_SHIFT:  # Bare mode fast path
            return vaddr
        paddr, cycles = self.mmu.translate(
            vaddr,
            access,
            satp=satp,
            priv_mode=self.mode,
            sum_bit=bool(self.csrs[self._sstatus_address] & SSTATUS_SUM),
        )
        if cycles:
            info.extra_cycles += cycles
        return paddr

    def flush_decode_cache(self) -> None:
        """Call after writing instruction memory (icache coherence)."""
        self._decode_cache.clear()
        if self._block_cache:
            self._block_cache.clear()
            if self.pcu is not None:
                self.pcu.block_stats.invalidations += 1

    # ------------------------------------------------------------------
    # Register helpers.
    # ------------------------------------------------------------------
    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & MASK64

    # ------------------------------------------------------------------
    # CSR access (architectural; privilege checks are in the executor).
    # ------------------------------------------------------------------
    def read_csr(self, address: int) -> int:
        if address == CSR_ADDRESS["domain"]:
            return self.pcu.current_domain if self.pcu else 0
        if address == CSR_ADDRESS["pdomain"]:
            return self.pcu.previous_domain if self.pcu else 0
        if address == CSR_ADDRESS["hcsp"]:
            return self.pcu.registers.hcsp if self.pcu else 0
        if address == CSR_ADDRESS["hcsb"]:
            return self.pcu.registers.hcsb if self.pcu else 0
        if address == CSR_ADDRESS["hcsl"]:
            return self.pcu.registers.hcsl if self.pcu else 0
        if address == CSR_ADDRESS["cycle"]:
            return int(self.machine.stats.cycles)
        if address == CSR_ADDRESS["instret"]:
            return self.machine.stats.instructions
        if address == CSR_ADDRESS["time"]:
            return int(self.machine.stats.cycles) // 10
        return self.csrs[address]

    def write_csr(self, address: int, value: int) -> None:
        # The trusted-stack pointer registers live in the PCU (Table 2);
        # the PCU's HPT check has already gated who may write them
        # (domain-0 by default).
        if self.pcu is not None:
            if address == CSR_ADDRESS["hcsp"]:
                self.pcu.registers.hcsp = value & MASK64
                return
            if address == CSR_ADDRESS["hcsb"]:
                self.pcu.registers.hcsb = value & MASK64
                return
            if address == CSR_ADDRESS["hcsl"]:
                self.pcu.registers.hcsl = value & MASK64
                return
        self.csrs[address] = value & MASK64

    # ------------------------------------------------------------------
    # Trap machinery.
    # ------------------------------------------------------------------
    def _vector_trap(self, trap: Trap, info: StepInfo) -> None:
        """Hardware trap entry into supervisor mode."""
        self.trap_count += 1
        self.last_trap = trap
        handler = self.csrs[CSR_ADDRESS["stvec"]]
        if not handler:
            raise CpuPanic(
                "trap %s at pc=0x%x with no stvec handler" % (trap, trap.pc)
            )
        self.csrs[CSR_ADDRESS["sepc"]] = trap.pc
        self.csrs[CSR_ADDRESS["scause"]] = trap.cause
        self.csrs[CSR_ADDRESS["stval"]] = trap.value & MASK64
        status = self.csrs[CSR_ADDRESS["sstatus"]]
        # Side-effect CSR updates: not PCU-checked (Section 4.1).
        if self.mode == PRIV_S:
            status |= SSTATUS_SPP
        else:
            status &= ~SSTATUS_SPP & MASK64
        if status & SSTATUS_SIE:
            status |= SSTATUS_SPIE
        else:
            status &= ~SSTATUS_SPIE & MASK64
        status &= ~SSTATUS_SIE & MASK64
        self.csrs[CSR_ADDRESS["sstatus"]] = status
        self.mode = PRIV_S
        self.pc = handler
        info.trapped = True

    def _sret(self, info: StepInfo) -> None:
        if self.mode < PRIV_S:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION, pc=self.pc)
        status = self.csrs[CSR_ADDRESS["sstatus"]]
        self.mode = PRIV_S if status & SSTATUS_SPP else PRIV_U
        if status & SSTATUS_SPIE:
            status |= SSTATUS_SIE
        else:
            status &= ~SSTATUS_SIE & MASK64
        status &= ~SSTATUS_SPP & MASK64
        self.csrs[CSR_ADDRESS["sstatus"]] = status
        self.pc = self.csrs[CSR_ADDRESS["sepc"]]
        info.trap_return = True

    # ------------------------------------------------------------------
    # The fetch-decode-execute step.
    # ------------------------------------------------------------------
    def step(self) -> StepInfo:
        pc = self.pc
        info = StepInfo(pc)
        try:
            satp = self.csrs[self._satp_address]
            if satp >> SATP_MODE_SHIFT:
                fetch_pa = self._translate(pc, self._ACCESS_FETCH, info, satp)
            else:  # Bare mode fast path, inlined
                fetch_pa = pc
            entry = self._decode_cache.get(fetch_pa)
            if entry is None:
                entry = self._decode_entry(fetch_pa, pc)
                self._decode_cache[fetch_pa] = entry
            inst, handler, access, extra = entry
            if access is not None:
                pcu = self.pcu
                if pcu is not None:
                    if access.address != pc:
                        # Translated aliases: same line, different VA.
                        access = AccessInfo(
                            inst_class=access.inst_class, address=pc
                        )
                    stall = pcu.check(access)
                    if stall:
                        info.pcu_stall += stall
            handler(self, inst, pc, info, extra)
        except (Trap, PrivilegeFault) as error:
            self._dispatch_fault(error, pc, info)
        return info

    def _dispatch_fault(self, error, pc: int, info: StepInfo) -> None:
        """Vector a Trap or PrivilegeFault exactly as ``step()`` does.

        Shared by the per-instruction loop and the block executor so a
        mid-block fault takes the identical supervisor-trap path.
        """
        if isinstance(error, Trap):
            if not error.pc:
                error.pc = pc  # page faults raised mid-translation
            self._vector_trap(error, info)
        else:
            kind = (
                TrapKind.TRUSTED_MEMORY_FAULT
                if isinstance(error, TrustedMemoryFault)
                else TrapKind.ISA_GRID_FAULT
            )
            self._vector_trap(
                Trap(
                    kind,
                    _CAUSE_BY_KIND[kind],
                    pc=pc,
                    message=str(error),
                    fault=error,
                ),
                info,
            )

    # ------------------------------------------------------------------
    # Block-summary execution (DESIGN §3.18).
    # ------------------------------------------------------------------
    def _block_op_pure(self, handler, inst, pc: int, extra, warm: bool):
        """Fused member closure: no memory access, no branch predictor."""
        hit = self._timing[1]

        def op(cpu, h=handler, inst=inst, pc=pc, info=blocks.MEMBER_INFO,
               extra=extra, warm=warm, hit=hit):
            h(cpu, inst, pc, info, extra)
            if warm:
                cpu._l1i_stats.hits += 1
                return hit
            f = cpu._fetch(pc)
            if f > 1:
                return 1.0 + (f - 1)
            return 1.0

        return op

    def _block_op_mem(self, handler, inst, pc: int, extra, is_store: bool,
                      warm: bool):
        """Fused member closure for loads and stores."""
        hit = self._timing[1]

        def op(cpu, h=handler, inst=inst, pc=pc, info=blocks.MEMBER_INFO,
               extra=extra, is_store=is_store, warm=warm, hit=hit):
            h(cpu, inst, pc, info, extra)
            if warm:
                cpu._l1i_stats.hits += 1
                c = hit
            else:
                f = cpu._fetch(pc)
                c = 1.0 + (f - 1) if f > 1 else 1.0
            d = cpu._data(info.mem_address, is_store)
            if d > 1:
                c += d - 1
            return c

        return op

    def _block_op_branch(self, handler, inst, pc: int, extra, warm: bool):
        """Fused member closure for conditional branches."""
        _, hit, mp = self._timing

        def op(cpu, h=handler, inst=inst, pc=pc, info=blocks.MEMBER_INFO,
               extra=extra, mp=mp, warm=warm, hit=hit):
            h(cpu, inst, pc, info, extra)
            if warm:
                cpu._l1i_stats.hits += 1
                c = hit
            else:
                f = cpu._fetch(pc)
                c = 1.0 + (f - 1) if f > 1 else 1.0
            stats = cpu._branch_stats
            stats.predictions += 1
            if cpu._predict(pc, info.branch_taken):
                stats.mispredictions += 1
                c += mp
            return c

        return op

    def _block_member(self, entry: tuple, pc: int, warm: bool):
        """Block membership (DESIGN §3.18): ``(op, size, inst_class,
        ends)`` for the instruction decoded as ``entry``, or ``None``.
        ``warm`` says the member before it fetched the same L1I line, so
        the op charges an L1I hit without calling the hierarchy.

        Members are straight-line instructions whose only PCU
        interaction is the plain instruction-class check; the first
        control transfer (branch/jal/jalr) ends the block as its final
        member.  Gates, CSR access, sret/wfi/sfence, ecall/ebreak,
        pfch/pflh and halt refuse membership, so a block can never
        contain a domain switch, privilege edit or satp write.
        """
        inst, handler, access, extra = entry
        if access is None:
            return None
        cls = inst.inst_class
        mnemonic = inst.mnemonic
        ends = False
        if cls == "alu" or cls == "mul" or cls == "fence":
            op = self._block_op_pure(handler, inst, pc, extra, warm)
        elif cls == "load":
            op = self._block_op_mem(handler, inst, pc, extra, False, warm)
        elif cls == "store":
            op = self._block_op_mem(handler, inst, pc, extra, True, warm)
        elif cls == "branch":
            op = self._block_op_branch(handler, inst, pc, extra, warm)
            ends = True
        elif mnemonic == "jal" or mnemonic == "jalr":
            op = self._block_op_pure(handler, inst, pc, extra, warm)
            ends = True
        else:
            # ecall/ebreak/pfch/pflh/halt: never block members.
            return None
        return op, 4, access.inst_class, ends

    def _block_gate(self) -> bool:
        """Blocks are formed and entered only while translation is Bare
        (satp.MODE = 0), where every fetch, load and store is the
        identity at zero cycles and pc == pa."""
        return not self.csrs[self._satp_address] >> SATP_MODE_SHIFT

    #: Bytes ``_decode_entry`` reads at a pa.
    _decode_window = 4

    run_blocks = blocks.run_blocks

    # ------------------------------------------------------------------
    # Decode-and-dispatch cache.  One decode resolves the handler, the
    # prebuilt plain-check AccessInfo and any static operands, so the
    # steady-state step never re-examines mnemonics or classes.
    # ------------------------------------------------------------------
    def _decode_entry(self, fetch_pa: int, pc: Optional[int] = None) -> tuple:
        """Decode the word at ``fetch_pa``, fetched from virtual ``pc``
        (by default the same address, as under Bare translation)."""
        if pc is None:
            pc = fetch_pa
        try:
            word = self.memory.load(fetch_pa, self._decode_window)
            inst = decode(word)
        except EncodingError as error:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION,
                CAUSE_ILLEGAL_INSTRUCTION,
                value=self.memory.load(fetch_pa, 4),
                pc=pc,
                message=str(error),
            )
        m = inst.mnemonic
        cls = inst.inst_class
        if cls in GATE_CLASSES:
            return inst, RiscvCpu._op_gate, None, _GATE_KIND[m]
        if cls == "csr":
            address = inst.csr
            min_priv = CSR_MIN_PRIV.get(address)
            extra = (
                address,
                CSR_INDEX_BY_ADDRESS[address] if min_priv is not None else None,
                min_priv,
                m.endswith("i"),
                m[:5],  # csrrw / csrrs / csrrc
                address in READ_ONLY_CSRS,
            )
            return inst, RiscvCpu._op_csr, None, extra
        # Mode-checked specials run their own hybrid check sequence.
        if m in ("sret", "mret"):
            return inst, RiscvCpu._op_sret, None, None
        if m == "wfi":
            return inst, RiscvCpu._op_wfi, None, None
        if m == "sfence.vma":
            return inst, RiscvCpu._op_sfence, None, None
        access = AccessInfo(inst_class=self._class_index[cls], address=pc)
        if cls == "alu" or cls == "mul":
            op = _ALU_OPS.get(m)
            if op is None:  # pragma: no cover - decoder/executor sync
                return inst, RiscvCpu._op_illegal, access, None
            if inst.rd == 0:
                # rd == x0 discards the result, and no ALU op has side
                # effects or can fault, so the evaluation is elided.
                return inst, RiscvCpu._op_alu_x0, access, None
            spec = _ALU_SPEC.get(m)
            if spec is not None:
                return inst, RiscvCpu._op_alu_spec, access, spec(inst)
            return inst, RiscvCpu._op_alu, access, op
        if cls == "load":
            return inst, RiscvCpu._op_load, access, (
                load_width(m), is_unsigned_load(m)
            )
        if cls == "store":
            return inst, RiscvCpu._op_store, access, load_width(m)
        if cls == "branch":
            return inst, RiscvCpu._op_branch, access, _BRANCH_TAKEN.get(
                m, _BRANCH_TAKEN["bgeu"]
            )
        if cls == "fence":
            return inst, RiscvCpu._op_fence, access, None
        handler = self._SPECIAL_OPS.get(m)
        if handler is None:  # pragma: no cover - decoder/executor sync
            return inst, RiscvCpu._op_illegal, access, None
        return inst, handler, access, None

    def _check_plain(self, inst: Instruction, pc: int, info: StepInfo) -> None:
        if self.pcu is not None:
            info.pcu_stall += self.pcu.check(
                AccessInfo(
                    inst_class=self._class_index[inst.inst_class], address=pc
                )
            )

    # -- handlers (the plain PCU check already ran when access was set) --
    def _op_alu(self, inst: Instruction, pc: int, info: StepInfo, op) -> None:
        rd = inst.rd
        if rd:
            self.regs[rd] = op(self.regs, inst, pc) & MASK64
        self.pc = pc + 4

    def _op_alu_spec(self, inst: Instruction, pc: int, info: StepInfo, op) -> None:
        op(self.regs)
        self.pc = pc + 4

    def _op_alu_x0(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.pc = pc + 4

    def _op_load(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        address = (self.regs[inst.rs1] + inst.imm) & MASK64
        satp = self.csrs[self._satp_address]
        if satp >> SATP_MODE_SHIFT:
            physical = self._translate(address, self._ACCESS_LOAD, info, satp)
        else:  # Bare mode fast path, inlined
            physical = address
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(physical, pc)
        width, unsigned = extra
        value = self._mem_load(physical, width)
        if not unsigned:
            value = sign_extend(value, 8 * width) & MASK64
        rd = inst.rd
        if rd:
            self.regs[rd] = value
        info.is_load = True
        info.mem_address = physical
        self.pc = pc + 4

    def _op_store(self, inst: Instruction, pc: int, info: StepInfo, width) -> None:
        address = (self.regs[inst.rs1] + inst.imm) & MASK64
        satp = self.csrs[self._satp_address]
        if satp >> SATP_MODE_SHIFT:
            physical = self._translate(address, self._ACCESS_STORE, info, satp)
        else:  # Bare mode fast path, inlined
            physical = address
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(physical, pc)
        self._mem_store(physical, self.regs[inst.rs2], width)
        info.is_store = True
        info.mem_address = physical
        self.pc = pc + 4

    def _op_branch(self, inst: Instruction, pc: int, info: StepInfo, taken_fn) -> None:
        info.is_branch = True
        r = self.regs
        taken = taken_fn(r[inst.rs1], r[inst.rs2])
        info.branch_taken = taken
        self.pc = (pc + inst.imm) & MASK64 if taken else pc + 4

    def _op_jal(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.set_reg(inst.rd, pc + 4)
        self.pc = (pc + inst.imm) & MASK64

    def _op_jalr(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        target = (self.regs[inst.rs1] + inst.imm) & MASK64 & ~1
        self.set_reg(inst.rd, pc + 4)
        self.pc = target

    def _op_fence(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.pc = pc + 4

    def _op_ecall(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        raise Trap(
            TrapKind.SYSCALL,
            CAUSE_ECALL_S if self.mode == PRIV_S else CAUSE_ECALL_U,
            pc=pc,
        )

    def _op_ebreak(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        raise Trap(TrapKind.BREAKPOINT, CAUSE_BREAKPOINT, pc=pc)

    def _op_sret(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        # Hybrid check: CPU privilege level first, then the PCU.
        # (mret gets minimal M-mode support: treated like sret from M.)
        if self.mode < PRIV_S:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION, pc=pc)
        self._check_plain(inst, pc, info)
        self._sret(info)

    def _op_wfi(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        if self.mode < PRIV_S:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION, pc=pc)
        self._check_plain(inst, pc, info)
        self.pc = pc + 4

    def _op_sfence(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        if self.mode < PRIV_S:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION, pc=pc)
        self._check_plain(inst, pc, info)
        self.mmu.flush_tlb()
        info.extra_cycles = 8  # TLB maintenance cost
        self.pc = pc + 4

    def _op_pfch(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        if self.pcu is not None:
            self.pcu.prefetch(self.regs[inst.rs1] & 0xFFFF)
        info.extra_cycles = 1
        self.pc = pc + 4

    def _op_pflh(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        if self.pcu is not None:
            self.pcu.flush(CacheId(self.regs[inst.rs1] & 0x7))
        info.extra_cycles = 1
        self.pc = pc + 4

    def _op_halt(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.exit_code = self.regs[10]
        info.halted = True
        self.pc = pc + 4

    def _op_illegal(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:  # pragma: no cover
        raise Trap(TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION, pc=pc)

    _SPECIAL_OPS = {
        "jal": _op_jal,
        "jalr": _op_jalr,
        "ecall": _op_ecall,
        "ebreak": _op_ebreak,
        "pfch": _op_pfch,
        "pflh": _op_pflh,
        "halt": _op_halt,
    }

    # ------------------------------------------------------------------
    def _op_csr(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        address, csr_index, min_priv, immediate, kind, read_only = extra
        info.is_csr = True

        # CPU privilege-level check (the classic mechanism).
        if min_priv is None:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION,
                value=address, pc=pc, message="unimplemented CSR 0x%x" % address,
            )
        if self.mode < min_priv:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION,
                value=address, pc=pc, message="CSR 0x%x needs privilege" % address,
            )

        operand = inst.rs1 if immediate else self.regs[inst.rs1]
        if kind == "csrrw":
            does_read = inst.rd != 0
            does_write = True
        else:
            does_read = True
            does_write = operand != 0 if immediate else inst.rs1 != 0

        if does_write and read_only:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION,
                value=address, pc=pc, message="CSR 0x%x is read-only" % address,
            )

        old = self.read_csr(address)
        if kind == "csrrw":
            new = operand & MASK64
        elif kind == "csrrs":
            new = old | operand
        else:
            new = old & ~operand & MASK64

        # ISA-Grid check: explicit CSR access (Section 4.1).
        if self.pcu is not None:
            info.pcu_stall += self.pcu.check(
                AccessInfo(
                    inst_class=self._csr_class,
                    address=pc,
                    csr=csr_index,
                    csr_read=does_read,
                    csr_write=does_write,
                    write_value=new if does_write else None,
                    old_value=old if does_write else None,
                )
            )

        if does_read:
            self.set_reg(inst.rd, old)
        if does_write:
            self.write_csr(address, new)
        self.pc = pc + 4

    # ------------------------------------------------------------------
    def _op_gate(self, inst: Instruction, pc: int, info: StepInfo, kind) -> None:
        """Gate instructions route to the PCU's switching engine."""
        if self.pcu is None:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, CAUSE_ILLEGAL_INSTRUCTION,
                pc=pc, message="gate instruction without ISA-Grid",
            )
        info.is_gate = True
        info.gate_kind = kind
        gate_id = self.regs[inst.rs1]
        target, stall = self.pcu.execute_gate(
            kind, gate_id, pc, return_address=pc + 4
        )
        info.pcu_stall += stall
        self.pc = target
