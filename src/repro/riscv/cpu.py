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
from repro.sim.memory import PhysicalMemory
from repro.sim.pipeline import StepInfo
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


def _div(a: int, b: int) -> int:
    """RISC-V signed division: truncate toward zero, div-by-zero = -1."""
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _rem(a: int, b: int) -> int:
    """RISC-V signed remainder: the sign of the dividend, a by zero = a."""
    return a if b == 0 else a - _div(a, b) * b


def _word(expression: str) -> str:
    """Source for the low 32 bits of ``expression``, sign-extended to 64
    bits and masked: an RV64 word op's result."""
    return "(((%s) & 0xFFFFFFFF ^ 0x80000000) - 0x80000000) & {M}" % expression


#: RV64 ALU semantics as source: the one statement of each op (DESIGN
#: §3.18 "Generated blocks").  Each is an expression for the value rd
#: receives, already in [0, 2**64), over the fields ``{a}`` and ``{b}``
#: (rs1's and rs2's values), ``{sa}`` and ``{sb}`` (the same, signed),
#: ``{wa}`` and ``{wb}`` (their low words, signed), ``{imm}`` (the
#: immediate), ``{uimm}`` (the immediate as 64 bits) and ``{M}`` (the
#: 64-bit mask).  A block member writes its expression inline, operands
#: and immediate rendered in (:func:`_alu_line`); ``step()`` runs a
#: closure made from the same expression (:func:`_alu_closure`).
#: ``auipc`` is not here: its value needs the runtime pc.
_ALU_SOURCE = {
    "lui": "{uimm}",
    "addi": "({a} + {imm}) & {M}",
    "slti": "1 if {sa} < {imm} else 0",
    "sltiu": "1 if {a} < {uimm} else 0",
    "xori": "{a} ^ {uimm}",
    "ori": "{a} | {uimm}",
    "andi": "{a} & {uimm}",
    "slli": "({a} << {imm}) & {M}",
    "srli": "{a} >> {imm}",
    "srai": "({sa} >> {imm}) & {M}",
    "addiw": _word("{a} + {imm}"),
    "slliw": _word("{a} << {imm}"),
    "srliw": _word("({a} & 0xFFFFFFFF) >> {imm}"),
    "sraiw": "({wa} >> {imm}) & {M}",
    "add": "({a} + {b}) & {M}",
    "sub": "({a} - {b}) & {M}",
    "sll": "({a} << ({b} & 63)) & {M}",
    "slt": "1 if {sa} < {sb} else 0",
    "sltu": "1 if {a} < {b} else 0",
    "xor": "{a} ^ {b}",
    "srl": "{a} >> ({b} & 63)",
    "sra": "({sa} >> ({b} & 63)) & {M}",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
    "mul": "({a} * {b}) & {M}",
    "mulh": "({sa} * {sb} >> 64) & {M}",
    "mulhu": "{a} * {b} >> 64",
    "mulhsu": "({sa} * {b} >> 64) & {M}",
    "div": "_div({sa}, {sb}) & {M}",
    "divu": "{a} // {b} if {b} else {M}",
    "rem": "_rem({sa}, {sb}) & {M}",
    "remu": "{a} % {b} if {b} else {a}",
    "addw": _word("{a} + {b}"),
    "subw": _word("{a} - {b}"),
    "sllw": _word("{a} << ({b} & 31)"),
    "srlw": _word("({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    "sraw": "({wa} >> ({b} & 31)) & {M}",
    "mulw": _word("{a} * {b}"),
    "divw": _word("_div({wa}, {wb})"),
    "divuw": _word("({a} & 0xFFFFFFFF) // ({b} & 0xFFFFFFFF)"
                   " if {b} & 0xFFFFFFFF else -1"),
    "remw": _word("_rem({wa}, {wb})"),
    "remuw": _word("({a} & 0xFFFFFFFF) % ({b} & 0xFFFFFFFF)"
                   " if {b} & 0xFFFFFFFF else {a}"),
}


def _alu_fields(a: str, b: str, imm: str, uimm: str) -> dict:
    """The fields of an :data:`_ALU_SOURCE` expression, given the
    source of rs1's and rs2's values and of the immediate."""
    return dict(
        a=a, b=b, imm=imm, uimm=uimm, M="0xFFFFFFFFFFFFFFFF",
        sa="((%s ^ 0x8000000000000000) - 0x8000000000000000)" % a,
        sb="((%s ^ 0x8000000000000000) - 0x8000000000000000)" % b,
        wa="((%s & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)" % a,
        wb="((%s & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)" % b)


def _alu_line(inst: Instruction) -> str:
    """The statement that executes the ALU instruction ``inst`` inline."""
    return "r[%d] = %s" % (inst.rd, _ALU_SOURCE[inst.mnemonic].format(
        **_alu_fields("r[%d]" % inst.rs1, "r[%d]" % inst.rs2,
                      "%d" % inst.imm, "%d" % (inst.imm & MASK64))))


#: mnemonic -> ``make(rd, rs1, rs2, imm, uimm)``, compiled from the
#: mnemonic's :data:`_ALU_SOURCE` expression when it is first decoded.
_ALU_FACTORIES: Dict[str, object] = {}


def _alu_closure(inst: Instruction):
    """The closure ``op(regs)`` that ``step()`` runs for the ALU
    instruction ``inst``: its :data:`_ALU_SOURCE` expression over the
    operand fields, bound to ``inst``'s."""
    make = _ALU_FACTORIES.get(inst.mnemonic)
    if make is None:
        source = ("def make(rd, rs1, rs2, imm, uimm):\n"
                  "    def op(r):\n"
                  "        r[rd] = %s\n"
                  "    return op\n"
                  % _ALU_SOURCE[inst.mnemonic].format(**_alu_fields(
                      "r[rs1]", "r[rs2]", "imm", "uimm")))
        scope = {}
        exec(compile(source, "<%s>" % inst.mnemonic, "exec"),
             {"_div": _div, "_rem": _rem}, scope)
        make = _ALU_FACTORIES[inst.mnemonic] = scope["make"]
    return make(inst.rd, inst.rs1, inst.rs2, inst.imm, inst.imm & MASK64)


# Per-mnemonic branch comparators over the operands ``a`` and ``b``,
# as source: block fragments inline them, and the comparators the
# handlers resolve once at decode time are compiled from them.  For
# 64-bit values, the signed order is the unsigned order of the values
# with their sign bits flipped.
_BRANCH_SOURCE = {
    "beq": "a == b",
    "bne": "a != b",
    "blt": "a ^ 0x8000000000000000 < b ^ 0x8000000000000000",
    "bge": "a ^ 0x8000000000000000 >= b ^ 0x8000000000000000",
    "bltu": "a < b",
    "bgeu": "a >= b",
}
_BRANCH_TAKEN = {m: eval("lambda a, b: " + source)
                 for m, source in _BRANCH_SOURCE.items()}

#: The instruction classes that may be block members without ending
#: their block.
_MEMBER_CLASSES = frozenset({"alu", "mul", "fence", "load", "store"})


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
        # The handles through which shared blocks' generated code
        # reaches this CPU's timing model (DESIGN §3.18), set one by
        # one: updating ``vars(self)`` instead makes every attribute
        # read of this CPU slower on CPython 3.11.
        for name, handle in machine.pipeline.block_handles().items():
            setattr(self, name, handle)
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
    def _block_member(self, entry: tuple, pc: int, bind):
        """Block membership (DESIGN §3.18): ``(fragment, size,
        inst_class, ends)`` for the instruction decoded as ``entry``, or
        ``None``.

        Members are straight-line instructions whose only PCU
        interaction is the plain instruction-class check; the first
        control transfer (branch/jal/jalr) ends the block as its final
        member.  Gates, CSR access, sret/wfi/sfence, ecall/ebreak,
        pfch/pflh and halt refuse membership, so a block can never
        contain a domain switch, privilege edit or satp write.

        The fragment (DESIGN §3.18 "Generated blocks") writes an ALU
        instruction's :data:`_ALU_SOURCE` expression inline
        (:func:`_alu_line`) and a load, store or branch
        (:func:`_member_fragment`); a member whose handler only advances
        the pc has an empty one, and any other (``auipc``) calls its
        handler.  ``bind(obj)`` names an object the fragment uses.
        """
        inst, handler, access, extra = entry
        if access is None:
            return None
        cls = inst.inst_class
        ends = cls == "branch" or inst.mnemonic in ("jal", "jalr")
        if not ends and cls not in _MEMBER_CLASSES:
            # ecall/ebreak/pfch/pflh/halt: never block members.
            return None
        if handler is RiscvCpu._op_alu_spec:
            fragment = blocks.Fragment([_alu_line(inst)])
        elif handler is RiscvCpu._op_alu_x0 or handler is RiscvCpu._op_fence:
            fragment = blocks.Fragment()
        elif cls == "load" or cls == "store" or cls == "branch":
            fragment = _member_fragment(inst, pc, extra)
        else:
            fragment = blocks.Fragment(
                ["%s(cpu, %s, %d, info, %s)"
                 % (bind(handler), bind(inst), pc, bind(extra))],
                raises=True)
        return fragment, 4, access.inst_class, ends

    #: The globals of every RISC-V block's generated function.
    _block_globals = blocks.block_globals(
        _div=_div, _rem=_rem, ACCESS_LOAD=ACCESS_LOAD,
        ACCESS_STORE=ACCESS_STORE)

    #: What a block's prologue may read for the fragments.
    _block_prologue = blocks.PROLOGUE + (("csrs", "cpu.csrs"),)

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
            if m not in _ALU_SOURCE and m != "auipc":  # pragma: no cover - decoder/executor sync
                return inst, RiscvCpu._op_illegal, access, None
            if inst.rd == 0:
                # rd == x0 discards the result, and no ALU op has side
                # effects or can fault, so the evaluation is elided.
                return inst, RiscvCpu._op_alu_x0, access, None
            if m == "auipc":
                return inst, RiscvCpu._op_auipc, access, None
            return inst, RiscvCpu._op_alu_spec, access, _alu_closure(inst)
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
    def _op_alu_spec(self, inst: Instruction, pc: int, info: StepInfo, op) -> None:
        op(self.regs)
        self.pc = pc + 4

    def _op_auipc(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.regs[inst.rd] = (pc + inst.imm) & MASK64
        self.pc = pc + 4

    def _op_alu_x0(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        self.pc = pc + 4

    def _op_load(self, inst: Instruction, pc: int, info: StepInfo, extra) -> None:
        width, unsigned = extra
        address = (self.regs[inst.rs1] + inst.imm) & MASK64
        satp = self.csrs[self._satp_address]
        if satp >> SATP_MODE_SHIFT:
            physical = self._translate(address, self._ACCESS_LOAD, info, satp)
        else:  # Bare mode fast path, inlined
            physical = address
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(physical, pc, width)
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
            pcu.check_memory_access(physical, pc, width)
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


def _member_fragment(inst: Instruction, pc: int, extra):
    """The block fragment (DESIGN §3.18 "Generated blocks") of a load,
    store or branch, exactly as its handler computes it: a load or
    store keeps the handler's satp test, so it translates wherever its
    handler would, and the PCU and the memory render its filter and
    its access."""
    cls = inst.inst_class
    if cls == "branch":
        source = _BRANCH_SOURCE.get(inst.mnemonic, _BRANCH_SOURCE["bgeu"])
        target = (pc + inst.imm) & MASK64
        return blocks.Fragment(
            ["a = r[%d]" % inst.rs1,
             "b = r[%d]" % inst.rs2,
             "t = %s" % source],
            taken="t", target=target)
    load = cls == "load"
    width = extra[0] if load else extra
    lines = [
        "a = (r[%d] + %d) & %d" % (inst.rs1, inst.imm, MASK64),
        "satp = csrs[%d]" % CSR_ADDRESS["satp"],
        "if satp >> %d:" % SATP_MODE_SHIFT,
        "    a = cpu._translate(a, %s, info, satp)"
        % ("ACCESS_LOAD" if load else "ACCESS_STORE"),
    ] + PrivilegeCheckUnit.filter_source("a", pc, width)
    if not load:
        lines += PhysicalMemory.store_source("a", "r[%d]" % inst.rs2, width)
    elif inst.rd and (extra[1] or width == 8):
        lines += PhysicalMemory.load_source("a", width, "r[%d]" % inst.rd)
    else:
        lines += PhysicalMemory.load_source("a", width, "v")
        if inst.rd:
            sign = 1 << 8 * width - 1
            lines.append("r[%d] = ((v ^ %d) - %d) & %d"
                         % (inst.rd, sign, sign, MASK64))
    return blocks.Fragment(lines, raises=True, address="a", is_store=not load)
