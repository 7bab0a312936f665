"""Functional x86-64 CPU model with an integrated Privilege Check Unit.

Models ring 0/3, the IDT interrupt path, ``syscall``/``sysret`` via the
LSTAR MSR, the system-register file of :mod:`repro.x86.registers`, and
the instruction subset of :mod:`repro.x86.encoding`.  As on RISC-V,
every issued instruction passes both the ring check (the classic
mechanism) and the PCU check; either rejection vectors through the IDT.

Simplified IDT: the descriptor for vector ``v`` is the 8-byte handler
address at ``idtr.base + 8 * v``.  Interrupt entry pushes (rip, ring)
on the current stack; ``iret`` pops them.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Tuple

from repro.core.errors import PrivilegeFault, TrustedMemoryFault
from repro.core.isa_extension import AccessInfo, CacheId, GateKind
from repro.core.pcu import PrivilegeCheckUnit
from repro.sim import blocks
from repro.sim.machine import Machine
from repro.sim.pipeline import OutOfOrderPipelineModel, StepInfo
from repro.sim.trap import Trap, TrapKind

from .encoding import EncodingError, Instruction, decode
from .isa import CSR_INDEX, GATE_CLASSES, MSR_CSR_NAME, RING0_CLASSES, X86_ISA_MAP
from .registers import (
    CR4_PCE,
    CR4_TSD,
    DescriptorTableRegister,
    SystemRegisters,
)

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

RING0 = 0
RING3 = 3

# Exception vectors.
VEC_UD = 6
VEC_GP = 13
VEC_SYSCALL_INT = 0x80
VEC_ISA_GRID = 32        # custom vector for PCU rejections
VEC_TRUSTED_MEMORY = 33  # custom vector for trusted-memory violations

_GATE_KIND = {
    "hccall": GateKind.HCCALL,
    "hccalls": GateKind.HCCALLS,
    "hcrets": GateKind.HCRETS,
}

#: Instruction-specific execution costs (cycles), roughly matching
#: measured costs on contemporary hardware; wrpkru's 26 cycles is the
#: figure the paper quotes from Hodor for Case 3.
EXTRA_CYCLES = {
    "cpuid": 100,
    "rdtsc": 22,
    "rdpmc": 30,
    "rdmsr": 60,
    "wrmsr": 90,
    "mov_cr": 40,
    "mov_dr": 40,
    "lgdt": 60,
    "lidt": 60,
    "lldt": 40,
    "ltr": 40,
    "sgdt": 20,
    "sidt": 20,
    "invlpg": 120,
    "wbinvd": 2000,
    "in": 40,
    "out": 40,
    "wrpkru": 26,
    "wrpkrs": 26,
    "rdpkru": 8,
    "rdpkrs": 8,
    "cli": 4,
    "sti": 4,
    "clts": 10,
}


class CpuPanic(Exception):
    """An exception occurred with no IDT handler installed."""


#: Binary-ALU semantics, resolved once at decode time (``cmp`` computes
#: like ``sub``, ``test`` like ``and``; neither writes the result back).
_ARITH_FN = {
    "add": operator.add, "sub": operator.sub, "cmp": operator.sub,
    "and": operator.and_, "test": operator.and_, "or": operator.or_,
    "xor": operator.xor,
}

#: Conditional-branch predicates over the flag state.
_JCC_TAKEN = {
    "je": lambda c: c.zf, "jne": lambda c: not c.zf,
    "jl": lambda c: c.sf_lt, "jge": lambda c: not c.sf_lt,
    "jb": lambda c: c.cf, "jae": lambda c: not c.cf,
    "jbe": lambda c: c.cf or c.zf, "ja": lambda c: not c.cf and not c.zf,
    "jle": lambda c: c.sf_lt or c.zf,
    "jg": lambda c: not c.sf_lt and not c.zf,
}


class X86Cpu:
    """A single simulated x86-64 core attached to a :class:`Machine`."""

    def __init__(self, machine: Machine, pcu: Optional[PrivilegeCheckUnit] = None):
        self.machine = machine
        self.memory = machine.memory
        self.pcu = pcu if pcu is not None else machine.pcu
        self.isa_map = X86_ISA_MAP
        self.regs = [0] * 16
        self.pc = 0  # rip; named .pc for the Machine protocol
        self.ring = RING0
        self.sys = SystemRegisters()
        self.zf = False
        self.cf = False
        self.sf_lt = False  # signed less-than from the last cmp/sub
        self.exit_code: Optional[int] = None
        self.trap_count = 0
        self.interrupt_count = 0
        self.last_trap: Optional[Trap] = None
        self._class_index = {
            name: self.isa_map.inst_class(name)
            for name in self.isa_map.inst_class_names
        }
        # rip -> (inst, handler, size, extra_cycles, needs_ring0,
        #         special, access).  ``handler(cpu, inst, rip, info)`` is
        #         a plain function, one per mnemonic; ``special`` flags
        #         the per-step CR4 gates (1 = rdtsc/TSD, 2 = rdpmc/PCE);
        #         ``access`` is the prebuilt plain-check AccessInfo, or
        #         None for handlers that run their own check sequence.
        self._decode_cache: Dict[int, tuple] = {}
        # rip -> CompiledBlock | NO_BLOCK (DESIGN §3.18): superblocks
        # over the decode entries, each carrying a privilege summary so
        # a block costs one PCU probe per epoch.  Invalidated together
        # with the decode cache (icache coherence); privilege edits need
        # no explicit invalidation because the summary is re-proved
        # against the *live* bypass register in every epoch, and an
        # epoch ends at every reference step, where such an edit runs.
        self._block_cache: Dict[int, object] = {}
        # Block formation bakes the O3 timing model into the member
        # closures, so any other pipeline falls back to the
        # per-instruction loop.
        pipeline = machine.pipeline
        self.blocks_supported = type(pipeline) is OutOfOrderPipelineModel
        # The handles through which shared member closures reach this
        # CPU's timing model, and the constants they bake in: (L1I line
        # bytes, warm-fetch cost, 1/width, I-cache, load and store miss
        # factors, mispredict penalty).  A warm fetch is an L1I MRU hit
        # (DESIGN §3.18), costing what ``instruction_cycles`` charges.
        l1i = pipeline.hierarchy.l1i
        self._fetch = pipeline._access_instruction
        self._data = pipeline._access_data
        self._l1i_stats = l1i.stats
        self._branch_stats = pipeline.branch_stats
        self._predict = pipeline._predictor_update
        self._timing = None
        if self.blocks_supported:
            inv = pipeline._inv_width
            icf = pipeline.ICACHE_MISS_FACTOR
            f = l1i.latency
            self._timing = (
                l1i.line, inv + (f - 2) * icf if f > 2 else inv, inv, icf,
                pipeline.LOAD_MISS_FACTOR, pipeline.STORE_MISS_FACTOR,
                pipeline._mispredict_penalty,
            )
        machine.attach_cpu(self)

    # ------------------------------------------------------------------
    @property
    def rip(self) -> int:
        return self.pc

    @rip.setter
    def rip(self, value: int) -> None:
        self.pc = value & MASK64

    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = value & MASK64

    def flush_decode_cache(self) -> None:
        """Call after writing instruction memory (icache coherence)."""
        self._decode_cache.clear()
        if self._block_cache:
            self._block_cache.clear()
            if self.pcu is not None:
                self.pcu.block_stats.invalidations += 1

    # ------------------------------------------------------------------
    # Interrupt/trap machinery.
    # ------------------------------------------------------------------
    def _handler_address(self, vector: int) -> int:
        base = self.sys.idtr.base
        if not base:
            return 0
        return self.memory.load(base + 8 * vector, 8)

    def _vector(self, vector: int, return_rip: int, info: StepInfo, trap: Trap) -> None:
        self.trap_count += 1
        self.interrupt_count += 1
        self.last_trap = trap
        handler = self._handler_address(vector)
        if not handler:
            raise CpuPanic(
                "vector %d at rip=0x%x with no IDT handler (%s)"
                % (vector, return_rip, trap)
            )
        # Push (rip, ring) on the current stack, like a long-mode
        # interrupt frame (simplified).
        rsp = (self.regs[4] - 16) & MASK64
        self.memory.store(rsp + 8, return_rip, 8)
        self.memory.store(rsp, self.ring, 8)
        self.regs[4] = rsp
        self.ring = RING0
        self.rip = handler
        info.trapped = True

    def _iret(self, info: StepInfo) -> None:
        rsp = self.regs[4]
        self.ring = self.memory.load(rsp, 8) & 3
        self.rip = self.memory.load(rsp + 8, 8)
        self.regs[4] = (rsp + 16) & MASK64
        info.trap_return = True

    # ------------------------------------------------------------------
    def step(self) -> StepInfo:
        rip = self.pc
        info = StepInfo(rip, 1)
        try:
            entry = self._decode_cache.get(rip)
            if entry is None:
                entry = self._decode_entry(rip)
                self._decode_cache[rip] = entry
            inst, handler, size, extra_cycles, needs_ring0, special, access = entry
            info.size = size
            if extra_cycles:
                info.extra_cycles = extra_cycles
            # Classic privilege-level check first (Section 4.1: both).
            if needs_ring0 and self.ring != RING0:
                raise Trap(
                    TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                    message="%s requires ring 0" % inst.mnemonic,
                )
            if special:
                if special == 1:
                    if self.ring != RING0 and self.sys.cr4 & CR4_TSD:
                        raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                                   message="rdtsc blocked by CR4.TSD")
                elif self.ring != RING0 and not self.sys.cr4 & CR4_PCE:
                    raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                               message="rdpmc blocked by CR4.PCE")
            if access is not None:
                pcu = self.pcu
                if pcu is not None:
                    info.pcu_stall += pcu.check(access)
            if not handler(self, inst, rip, info):
                self.pc = (rip + size) & MASK64
        except (Trap, PrivilegeFault) as error:
            self._dispatch_fault(error, rip, info)
        return info

    def _dispatch_fault(self, error, rip: int, info: StepInfo) -> None:
        """Vector a Trap or PrivilegeFault exactly as ``step()`` does.

        Shared by the per-instruction loop and the block executor so a
        mid-block fault takes the identical IDT path.
        """
        if isinstance(error, Trap):
            vector = {
                TrapKind.ILLEGAL_INSTRUCTION: VEC_UD,
                TrapKind.ISA_GRID_FAULT: VEC_ISA_GRID,
                TrapKind.TRUSTED_MEMORY_FAULT: VEC_TRUSTED_MEMORY,
            }.get(error.kind, VEC_GP)
            self._vector(vector, rip, info, error)
        elif isinstance(error, TrustedMemoryFault):
            trap = Trap(TrapKind.TRUSTED_MEMORY_FAULT, VEC_TRUSTED_MEMORY,
                        pc=rip, message=str(error), fault=error)
            self._vector(VEC_TRUSTED_MEMORY, rip, info, trap)
        else:
            trap = Trap(TrapKind.ISA_GRID_FAULT, VEC_ISA_GRID,
                        pc=rip, message=str(error), fault=error)
            self._vector(VEC_ISA_GRID, rip, info, trap)

    # ------------------------------------------------------------------
    # Block-summary execution (DESIGN §3.18).
    # ------------------------------------------------------------------
    def _block_op_pure(self, handler, inst, rip: int, warm: bool):
        """Fused member closure: no memory access, no branch predictor."""
        _, hit, inv, icf = self._timing[:4]

        def op(cpu, h=handler, inst=inst, rip=rip, info=blocks.MEMBER_INFO,
               inv=inv, icf=icf, warm=warm, hit=hit):
            h(cpu, inst, rip, info)
            if warm:
                cpu._l1i_stats.hits += 1
                return hit
            f = cpu._fetch(rip)
            if f > 2:
                return inv + (f - 2) * icf
            return inv

        return op

    def _block_op_mem(self, handler, inst, rip: int, is_store: bool,
                      warm: bool):
        """Fused member closure for loads/stores (mov/stack/call/ret)."""
        _, hit, inv, icf, load_factor, store_factor, _ = self._timing
        factor = store_factor if is_store else load_factor

        def op(cpu, h=handler, inst=inst, rip=rip, info=blocks.MEMBER_INFO,
               inv=inv, icf=icf, is_store=is_store, factor=factor, warm=warm,
               hit=hit):
            h(cpu, inst, rip, info)
            if warm:
                cpu._l1i_stats.hits += 1
                c = hit
            else:
                f = cpu._fetch(rip)
                c = inv + (f - 2) * icf if f > 2 else inv
            d = cpu._data(info.mem_address, is_store)
            if d > 2:
                c += (d - 2) * factor
            return c

        return op

    def _block_op_jcc(self, handler, inst, rip: int, size: int, warm: bool):
        """Fused member closure for conditional branches."""
        _, hit, inv, icf, _, _, mp = self._timing
        fall_through = (rip + size) & MASK64

        def op(cpu, h=handler, inst=inst, rip=rip, info=blocks.MEMBER_INFO,
               inv=inv, icf=icf, mp=mp, fall=fall_through, warm=warm, hit=hit):
            if not h(cpu, inst, rip, info):
                cpu.pc = fall
            if warm:
                cpu._l1i_stats.hits += 1
                c = hit
            else:
                f = cpu._fetch(rip)
                c = inv + (f - 2) * icf if f > 2 else inv
            stats = cpu._branch_stats
            stats.predictions += 1
            if cpu._predict(rip, info.branch_taken):
                stats.mispredictions += 1
                c += mp
            return c

        return op

    def _block_member(self, entry: tuple, rip: int, warm: bool):
        """Block membership (DESIGN §3.18): ``(op, size, inst_class,
        ends)`` for the instruction decoded as ``entry``, or ``None``.
        ``warm`` says the member before it fetched the same L1I line, so
        the op charges an L1I hit without calling the hierarchy.

        Members are straight-line ring-3-eligible instructions whose
        only PCU interaction is the plain instruction-class check and
        whose timing has no serializing component; the first control
        transfer (branch/call/ret) ends the block as its final member.
        Everything else — gates, CSR/MSR access, ring-0 instructions,
        rdtsc/rdpmc, syscall/int/iret, hlt — refuses membership, so a
        block can never contain a domain switch or privilege edit.
        """
        inst, handler, size, extra_cycles, needs_ring0, special, access = entry
        if access is None or needs_ring0 or special or extra_cycles:
            return None
        cls = inst.inst_class
        mnemonic = inst.mnemonic
        ends = False
        if cls in ("nop", "alu"):
            op = self._block_op_pure(handler, inst, rip, warm)
        elif cls == "mov":
            if mnemonic == "mov_load":
                op = self._block_op_mem(handler, inst, rip, False, warm)
            elif mnemonic == "mov_store":
                op = self._block_op_mem(handler, inst, rip, True, warm)
            else:
                op = self._block_op_pure(handler, inst, rip, warm)
        elif cls == "stack":
            op = self._block_op_mem(handler, inst, rip, mnemonic == "push",
                                    warm)
        elif cls == "branch":
            ends = True
            if mnemonic == "jmp":
                op = self._block_op_pure(handler, inst, rip, warm)
            else:
                op = self._block_op_jcc(handler, inst, rip, size, warm)
        elif cls == "call":
            ends = True
            op = self._block_op_mem(handler, inst, rip, mnemonic == "call",
                                    warm)
        else:
            # string (reserved), syscall/int/iret: never members.
            return None
        return op, size, access.inst_class, ends

    #: Blocks may run in any state; only RISC-V gates them.
    _block_gate = None

    #: Bytes ``_decode_entry`` reads at a rip.
    _decode_window = 16

    run_blocks = blocks.run_blocks

    #: Classes whose only PCU interaction is the plain instruction-class
    #: check; their AccessInfo is prebuilt into the decode entry and the
    #: step loop checks it before dispatch (same order as before: ring
    #: check, then PCU, then execution).
    _PLAIN_CLASSES = frozenset(
        {
            "nop", "string", "mov", "alu", "stack", "branch", "call",
            "syscall", "int", "iret", "cpuid", "invlpg", "wbinvd", "in",
            "out", "cli", "sti", "hlt", "pfch", "pflh",
        }
    )

    def _decode_entry(self, rip: int) -> tuple:
        window = self.memory.load_bytes(rip, self._decode_window)
        try:
            inst = decode(window)
        except EncodingError as error:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, VEC_UD, pc=rip, message=str(error)
            )
        cls = inst.inst_class
        extra_cycles = EXTRA_CYCLES.get(cls, 0)
        handler = _HANDLERS.get(inst.mnemonic)
        if handler is None:
            handler = _resolve_handler(inst)
            if handler is None:  # pragma: no cover - decoder/executor sync
                raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_UD, pc=rip,
                           message="unimplemented class %s" % cls)
            _HANDLERS[inst.mnemonic] = handler
        if cls in GATE_CLASSES:
            return inst, handler, inst.size, extra_cycles, False, 0, None
        special = 1 if cls == "rdtsc" else 2 if cls == "rdpmc" else 0
        access = (
            AccessInfo(inst_class=self._class_index[cls], address=rip)
            if cls in self._PLAIN_CLASSES
            else None
        )
        return (inst, handler, inst.size, extra_cycles,
                cls in RING0_CLASSES, special, access)

    # ------------------------------------------------------------------
    def _check_pcu(self, info: StepInfo, access: AccessInfo) -> None:
        if self.pcu is not None:
            info.pcu_stall += self.pcu.check(access)

    def _check_plain(self, inst: Instruction, rip: int, info: StepInfo) -> None:
        self._check_pcu(
            info, AccessInfo(inst_class=self._class_index[inst.inst_class], address=rip)
        )

    def _check_sysreg(
        self,
        inst: Instruction,
        rip: int,
        info: StepInfo,
        csr_name: str,
        *,
        read: bool = False,
        write: bool = False,
        old: Optional[int] = None,
        new: Optional[int] = None,
    ) -> None:
        self._check_pcu(
            info,
            AccessInfo(
                inst_class=self._class_index[inst.inst_class],
                address=rip,
                csr=CSR_INDEX[csr_name],
                csr_read=read,
                csr_write=write,
                write_value=new,
                old_value=old,
            ),
        )

    def _require_ring0(self, inst: Instruction, rip: int) -> None:
        if self.ring != RING0:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                message="%s requires ring 0" % inst.mnemonic,
            )

    # -- general computation -------------------------------------------
    # (Handlers for classes in _PLAIN_CLASSES rely on the step loop
    # having already performed the plain PCU check.)
    def _op_nop(self, inst, rip, info):
        return False

    def _op_string(self, inst, rip, info):  # pragma: no cover - reserved
        return False

    def _op_mov_imm(self, inst, rip, info):
        self.regs[inst.reg] = inst.imm & MASK64
        return False

    def _op_mov_rr(self, inst, rip, info):
        self.regs[inst.reg] = self.regs[inst.rm]
        return False

    def _op_mov_load(self, inst, rip, info):
        address = (self.regs[inst.base] + inst.disp) & MASK64
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(address, rip)
        self.regs[inst.reg] = self.memory.load(address, 8) & MASK64
        info.is_load = True
        info.mem_address = address
        return False

    def _op_mov_store(self, inst, rip, info):
        address = (self.regs[inst.base] + inst.disp) & MASK64
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(address, rip)
        self.memory.store(address, self.regs[inst.reg], 8)
        info.is_store = True
        info.mem_address = address
        return False

    def _op_lea(self, inst, rip, info):
        self.set_reg(inst.reg, self.regs[inst.base] + inst.disp)
        return False

    def _op_mul(self, inst, rip, info):
        product = self.regs[0] * self.regs[inst.rm]
        self.set_reg(0, product)
        self.set_reg(2, product >> 64)
        return False

    def _op_div(self, inst, rip, info):
        r = self.regs
        divisor = r[inst.rm]
        if divisor == 0:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, 0, pc=rip,
                       message="divide by zero")
        dividend = r[2] << 64 | r[0]
        self.set_reg(0, dividend // divisor)
        self.set_reg(2, dividend % divisor)
        return False

    def _op_inc(self, inst, rip, info):
        result = (self.regs[inst.rm] + 1) & MASK64
        self.regs[inst.rm] = result
        self.zf = result == 0
        return False

    def _op_dec(self, inst, rip, info):
        result = (self.regs[inst.rm] - 1) & MASK64
        self.regs[inst.rm] = result
        self.zf = result == 0
        return False

    def _op_neg(self, inst, rip, info):
        result = (-self.regs[inst.rm]) & MASK64
        self.regs[inst.rm] = result
        self.zf = result == 0
        self.cf = result != 0
        return False

    def _op_not(self, inst, rip, info):
        self.regs[inst.rm] = ~self.regs[inst.rm] & MASK64
        return False

    def _op_xchg(self, inst, rip, info):
        r = self.regs
        r[inst.reg], r[inst.rm] = r[inst.rm], r[inst.reg]
        return False

    def _op_shift(self, inst, rip, info):
        m = inst.mnemonic
        value = self.regs[inst.rm]
        amount = inst.imm & 63
        if m == "shl":
            result = value << amount
        elif m == "shr":
            result = value >> amount
        else:  # sar
            sign = value if value < 1 << 63 else value - (1 << 64)
            result = sign >> amount
        self.set_reg(inst.rm, result)
        self.zf = result & MASK64 == 0
        return False

    _ALU_SIMPLE = {
        "lea": _op_lea,
        "mul": _op_mul, "imul": _op_mul,
        "div": _op_div, "idiv": _op_div,
        "inc": _op_inc, "dec": _op_dec,
        "neg": _op_neg, "not": _op_not, "xchg": _op_xchg,
        "shl": _op_shift, "shr": _op_shift, "sar": _op_shift,
    }

    def _op_stack(self, inst, rip, info):
        r = self.regs
        if inst.mnemonic == "push":
            rsp = (r[4] - 8) & MASK64
            pcu = self.pcu
            if pcu is not None:
                pcu.check_memory_access(rsp, rip)
            self.memory.store(rsp, r[inst.reg], 8)
            r[4] = rsp
            info.is_store = True
            info.mem_address = rsp
        else:
            rsp = r[4]
            pcu = self.pcu
            if pcu is not None:
                pcu.check_memory_access(rsp, rip)
            self.set_reg(inst.reg, self.memory.load(rsp, 8))
            r[4] = (rsp + 8) & MASK64
            info.is_load = True
            info.mem_address = rsp
        return False

    def _op_jmp(self, inst, rip, info):
        self.pc = (rip + inst.size + inst.imm) & MASK64
        return True

    def _op_call(self, inst, rip, info):
        r = self.regs
        if inst.mnemonic == "call":
            rsp = (r[4] - 8) & MASK64
            pcu = self.pcu
            if pcu is not None:
                pcu.check_memory_access(rsp, rip)
            self.memory.store(rsp, rip + inst.size, 8)
            r[4] = rsp
            self.rip = (rip + inst.size + inst.imm) & MASK64
            info.is_store = True
            info.mem_address = rsp
            return True
        # ret
        rsp = r[4]
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(rsp, rip)
        self.rip = self.memory.load(rsp, 8)
        r[4] = (rsp + 8) & MASK64
        info.is_load = True
        info.mem_address = rsp
        return True

    # -- system entry/exit -----------------------------------------------
    def _op_syscall(self, inst, rip, info):
        lstar = self.sys.msrs[0xC0000082]
        if not lstar:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                       message="syscall with LSTAR unset")
        self.set_reg(1, rip + inst.size)  # rcx <- return rip
        self.ring = RING0
        self.rip = lstar
        info.trapped = True
        self.trap_count += 1
        return True

    def _op_sysret(self, inst, rip, info):
        self._require_ring0(inst, rip)
        self._check_plain(inst, rip, info)
        self.rip = self.regs[1]
        self.ring = RING3
        info.trap_return = True
        return True

    def _op_int(self, inst, rip, info):
        trap = Trap(TrapKind.SYSCALL, inst.vector, pc=rip)
        self._vector(inst.vector, rip + inst.size, info, trap)
        return True

    def _op_iret(self, inst, rip, info):
        self._iret(info)
        return True

    # -- system registers -------------------------------------------------
    def _op_rdtsc(self, inst, rip, info):
        self._check_sysreg(inst, rip, info, "tsc", read=True)
        tsc = int(self.machine.stats.cycles)
        self.set_reg(0, tsc & MASK32)
        self.set_reg(2, tsc >> 32)
        return False

    def _op_rdpmc(self, inst, rip, info):
        counter = self.regs[1] & 3
        self._check_sysreg(inst, rip, info, "pmc%d" % min(counter, 1), read=True)
        if counter == 0:
            value = self.interrupt_count
        elif counter == 1:
            value = self.machine.hierarchy.l1i.stats.misses
        else:
            value = self.sys.pmc.get(counter, 0)
        self.set_reg(0, value & MASK32)
        self.set_reg(2, value >> 32 & MASK32)
        return False

    def _msr_csr_name(self, rip: int) -> str:
        address = self.regs[1] & MASK32
        name = MSR_CSR_NAME.get(address)
        if name is None:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_GP, pc=rip,
                       message="unimplemented MSR 0x%x" % address)
        return name

    def _op_rdmsr(self, inst, rip, info):
        name = self._msr_csr_name(rip)
        self._check_sysreg(inst, rip, info, name, read=True)
        value = self.sys.read_msr(self.regs[1] & MASK32)
        self.set_reg(0, value & MASK32)
        self.set_reg(2, value >> 32)
        return False

    def _op_wrmsr(self, inst, rip, info):
        name = self._msr_csr_name(rip)
        address = self.regs[1] & MASK32
        old = self.sys.read_msr(address)
        new = (self.regs[2] & MASK32) << 32 | self.regs[0] & MASK32
        self._check_sysreg(inst, rip, info, name, write=True, old=old, new=new)
        self.sys.write_msr(address, new)
        return False

    def _op_cpuid(self, inst, rip, info):
        leaf = self.regs[0] & MASK32
        if leaf == 0:
            self.set_reg(0, 0x16)
            self.set_reg(3, 0x756E6547)  # "Genu"
            self.set_reg(2, 0x49656E69)  # "ineI"
            self.set_reg(1, 0x6C65746E)  # "ntel"
        elif leaf == 1:
            self.set_reg(0, 0x000906EA)  # family/model/stepping
            self.set_reg(3, 0x1F8BFBFF)  # feature flags (edx)
            self.set_reg(1, 0x7FFAFBBF)  # feature flags (ecx)
            self.set_reg(2, 0x00100800)
        else:
            self.set_reg(0, 0)
            self.set_reg(1, 0)
            self.set_reg(2, 0)
            self.set_reg(3, 0)
        return False

    _CR_NAMES = {0: "cr0", 2: "cr2", 3: "cr3", 4: "cr4"}

    def _op_mov_cr(self, inst, rip, info):
        name = self._CR_NAMES.get(inst.sysreg)
        if name is None:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_UD, pc=rip,
                       message="no such control register cr%d" % inst.sysreg)
        if inst.to_system:
            old = getattr(self.sys, name)
            new = self.regs[inst.rm]
            self._check_sysreg(inst, rip, info, name, write=True, old=old, new=new)
            setattr(self.sys, name, new & MASK64)
        else:
            self._check_sysreg(inst, rip, info, name, read=True)
            self.set_reg(inst.rm, getattr(self.sys, name))
        return False

    def _op_mov_dr(self, inst, rip, info):
        n = inst.sysreg
        if n in (4, 5):
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_UD, pc=rip,
                       message="dr%d is reserved" % n)
        name = "dr%d" % n
        if inst.to_system:
            old = self.sys.dr[n]
            new = self.regs[inst.rm]
            self._check_sysreg(inst, rip, info, name, write=True, old=old, new=new)
            self.sys.dr[n] = new & MASK64
        else:
            self._check_sysreg(inst, rip, info, name, read=True)
            self.set_reg(inst.rm, self.sys.dr[n])
        return False

    def _dtr_access(self, inst, rip, info, name: str, write: bool):
        register = getattr(self.sys, name)
        address = (self.regs[inst.base] + inst.disp) & MASK64
        pcu = self.pcu
        if pcu is not None:
            pcu.check_memory_access(address, rip)
        info.mem_address = address
        if write:
            new_base = self.memory.load(address, 8)
            new_limit = self.memory.load(address + 8, 8) & 0xFFFF
            new = DescriptorTableRegister(new_base, new_limit)
            self._check_sysreg(inst, rip, info, name, write=True,
                               old=register.pack(), new=new.pack())
            setattr(self.sys, name, new)
            info.is_load = True
        else:
            self._check_sysreg(inst, rip, info, name, read=True)
            self.memory.store(address, register.base, 8)
            self.memory.store(address + 8, register.limit, 8)
            info.is_store = True

    def _op_lgdt(self, inst, rip, info):
        self._dtr_access(inst, rip, info, "gdtr", write=True)
        return False

    def _op_sgdt(self, inst, rip, info):
        self._dtr_access(inst, rip, info, "gdtr", write=False)
        return False

    def _op_lidt(self, inst, rip, info):
        self._dtr_access(inst, rip, info, "idtr", write=True)
        return False

    def _op_sidt(self, inst, rip, info):
        self._dtr_access(inst, rip, info, "idtr", write=False)
        return False

    def _op_lldt(self, inst, rip, info):
        old = self.sys.ldtr
        new = self.regs[inst.rm] & 0xFFFF
        self._check_sysreg(inst, rip, info, "ldtr", write=True, old=old, new=new)
        self.sys.ldtr = new
        return False

    def _op_ltr(self, inst, rip, info):
        old = self.sys.tr
        new = self.regs[inst.rm] & 0xFFFF
        self._check_sysreg(inst, rip, info, "tr", write=True, old=old, new=new)
        self.sys.tr = new
        return False

    def _op_invlpg(self, inst, rip, info):
        return False

    def _op_wbinvd(self, inst, rip, info):
        self.machine.hierarchy.flush()
        return False

    def _op_in(self, inst, rip, info):
        self.set_reg(0, 0)
        return False

    def _op_out(self, inst, rip, info):
        return False

    def _op_cli(self, inst, rip, info):
        return False

    def _op_sti(self, inst, rip, info):
        return False

    def _op_clts(self, inst, rip, info):
        old = self.sys.cr0
        new = old & ~8 & MASK64  # clear CR0.TS
        self._check_sysreg(inst, rip, info, "cr0", write=True, old=old, new=new)
        self.sys.cr0 = new
        return False

    def _op_hlt(self, inst, rip, info):
        self.exit_code = self.regs[0]
        info.halted = True
        return False

    # -- protection keys ---------------------------------------------------
    def _op_rdpkru(self, inst, rip, info):
        self._check_sysreg(inst, rip, info, "pkru", read=True)
        self.set_reg(0, self.sys.pkru)
        return False

    def _op_wrpkru(self, inst, rip, info):
        old = self.sys.pkru
        new = self.regs[0] & MASK32
        self._check_sysreg(inst, rip, info, "pkru", write=True, old=old, new=new)
        self.sys.pkru = new
        return False

    def _op_rdpkrs(self, inst, rip, info):
        self._check_sysreg(inst, rip, info, "pkrs", read=True)
        self.set_reg(0, self.sys.pkrs)
        return False

    def _op_wrpkrs(self, inst, rip, info):
        old = self.sys.pkrs
        new = self.regs[0] & MASK32
        self._check_sysreg(inst, rip, info, "pkrs", write=True, old=old, new=new)
        self.sys.pkrs = new
        return False

    # -- ISA-Grid cache management ------------------------------------------
    def _op_pfch(self, inst, rip, info):
        if self.pcu is not None:
            self.pcu.prefetch(self.regs[inst.rm] & 0xFFFF)
        info.extra_cycles = 1
        return False

    def _op_pflh(self, inst, rip, info):
        if self.pcu is not None:
            self.pcu.flush(CacheId(self.regs[inst.rm] & 0x7))
        info.extra_cycles = 1
        return False

    # -- gates ---------------------------------------------------------------
    def _op_gate(self, inst: Instruction, rip: int, info: StepInfo) -> bool:
        if self.pcu is None:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, VEC_UD, pc=rip,
                       message="gate instruction without ISA-Grid")
        kind = _GATE_KIND[inst.mnemonic]
        info.is_gate = True
        info.gate_kind = kind
        gate_id = self.regs[inst.rm] if inst.mnemonic != "hcrets" else 0
        target, stall = self.pcu.execute_gate(
            kind, gate_id, rip, return_address=rip + inst.size
        )
        info.pcu_stall += stall
        self.rip = target
        return True


def _arith_handler(mnemonic: str):
    """The handler of a binary ALU mnemonic: ``op r/m, imm`` for the
    ``_imm`` forms, else ``op r/m, r`` (destination in r/m, source in
    reg).  Only ``sub`` and ``cmp`` set the carry and signed-less-than
    flags from the operands."""
    if mnemonic.endswith("_imm"):
        base, use_imm = mnemonic[:-4], True
    else:
        base, use_imm = mnemonic, False
    fn = _ARITH_FN.get(base, operator.xor)
    cmp_like = base in ("sub", "cmp")
    writeback = base not in ("cmp", "test")

    def op_arith(cpu, inst, rip, info, fn=fn, use_imm=use_imm,
                 cmp_like=cmp_like, writeback=writeback):
        r = cpu.regs
        a = r[inst.rm]
        b = inst.imm & MASK64 if use_imm else r[inst.reg]
        masked = fn(a, b) & MASK64
        cpu.zf = masked == 0
        if cmp_like:
            cpu.cf = a < b
            cpu.sf_lt = ((a - (1 << 64) if a >> 63 else a)
                         < (b - (1 << 64) if b >> 63 else b))
        else:
            cpu.cf = False
            cpu.sf_lt = masked >> 63 == 1
        if writeback:
            r[inst.rm] = masked
        return False

    return op_arith


def _jcc_handler(mnemonic: str):
    """The handler of a conditional branch."""

    def op_jcc(cpu, inst, rip, info, cond=_JCC_TAKEN[mnemonic]):
        info.is_branch = True
        taken = cond(cpu)
        info.branch_taken = taken
        if taken:
            cpu.pc = (rip + inst.size + inst.imm) & MASK64
            return True
        return False

    return op_jcc


def _resolve_handler(inst: Instruction):
    """The plain function ``handler(cpu, inst, rip, info)`` that executes
    ``inst``'s mnemonic, or ``None``.  The mnemonic-dense classes get
    one per mnemonic, so the steady state never walks an if-chain."""
    m = inst.mnemonic
    cls = inst.inst_class
    if cls in GATE_CLASSES:
        return X86Cpu._op_gate
    if cls == "alu":
        return X86Cpu._ALU_SIMPLE.get(m) or _arith_handler(m)
    if cls == "mov" or m == "jmp":
        return getattr(X86Cpu, "_op_" + m)
    if cls == "branch":
        return _jcc_handler(m)
    return getattr(X86Cpu, "_op_" + cls, None)


#: mnemonic -> handler, filled by ``_resolve_handler`` on first decode.
_HANDLERS: Dict[str, object] = {}
