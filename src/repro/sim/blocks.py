"""Superblocks: privilege summaries for basic blocks, and their executor.

DESIGN §3.18.  The per-pc decode caches resolve one instruction at a
time; the block cache extends them with straight-line *superblocks* —
maximal runs of block-eligible decoded instructions ending at the first
control transfer — each carrying a summary of every instruction-class
privilege the run needs.  A warm block for the current domain and
generation then costs one
:meth:`~repro.core.pcu.PrivilegeCheckUnit.check_block_summary` probe
instead of N per-instruction checks, and its members execute through
pre-fused closures that fold the work and the pipeline-timing model of
each instruction into a single call.

Block formation (:func:`form_block`) and the executor
(:func:`run_blocks`) live here and serve both backends; each CPU class
binds ``run_blocks = blocks.run_blocks`` and supplies only what is ISA-
or pipeline-specific:

* ``_block_member(entry, pc, warm)`` — the membership rule over one
  decode entry, returning ``(op, size, inst_class, ends)`` for a member
  (its fused closure, its byte size, its inst-bitmap class, and whether
  it is the control transfer that ends the block) or ``None``.
  ``warm`` is true when the member before it in the block fetched the
  same L1I line: its op then counts an L1I hit and charges the hit
  latency instead of calling the hierarchy (DESIGN §3.18 states why
  that is exact);
* ``_dispatch_fault(error, pc, info)`` — the trap path ``step()`` takes;
* ``_block_gate`` — ``None``, or a method saying whether blocks may run
  at all (RISC-V: only while translation is Bare).  Only a reference
  ``step()`` can change its answer, so the executor evaluates it on
  entry and after each reference step, and nowhere else.

The O3 pipeline's store-queue window (``_instructions_since_push``,
``None`` on the in-order model and whenever no push is in flight)
advances by every member a block retires.  The coherence contract —
what may be in a block, when a probe must refuse, and why the fallback
path is always the reference semantics — is documented in DESIGN §3.18
and enforced by the block lockstep test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.core.errors import PrivilegeFault
from repro.core.pcu import BLOCK_REFUSED, BLOCK_SILENT

from .pipeline import StepInfo
from .trap import Trap

MASK64 = (1 << 64) - 1

#: Blocks shorter than this are not worth the probe + accounting
#: overhead; the per-instruction path serves them.
MIN_BLOCK_LEN = 3

#: Formation stops after this many members: caps compile time per block
#: and bounds how far a partial-block fault has to be attributed.
MAX_BLOCK_LEN = 64

#: Cache sentinel for a pc where formation was refused (head instruction
#: ineligible, block too short, undecodable tail...): the executor takes
#: one ordinary ``step()`` and re-probes at the next pc.
NO_BLOCK = False


def summarize_classes(inst_classes: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
    """Fold instruction-class indices into a block summary: sparse
    ``(word_index, bit_mask)`` pairs matching the bypass register's word
    layout, so the probe is one AND-compare per touched word."""
    words: Dict[int, int] = {}
    for inst_class in inst_classes:
        index = inst_class >> 6
        words[index] = words.get(index, 0) | 1 << (inst_class & 63)
    return tuple(sorted(words.items()))


class CompiledBlock:
    """One formed superblock: summary + fused member closures.

    ``summary`` is the :func:`summarize_classes` union of the members'
    instruction classes.  Loads and stores keep their *live*
    ``check_data_access`` call inside their closures (trusted-memory
    ranges and generations are enforced per access, not summarized —
    addresses are dynamic).

    ``ops[i]()`` performs member ``i``'s architectural work *and* its
    pipeline-timing accounting (instruction fetch, data access, branch
    prediction) in the exact operation order of the per-instruction
    path, returning the float cycle cost — so accumulating the returns
    sequentially is bit-identical to the reference loop's
    ``stats.cycles += instruction_cycles(info)`` adds.  ``pcs`` and
    ``sizes`` attribute a mid-block fault to its member; ``sets_pc``
    records that the final member is a control transfer which wrote
    ``cpu.pc`` itself (otherwise the executor stores ``end_pc`` once).

    ``classes`` holds the members' decoded instruction classes, in
    order, as ``_block_member`` returned them.  The contract monitor's
    ``block`` event is built from them, never from ``summary``: a
    summary that lost a class must not lose it from the event too.
    """

    __slots__ = ("summary", "classes", "ops", "pcs", "sizes", "n",
                 "end_pc", "sets_pc")

    def __init__(
        self,
        summary: Tuple[Tuple[int, int], ...],
        classes: Sequence[int],
        ops: Sequence,
        pcs: Sequence[int],
        sizes: Sequence[int],
        end_pc: int,
        sets_pc: bool,
    ):
        self.summary = summary
        self.classes = tuple(classes)
        self.ops = list(ops)
        self.pcs = tuple(pcs)
        self.sizes = tuple(sizes)
        self.n = len(self.ops)
        self.end_pc = end_pc
        self.sets_pc = sets_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CompiledBlock(n=%d, pc=0x%x..0x%x, sets_pc=%r)" % (
            self.n, self.pcs[0], self.pcs[-1], self.sets_pc
        )


def form_block(cpu, start: int):
    """Compile the superblock at ``start`` for ``cpu``, or ``NO_BLOCK``.

    Walks the decode cache from ``start`` while ``cpu._block_member``
    admits each instruction, up to ``MAX_BLOCK_LEN`` members; a member
    that ends the block is included as its last.  A member whose pc lies
    in the previous member's L1I line is formed warm.  Only called where
    pc == pa (RISC-V forms under Bare translation only).
    """
    decode_cache = cpu._decode_cache
    member = cpu._block_member
    line_bytes = cpu.machine.pipeline.hierarchy.l1i.line
    ops = []
    pcs = []
    sizes = []
    classes = []
    ends = False
    pc = start
    previous_line = None
    while not ends and len(ops) < MAX_BLOCK_LEN:
        entry = decode_cache.get(pc)
        if entry is None:
            try:
                entry = cpu._decode_entry(pc)
            except Trap:
                # Undecodable tail: executing it live must raise the
                # same trap via the reference path, so end the block
                # here and do not cache the decode failure.
                break
            decode_cache[pc] = entry
        line = pc // line_bytes
        fused = member(entry, pc, line == previous_line)
        if fused is None:
            break
        op, size, inst_class, ends = fused
        ops.append(op)
        pcs.append(pc)
        sizes.append(size)
        classes.append(inst_class)
        previous_line = line
        pc = (pc + size) & MASK64
    if len(ops) < MIN_BLOCK_LEN:
        return NO_BLOCK
    return CompiledBlock(summarize_classes(classes), classes, ops, pcs,
                         sizes, pc, ends)


def run_blocks(cpu, max_steps: int, mstats, instruction_cycles) -> None:
    """Hot loop: execute warm blocks under one PCU probe each.

    Bound as a method of both CPU classes and called by
    :meth:`~repro.sim.machine.Machine.run` instead of its
    per-instruction loop when block summaries are enabled.  Any closed
    gate, cold/ineligible pc or refused probe falls back to the
    reference ``step()`` for exactly one instruction, so semantics,
    cycles and statistics are bit-identical to the per-instruction loop
    by construction.  Each fallback is counted by reason into the PCU's
    ``block_stats`` on exit.  Every executed block, or its retired
    prefix when a member faults, is accounted through
    ``pcu.account_block``, which also gives an armed contract tap one
    ``block`` event for it; a faulting member's trap is dispatched
    after that event, as on the per-instruction path.
    """
    blocks = cpu._block_cache
    pcu = cpu.pcu
    pipeline = cpu.machine.pipeline
    step = cpu.step
    gate = cpu._block_gate
    probe = None if pcu is None else pcu.check_block_summary
    account = None if pcu is None else pcu.account_block
    insts = mstats.instructions
    cyc = mstats.cycles
    traps = 0
    translated = no_block = budget = refused = 0
    gate_open = gate is None or gate()
    remaining = max_steps
    try:
        while remaining > 0:
            mode = BLOCK_REFUSED
            if not gate_open:
                translated += 1
            else:
                pc = cpu.pc
                block = blocks.get(pc)
                if block is None:
                    block = blocks[pc] = form_block(cpu, pc)
                if block is NO_BLOCK:
                    no_block += 1
                elif block.n > remaining:
                    budget += 1
                else:
                    mode = BLOCK_SILENT if probe is None else probe(block.summary)
                    if mode == BLOCK_REFUSED:
                        refused += 1
            if mode == BLOCK_REFUSED:
                # Reference path for one instruction.  Flush the stats
                # mirrors first: rdtsc, the cycle/instret CSRs and trap
                # handlers observe them live.
                mstats.instructions = insts
                mstats.cycles = cyc
                info = step()
                insts += 1
                cyc += instruction_cycles(info)
                remaining -= 1
                if info.trapped:
                    traps += 1
                if info.halted:
                    mstats.halted = True
                    return
                if gate is not None:
                    gate_open = gate()
                continue
            ops = block.ops
            n = block.n
            isp = pipeline._instructions_since_push
            try:
                for op in ops:
                    cyc += op()
            except (Trap, PrivilegeFault) as error:
                # Mid-block fault: members [0, i) retired normally; the
                # faulting member vectors exactly like step().  Its
                # check preceded its trap on the reference path, so it
                # is accounted, event included, before the dispatch.
                # It faulted before its fetch, so the reference
                # instruction_cycles below does that fetch.
                i = ops.index(op)
                insts += i
                if isp is not None:
                    pipeline._instructions_since_push = isp + i
                if account is not None:
                    account(mode, block.classes[:i + 1])
                info = StepInfo(block.pcs[i], block.sizes[i])
                cpu._dispatch_fault(error, block.pcs[i], info)
                insts += 1
                cyc += instruction_cycles(info)
                traps += 1
                remaining -= i + 1
                continue
            except BaseException:
                # e.g. MemoryAccessError escaping the run, as on the
                # per-instruction path; attribute the retired members
                # before unwinding.  The faulting member's check
                # preceded its memory access there, so it counts here
                # too.
                i = ops.index(op)
                insts += i
                if isp is not None:
                    pipeline._instructions_since_push = isp + i
                if account is not None:
                    account(mode, block.classes[:i + 1])
                raise
            if isp is not None:
                pipeline._instructions_since_push = isp + n
            insts += n
            remaining -= n
            if not block.sets_pc:
                cpu.pc = block.end_pc
            if account is not None:
                account(mode, block.classes)
    finally:
        mstats.instructions = insts
        mstats.cycles = cyc
        mstats.traps += traps
        if pcu is not None:
            pcu.block_stats.add_fallbacks(no_block, budget, refused, translated)
