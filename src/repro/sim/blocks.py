"""Superblocks: privilege summaries for basic blocks, and their executor.

DESIGN §3.18.  The per-pc decode caches resolve one instruction at a
time; the block cache extends them with straight-line *superblocks* —
maximal runs of block-eligible decoded instructions ending at the first
control transfer — each carrying a summary of every instruction-class
privilege the run needs.  A block then costs one
:meth:`~repro.core.pcu.PrivilegeCheckUnit.check_block_summary` probe
per *epoch* (the blocks retired between two reference steps) instead
of N per-instruction checks per entry, and its members execute through
pre-fused closures that fold the work and the pipeline-timing model of
each instruction into a single call.

Block formation (:func:`form_block`) and the executor
(:func:`run_blocks`) live here and serve both backends; each CPU class
binds ``run_blocks = blocks.run_blocks`` and supplies only what is ISA-
or pipeline-specific:

* ``_block_member(entry, pc, warm)`` — the membership rule over one
  decode entry, returning ``(op, size, inst_class, ends)`` for a member
  (its fused closure, its byte size, its inst-bitmap class, and whether
  it is the control transfer that ends the block) or ``None``.  ``op``
  takes the CPU as its one argument and reaches the timing model
  through handles the CPU binds at construction (``_fetch``, ``_data``,
  ``_l1i_stats``, ``_branch_stats``, ``_predict``), so a block serves
  every CPU of its class with the same timing constants.  ``warm`` is
  true when the member before it in the block fetched the same L1I
  line: its op then counts an L1I hit and charges the hit latency
  instead of calling the hierarchy (DESIGN §3.18 states why that is
  exact);
* ``_timing`` — the tuple of timing constants the member closures bake
  in, L1I line bytes first; part of the shared-block key;
* ``_decode_window`` — how many bytes ``_decode_entry`` reads at a pc;
* ``_dispatch_fault(error, pc, info)`` — the trap path ``step()`` takes;
* ``_block_gate`` — ``None``, or a method saying whether blocks may run
  at all (RISC-V: only while translation is Bare).  Only a reference
  ``step()`` can change its answer, so the executor evaluates it on
  entry and wherever an epoch ends (after each reference step or fault
  dispatch), and nowhere else.

Compiled blocks outlive the CPU that formed them: :data:`shared_blocks`
keeps them per process, and :func:`form_block` reuses one only where
forming it again would read the same bytes and decode entries (DESIGN
§3.18 "Shared blocks").

Within an epoch nothing can change what a probe reads, so the executor
proves each block once and settles the epoch's bookkeeping in one step
before anything can observe it: one ``account_block`` call replays the
skipped checks' counters and gives an armed tap its ``block`` events,
and the O3 pipeline's store-queue window (``_instructions_since_push``,
``None`` on the in-order model and whenever no push is in flight)
advances by every member the epoch's blocks retired.  The coherence
contract — what may be in a block, when a probe must refuse, why
nothing inside an epoch changes a probe's inputs, and why the fallback
path is always the reference semantics — is documented in DESIGN §3.18
and enforced by the block lockstep test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.errors import PrivilegeFault
from repro.core.pcu import BLOCK_REFUSED, BLOCK_SILENT

from .memory import MemoryAccessError
from .pipeline import StepInfo
from .trap import Trap

MASK64 = (1 << 64) - 1

#: Formation stops after this many members: caps compile time per block
#: and bounds how far a partial-block fault has to be attributed.
MAX_BLOCK_LEN = 64

#: An epoch settles its bookkeeping early after this many blocks, so a
#: run that takes no reference step keeps its list of retired blocks
#: bounded.  The benchmark's Machine workloads retire 10 to 23 blocks
#: per reference step.
MAX_EPOCH_BLOCKS = 256

#: Cache sentinel for a pc where formation was refused (the head
#: instruction refuses membership or does not decode): the executor
#: takes one ordinary ``step()`` and re-probes at the next pc.
NO_BLOCK = False

#: The one ``StepInfo`` every member closure passes its handler.  A
#: handler writes the fields its closure reads (``mem_address``,
#: ``branch_taken``) just before the closure reads them, and the
#: simulator runs one instruction at a time, so members of every block
#: and CPU can share it.
MEMBER_INFO = StepInfo()

#: Bound on the process's shared blocks, and on the blocks kept for one
#: start pc (one per distinct code there, such as each variant of a
#: workload that loads its program at the same address).  One pass of
#: every variant of the benchmark's three Machine workloads on seeds 0
#: and 1, in one process, forms 1,182 blocks of about 5 KB each, and 32
#: at the one pc where 32 of those programs start.
SHARED_BLOCK_CAP = 2048
SHARED_BLOCKS_PER_PC = 32


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

    ``ops[i](cpu)`` performs member ``i``'s architectural work *and* its
    pipeline-timing accounting (instruction fetch, data access, branch
    prediction) on ``cpu`` in the exact operation order of the
    per-instruction path, returning the float cycle cost — so
    accumulating the returns sequentially is bit-identical to the
    reference loop's ``stats.cycles += instruction_cycles(info)`` adds.
    ``pcs`` and ``sizes`` attribute a mid-block fault to its member;
    ``sets_pc`` records that the final member is a control transfer
    which wrote ``cpu.pc`` itself (otherwise the executor stores
    ``end_pc`` once).

    ``classes`` holds the members' decoded instruction classes, in
    order, as ``_block_member`` returned them.  The contract monitor's
    ``block`` event is built from them, never from ``summary``: a
    summary that lost a class must not lose it from the event too.

    ``code`` and ``insts`` record what formation read: the memory bytes
    from the first pc through the last decode window, and the decoded
    instruction of each member followed, where formation stopped at an
    instruction that refused membership or did not decode, by that
    instruction at ``end_pc`` (``None`` if it did not decode).
    """

    __slots__ = ("summary", "classes", "ops", "pcs", "sizes", "n",
                 "end_pc", "sets_pc", "code", "insts")

    def __init__(
        self,
        summary: Tuple[Tuple[int, int], ...],
        classes: Sequence[int],
        ops: Sequence,
        pcs: Sequence[int],
        sizes: Sequence[int],
        end_pc: int,
        sets_pc: bool,
        code: bytes,
        insts: Sequence,
    ):
        self.summary = summary
        self.classes = tuple(classes)
        self.ops = list(ops)
        self.pcs = tuple(pcs)
        self.sizes = tuple(sizes)
        self.n = len(self.ops)
        self.end_pc = end_pc
        self.sets_pc = sets_pc
        self.code = code
        self.insts = tuple(insts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CompiledBlock(n=%d, pc=0x%x..0x%x, sets_pc=%r)" % (
            self.n, self.pcs[0], self.pcs[-1], self.sets_pc
        )


def _reusable(cpu, block: CompiledBlock) -> bool:
    """Whether forming at ``block``'s start on ``cpu`` now would read
    exactly what forming ``block`` read: the same bytes in memory, and
    no entry for another instruction at its pcs in ``cpu``'s decode
    cache (an entry is a function of its instruction and pc)."""
    try:
        code = cpu.memory.load_bytes(block.pcs[0], len(block.code))
    except MemoryAccessError:
        return False
    if code != block.code:
        return False
    decode_cache = cpu._decode_cache
    for pc, inst in zip(block.pcs + (block.end_pc,), block.insts):
        held = decode_cache.get(pc)
        if held is not None and held[0] != inst:
            return False
    return True


class SharedBlocks:
    """The process's compiled blocks (DESIGN §3.18 "Shared blocks").

    Keyed by ``(CPU class, cpu._timing, start pc)``, with one block per
    distinct code at that pc, at most ``SHARED_BLOCKS_PER_PC`` of them;
    beyond ``SHARED_BLOCK_CAP`` blocks in all, the least recently used
    keys go first.  ``clear()`` gives the next formation a cold cache.
    """

    def __init__(self):
        self._blocks: Dict[tuple, List[CompiledBlock]] = {}
        self._count = 0

    def clear(self) -> None:
        self._blocks.clear()
        self._count = 0

    def reuse(self, cpu, key: tuple):
        """A block for ``key`` that :func:`_reusable` accepts on ``cpu``,
        or ``None``."""
        formed = self._blocks.get(key)
        if formed is not None:
            for block in formed:
                if _reusable(cpu, block):
                    self._blocks[key] = self._blocks.pop(key)
                    return block
        return None

    def add(self, key: tuple, block: CompiledBlock) -> None:
        formed = self._blocks.pop(key, [])
        formed.append(block)
        self._count += 1
        if len(formed) > SHARED_BLOCKS_PER_PC:
            del formed[0]
            self._count -= 1
        self._blocks[key] = formed
        while self._count > SHARED_BLOCK_CAP:
            self._count -= len(self._blocks.pop(next(iter(self._blocks))))


#: The process-wide block cache.
shared_blocks = SharedBlocks()


def _decodes_to(cpu, pc: int, inst) -> bool:
    """Whether memory at ``pc`` decodes to ``inst`` now: false behind a
    stale decode-cache entry (code stored without a flush)."""
    try:
        return cpu._decode_entry(pc)[0] == inst
    except Trap:
        return False


def form_block(cpu, start: int):
    """The superblock at ``start`` for ``cpu``, or ``NO_BLOCK``.

    Reuses one of the process's blocks for ``start`` when
    :func:`_reusable` proves forming it again would give that block.
    Otherwise walks the decode cache from ``start`` while
    ``cpu._block_member`` admits each instruction, up to
    ``MAX_BLOCK_LEN`` members; a member that ends the block is included
    as its last.  A member whose pc lies in the previous member's L1I
    line is formed warm.  The new block is shared unless a decode entry
    it used no longer matches memory.  Only called where pc == pa
    (RISC-V forms under Bare translation only).
    """
    key = (type(cpu), cpu._timing, start)
    block = shared_blocks.reuse(cpu, key)
    if block is not None:
        return block
    decode_cache = cpu._decode_cache
    member = cpu._block_member
    line_bytes = cpu._timing[0]
    ops = []
    pcs = []
    sizes = []
    classes = []
    insts = []
    shareable = True
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
                insts.append(None)
                break
            decode_cache[pc] = entry
        elif shareable:
            shareable = _decodes_to(cpu, pc, entry[0])
        insts.append(entry[0])
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
    if not ops:
        return NO_BLOCK
    last = pc if len(insts) > len(ops) else pcs[-1]
    code = cpu.memory.load_bytes(start, last + cpu._decode_window - start)
    block = CompiledBlock(summarize_classes(classes), classes, ops, pcs,
                          sizes, pc, ends, code, insts)
    if shareable:
        shared_blocks.add(key, block)
    return block


def _settle(pipeline, account, mode, retired, count: int) -> None:
    """Settle an epoch's bookkeeping (DESIGN §3.18 "Epochs"): advance
    the O3 store-queue window by the ``count`` instructions its blocks
    retired, and replay their checks under the epoch's ``mode`` in one
    :meth:`~repro.core.pcu.PrivilegeCheckUnit.account_block` call, which
    also gives an armed tap one ``block`` event per retired block."""
    isp = pipeline._instructions_since_push
    if isp is not None:
        pipeline._instructions_since_push = isp + count
    if account is not None:
        account(mode, retired)


def run_blocks(cpu, max_steps: int, mstats, instruction_cycles) -> bool:
    """Hot loop: execute blocks, each proven by one PCU probe per epoch.

    Bound as a method of both CPU classes and called by
    :meth:`~repro.sim.machine.Machine.run` instead of its
    per-instruction loop when block summaries are enabled; returns
    whether this run halted.  Any closed gate, cold/ineligible pc or
    refused probe falls back to the reference ``step()`` for exactly one
    instruction, so semantics, cycles and statistics are bit-identical
    to the per-instruction loop by construction.  Each fallback is
    counted by reason into the PCU's ``block_stats`` on exit.

    The blocks retired between two reference steps form an *epoch*
    (DESIGN §3.18 "Epochs"): nothing a block member does can change
    what the probe reads, so each block is probed once per epoch and
    later entries replay under the epoch's mode.  Their bookkeeping
    (the checks' counters, an armed tap's ``block`` events and the
    store-queue window) is settled in one go when the epoch ends,
    before the next reference step or fault dispatch and on every exit,
    and early after ``MAX_EPOCH_BLOCKS`` blocks.  A faulting member's
    check preceded its trap on the reference path, so the retired
    prefix and that member join the epoch before the fault is
    dispatched.
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
    # The epoch: ``proven`` holds the blocks probed in it, all under
    # ``mode``; ``retired`` the classes of the blocks retired since its
    # bookkeeping was last settled, when the instruction count read
    # ``settled``.
    proven = set()
    mode = BLOCK_REFUSED
    retired = []
    settled = insts
    try:
        while remaining > 0:
            verdict = BLOCK_REFUSED
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
                elif block in proven:
                    verdict = mode
                else:
                    verdict = BLOCK_SILENT if probe is None else probe(block.summary)
                    if verdict == BLOCK_REFUSED:
                        refused += 1
                    else:
                        mode = verdict
                        proven.add(block)
            if verdict == BLOCK_REFUSED:
                error = None
            else:
                ops = block.ops
                try:
                    for op in ops:
                        cyc += op(cpu)
                except (Trap, PrivilegeFault) as fault:
                    # Mid-block fault: members [0, i) retired normally;
                    # the faulting member's check preceded its trap on
                    # the reference path, so its class joins the epoch
                    # too, and it vectors below exactly like step().  It
                    # faulted before its fetch, so the reference
                    # instruction_cycles below does that fetch.
                    error = fault
                    i = ops.index(op)
                    insts += i
                    remaining -= i
                    retired.append(block.classes[:i + 1])
                except BaseException:
                    # e.g. MemoryAccessError escaping the run, as on the
                    # per-instruction path; the retired members and the
                    # faulting one, whose check preceded its memory
                    # access there, are settled on the way out.
                    i = ops.index(op)
                    insts += i
                    retired.append(block.classes[:i + 1])
                    raise
                else:
                    insts += block.n
                    remaining -= block.n
                    if not block.sets_pc:
                        cpu.pc = block.end_pc
                    retired.append(block.classes)
                    if len(retired) == MAX_EPOCH_BLOCKS:
                        _settle(pipeline, account, mode, retired,
                                insts - settled)
                        retired = []
                        settled = insts
                    continue
            # The epoch ends before the reference step or the fault's
            # dispatch can observe it.  Flush the stats mirrors too:
            # rdtsc, the cycle/instret CSRs and trap handlers read them
            # live.
            if retired:
                _settle(pipeline, account, mode, retired, insts - settled)
                retired = []
            proven.clear()
            mstats.instructions = insts
            mstats.cycles = cyc
            if error is None:
                info = step()
            else:
                info = StepInfo(block.pcs[i], block.sizes[i])
                cpu._dispatch_fault(error, block.pcs[i], info)
            insts += 1
            settled = insts
            cyc += instruction_cycles(info)
            remaining -= 1
            if info.trapped:
                traps += 1
            if info.halted:
                mstats.halted = True
                return True
            if gate is not None:
                gate_open = gate()
        return False
    finally:
        if retired:
            _settle(pipeline, account, mode, retired, insts - settled)
        mstats.instructions = insts
        mstats.cycles = cyc
        mstats.traps += traps
        if pcu is not None:
            pcu.block_stats.add_fallbacks(no_block, budget, refused, translated)
