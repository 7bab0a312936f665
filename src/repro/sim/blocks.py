"""Superblocks: privilege summaries for basic blocks, and their executor.

DESIGN §3.18.  The per-pc decode caches resolve one instruction at a
time; the block cache extends them with *superblocks* — maximal runs of
block-eligible decoded instructions ending at the first control
transfer, where formation follows an unconditional direct jump — each
carrying a summary of every instruction-class privilege the run
needs.  A block then costs one
:meth:`~repro.core.pcu.PrivilegeCheckUnit.check_block_summary` probe
per *epoch* (the blocks retired between two reference steps) instead
of N per-instruction checks per entry, and its members execute as one
generated Python function, ``run(cpu, cyc) -> cyc``, that does the work
and the pipeline-timing accounting of every member in turn.

Block formation (:func:`form_block`) and the executor
(:func:`run_blocks`) live here and serve both backends; each CPU class
binds ``run_blocks = blocks.run_blocks`` and supplies only what is ISA-
or pipeline-specific:

* ``_block_member(entry, pc, bind)`` — the membership rule over one
  decode entry, returning ``(fragment, size, inst_class, ends)`` for a
  member (its :class:`Fragment` of source, its byte size, its
  inst-bitmap class, and whether it is the control transfer that ends
  the block) or ``None``.  A fragment writes the hot families'
  semantics inline and calls the handler for every other member;
  ``bind(obj)`` returns the name under which the generated function
  sees an object (a handler, an ``Instruction``, a closure), which is
  never rendered into the source.  The member's cycles come from the
  machine's timing model (:meth:`~repro.sim.pipeline.PipelineModel.
  member_tail`), whose hierarchy renders its L1 hit tests and whose
  predictor renders its update, from their constants.  They reach the
  model through the handles the CPU binds at construction
  (:meth:`~repro.sim.pipeline.PipelineModel.block_handles`), so a block
  serves every CPU of its class on a timing model with the same
  :meth:`~repro.sim.pipeline.PipelineModel.block_key`.  A load's or
  store's trusted-memory filter and its access are rendered by the PCU
  (:meth:`~repro.core.pcu.PrivilegeCheckUnit.filter_source`) and the
  memory (:meth:`~repro.sim.memory.PhysicalMemory.load_source`);
* ``_block_globals`` — the one globals dict of its ISA's generated
  functions (:func:`block_globals`);
* ``_block_prologue`` — what a generated function may read into locals
  once per call for the fragments (:data:`PROLOGUE` and the CPU's own);
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

A block whose last member is a direct branch or jump back to its first
pc, or a conditional branch that falls through to it, is a *loop
block*: its function runs the members again while that branch leads
back, up to a limit the executor passes, so a hot loop iterates
without a dispatch.  Once the predictor sits at the back edge's fixed
point, a loop that ends in a conditional branch finishes the call in
its *steady body*, which has no predictor or L1I code on the path that
goes round (DESIGN §3.18 "Loop blocks").

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

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import PrivilegeFault
from repro.core.pcu import BLOCK_REFUSED, BLOCK_SILENT, PrivilegeCheckUnit

from .memory import MemoryAccessError, PhysicalMemory
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

#: The one ``StepInfo`` that generated code passes every handler it
#: calls, as ``info``.  A handler writes the fields its member's timing
#: reads (``mem_address``) just before the timing reads them, and the
#: simulator runs one instruction at a time, so members of every block
#: and CPU can share it.
MEMBER_INFO = StepInfo()


class MemberFault:
    """Where the last block member that raised stood: its index in its
    block, the cycle sum of the members before it, how many whole
    iterations its loop block completed first (0 outside a loop block),
    and how many of those ran in its steady body.  A generated
    function's exception path records them, as ``fault``, just before
    it re-raises; :func:`run_blocks` reads them at once."""

    __slots__ = ("index", "cycles", "iterations", "steady")

    def __init__(self):
        self.index = 0
        self.cycles = 0.0
        self.iterations = 0
        self.steady = 0


#: The one ``MemberFault`` of the process, shared like ``MEMBER_INFO``.
MEMBER_FAULT = MemberFault()

#: Bound on the process's shared blocks, and on the blocks kept for one
#: start pc (one per distinct code there, such as each variant of a
#: workload that loads its program at the same address).  One pass of
#: every variant of the benchmark's three Machine workloads on seeds 0
#: and 1, in one process, forms 1,182 blocks, 12 of them loop blocks,
#: and 32 at the one pc where 32 of those programs start.  Clearing
#: them frees about 9 KB per block (by tracemalloc; 7 KB before the L1
#: hit tests and the predictor update were rendered inline).
SHARED_BLOCK_CAP = 2048
SHARED_BLOCKS_PER_PC = 32


#: What a generated function's prologue may read for its fragments, as
#: ``(locals, expression)``: the registers, the memory and its page-view
#: getter, and the trusted-memory window.  Each CPU class's
#: ``_block_prologue`` starts with these.
PROLOGUE = ((("r", "cpu.regs"),) + PhysicalMemory.BLOCK_PROLOGUE
            + PrivilegeCheckUnit.BLOCK_PROLOGUE)


def block_globals(**names) -> dict:
    """The globals dict that every generated function of one ISA
    shares: ``info`` (:data:`MEMBER_INFO`), ``fault``
    (:data:`MEMBER_FAULT`) and the ISA's own ``names``."""
    return dict(names, info=MEMBER_INFO, fault=MEMBER_FAULT)


class Fragment(NamedTuple):
    """One block member's semantics, as source for its block's generated
    function (DESIGN §3.18 "Generated blocks").

    ``lines`` are statements that see ``cpu``, the locals of the CPU
    class's ``_block_prologue`` (``r`` is ``cpu.regs``), the ISA's
    :func:`block_globals` and the names ``bind`` returned; they may use
    the scratch names ``a``, ``b``, ``v``, ``t`` and ``satp``, and
    ``q`` through :class:`~repro.sim.memory.PhysicalMemory`'s lines
    (the timing model's lines use ``c``, ``d``, ``e``, ``f``, ``g``,
    ``h``, ``u``, ``w``, ``x``, ``y``, ``z`` and ``l1d_hits``, and the
    block's own ``m``, ``k`` and ``j``).  ``raises`` says whether they
    can raise.  ``address`` is an expression for the data address of a
    load or store, and ``taken`` one for the outcome of a predicted
    branch; both are read after ``lines`` ran.  ``flags`` are statements, each
    writing one flag (``cpu.<flag> = <expression>``), that run after
    ``lines``; a block leaves out a write that a later member of the
    same pass overwrites first (:func:`_flag_writes`).  ``reads_flags``
    says whether ``lines`` read a flag.

    ``lines`` need not write ``cpu.pc``, except in a handler member that
    ends its block.  ``target`` is the static target of a direct branch
    or jump written inline, whose block writes the pc where it leaves:
    a conditional branch (with ``taken``) ends its block and falls
    through to its next pc, and its block is a loop block when either
    way leads back to its first pc; an unconditional jump ends its
    block at its first pc or at a member, and formation follows it
    anywhere else (:func:`form_block`).
    """

    lines: Sequence[str] = ()
    raises: bool = False
    address: Optional[str] = None
    is_store: bool = False
    taken: Optional[str] = None
    target: Optional[int] = None
    flags: Sequence[str] = ()
    reads_flags: bool = False


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
    """One formed superblock: summary + generated function.

    ``summary`` is the :func:`summarize_classes` union of the members'
    instruction classes.  Trusted memory is not summarized (addresses
    are dynamic): each call reads the PCU's window, and a load or store
    calls ``cpu.pcu.check_memory_access`` wherever its access meets it.

    ``run(cpu, cyc)`` performs every member's architectural work *and*
    its pipeline-timing accounting (instruction fetch, data access,
    branch prediction) on ``cpu`` in the exact operation order of the
    per-instruction path, adding each member's float cycle cost to
    ``cyc`` on its own and returning the sum — bit-identical to the
    reference loop's ``stats.cycles += instruction_cycles(info)`` adds.
    It leaves ``cpu.pc`` at ``end_pc``, or where the control transfer
    that ends the block sent it.  A member that raises leaves
    ``cpu.pc`` at its own pc and its index and the cycles before it in
    :data:`MEMBER_FAULT`; ``pcs`` and ``sizes`` attribute the fault.

    A *loop block* (``loops``) is one whose last member is a direct
    branch or jump back to its first pc, or a conditional branch that
    falls through to it.  Its ``run(cpu, cyc, limit) -> (cyc,
    iterations, steady)`` runs the members again while that branch
    leads back, at most ``limit`` times in all, and returns how many
    times it ran them and how many of those ran in its steady body; a
    member that raises records the iterations completed before its own
    in :data:`MEMBER_FAULT` too.

    ``classes`` holds the members' decoded instruction classes, in
    order, as ``_block_member`` returned them.  The contract monitor's
    ``block`` event is built from them, never from ``summary``: a
    summary that lost a class must not lose it from the event too.

    ``code`` and ``insts`` record what formation read.  ``code`` holds
    one ``(first pc, bytes)`` pair per stretch of code formation read
    without a followed jump: the memory bytes from the stretch's first
    pc through its last decode window.  ``insts`` holds the decoded
    instruction of each member followed, where formation stopped at an
    instruction that refused membership or did not decode, by that
    instruction at ``end_pc`` (``None`` if it did not decode).
    """

    __slots__ = ("summary", "classes", "run", "loops", "pcs", "sizes", "n",
                 "end_pc", "code", "insts")

    def __init__(
        self,
        summary: Tuple[Tuple[int, int], ...],
        classes: Sequence[int],
        run,
        loops: bool,
        pcs: Sequence[int],
        sizes: Sequence[int],
        end_pc: int,
        code: Sequence[Tuple[int, bytes]],
        insts: Sequence,
    ):
        self.summary = summary
        self.classes = tuple(classes)
        self.run = run
        self.loops = loops
        self.pcs = tuple(pcs)
        self.sizes = tuple(sizes)
        self.n = len(self.pcs)
        self.end_pc = end_pc
        self.code = tuple(code)
        self.insts = tuple(insts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CompiledBlock(n=%d, pc=0x%x..0x%x)" % (
            self.n, self.pcs[0], self.pcs[-1]
        )


def _reusable(cpu, block: CompiledBlock) -> bool:
    """Whether forming at ``block``'s start on ``cpu`` now would read
    exactly what forming ``block`` read: the same bytes in memory, in
    every stretch, and no entry for another instruction at its pcs in
    ``cpu``'s decode cache (an entry is a function of its instruction
    and pc)."""
    load = cpu.memory.load_bytes
    try:
        for first, code in block.code:
            if load(first, len(code)) != code:
                return False
    except MemoryAccessError:
        return False
    decode_cache = cpu._decode_cache
    for pc, inst in zip(block.pcs + (block.end_pc,), block.insts):
        held = decode_cache.get(pc)
        if held is not None and held[0] != inst:
            return False
    return True


class SharedBlocks:
    """The process's compiled blocks (DESIGN §3.18 "Shared blocks").

    Keyed by ``(CPU class, the timing model's block_key(), start pc)`` —
    everything a block's generated code depends on besides the bytes it
    was formed from — with one block per
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


def _flag_writes(fragments) -> List[List[str]]:
    """Each member's flag writes that its block keeps (DESIGN §3.18
    "Generated blocks"): all but those a later member of the same pass
    overwrites before any member reads a flag or can raise.  Calling a
    handler can raise, and a loop's pass ends at its back edge, so every
    flag holds its reference value wherever the block can be seen."""
    kept = []
    overwritten = set()
    for fragment in reversed(fragments):
        writes = [(line.partition(" = ")[0], line) for line in fragment.flags]
        kept.append([line for flag, line in writes if flag not in overwritten])
        if fragment.raises or fragment.reads_flags:
            overwritten = set()
        else:
            overwritten.update(flag for flag, _ in writes)
    return kept[::-1]


def _indent(lines, depth=1) -> List[str]:
    return ["    " * depth + line for line in lines]


def _generate(cpu, pipeline, fragments, pcs, warm, leave, bound, continues,
              steady):
    """Compile one block's ``run(cpu, cyc) -> cyc`` (DESIGN §3.18
    "Generated blocks"), or a loop block's ``run(cpu, cyc, limit) ->
    (cyc, iterations, steady iterations)`` when ``continues`` is not
    ``None``.

    The function opens with a prologue that reads into locals, once per
    call, every handle of ``cpu._block_prologue`` and the timing
    model's ``block_prologue()`` whose locals the body uses, and starts
    the hierarchy's ``BLOCK_COUNTERS`` at zero; nothing replaces any of
    the handles during a call (DESIGN §3.18 "The prologue").  Each
    member's fragment, with the flag writes :func:`_flag_writes` keeps,
    is followed by the timing model's tail for it.  A warm member's L1I
    hit is counted with the others' in one add at the end, with the
    counters.  A member that can raise first records its index in
    ``m``; the exception path puts ``cpu.pc`` on that member, counts the
    warm hits before it and the counters, records ``m``, the cycles
    before it and the iterations completed in ``fault`` and re-raises.
    ``leave`` sets ``cpu.pc`` where the block ends, or is ``None`` when
    the last member's handler sets it.  ``bound`` holds the objects the
    fragments named through ``bind``, in order.

    A loop block runs its one copy of the members in a ``while`` loop,
    counting iterations in ``k``, until its last member's branch leads
    away (it goes round when the branch's outcome reads ``continues``;
    an unconditional jump always does) or ``k`` reaches ``limit``.  Its
    first member fetches on every iteration, and its warm hits are
    counted ``k`` times at exit.  With ``steady``, after each iteration
    that goes round, it tests whether the predictor is at its back
    edge's fixed point (``TournamentPredictor.steady_source``); once it
    is, the call finishes in the *steady body*: the members again, each
    fetch an L1I hit and the branch's prediction, while it goes round,
    counted at exit (``PipelineModel.steady_tail``), from ``j``, the
    full-body iterations, to ``k``.  Both bodies leave through the one
    exit test.
    """
    loops = continues is not None
    taken = fragments[-1].taken
    body = []
    calm = []
    hits = 0
    hits_before = []
    for index, (fragment, flags) in enumerate(zip(fragments,
                                                  _flag_writes(fragments))):
        hits_before.append(hits)
        first = len(body)
        if fragment.raises and (index or loops):
            body.append("m = %d" % index)
        body += fragment.lines
        body += flags
        if steady:
            calm += body[first:] + pipeline.steady_tail(
                pcs[index], fragment.address, fragment.is_store,
                fragment.taken, continues)
        body += pipeline.member_tail(pcs[index], warm[index], fragment.address,
                                     fragment.is_store, fragment.taken)
        hits += warm[index]
    counted = ["%r[m]" % (tuple(hits_before),)] if any(hits_before) else []
    if loops:
        if taken is None:
            leaves = ""
        elif continues:
            leaves = "not %s or " % taken
        else:
            leaves = "%s or " % taken
        again = ["k += 1", "if %sk == limit:" % leaves, "    break"]
        loop = body + again
        if steady:
            loop += (["if %s:" % pipeline.predictor.steady_source(pcs[-1],
                                                                  continues),
                      "    j = k",
                      "    while True:"]
                     + _indent(calm + again, 2) + ["    break"])
        body = ["while True:"] + _indent(loop)
        if hits:
            counted.append("k * %d" % hits)
    raised = ["cpu.pc = %r[m]" % (tuple(pcs),)]
    if counted:
        raised.append("l1i_stats.hits += " + " + ".join(counted))
    tail = []
    if hits:
        if loops:
            tail.append("l1i_stats.hits += k * %d" % hits)
        else:
            tail.append("l1i_stats.hits += %d" % hits)
    if steady:
        # Steady iterations fetch every member as a counted hit and
        # count their predictions here.
        calm_hits = ["(k - j) * %d" % len(pcs)] + (
            ["j * %d" % hits] if hits else [])
        predicted = "branch_stats.predictions += k - j"
        steady_raised = [
            "l1i_stats.hits += %s" % " + ".join(
                ["%r[m]" % (tuple(range(len(pcs))),)] + calm_hits),
            predicted, "fault.steady = k - j"]
        raised = ([raised[0], "if j:"] + _indent(steady_raised) + ["else:"]
                  + _indent(raised[1:] + ["fault.steady = 0"]))
        tail = (["if j:"]
                + _indent(["l1i_stats.hits += " + " + ".join(calm_hits),
                           predicted])
                + (["else:"] + _indent(tail) if tail else []))
    else:
        raised.append("fault.steady = 0")
    text = "\n".join(body)
    counters = [(local, counter) for local, counter
                in pipeline.hierarchy.BLOCK_COUNTERS
                if re.search(r"\b%s\b" % local, text)]
    flush = ["%s += %s" % (counter, local) for local, counter in counters]
    raised += flush + [
        "fault.index = m", "fault.cycles = cyc",
        "fault.iterations = %s" % ("k" if loops else "0"), "raise"]
    tail += flush
    if leave is not None:
        tail.append(leave)
    if steady:
        tail.append("return cyc, k, k - j if j else 0")
    else:
        tail.append("return cyc, k, 0" if loops else "return cyc")
    used = set(re.findall(r"[A-Za-z_]\w*", "\n".join(body + raised + tail)))
    prologue = ["%s = %s" % (names, expression) for names, expression
                in cpu._block_prologue + pipeline.block_prologue()
                if used.intersection(names.split(", "))]
    prologue += ["%s = 0" % local for local, _ in counters]
    prologue.append("m = 0")
    if loops:
        prologue.append("k = 0")
    if steady:
        prologue.append("j = 0")
    source = "\n".join(
        ["def bind(%s):" % ", ".join("b%d" % i for i in range(len(bound))),
         "    def run(cpu, cyc%s):" % (", limit" if loops else "")]
        + _indent(prologue, 2) + ["        try:"] + _indent(body, 3)
        + ["        except BaseException:"] + _indent(raised, 3)
        + _indent(tail, 2) + ["    return run", ""])
    scope = {}
    exec(compile(source, "<block 0x%x>" % pcs[0], "exec"), cpu._block_globals,
         scope)
    return scope["bind"](*bound)


def _followed(cpu, fragment: Fragment, pcs: Sequence[int]) -> bool:
    """Whether formation continues at ``fragment``'s target: an
    unconditional direct jump, written inline, to neither the block's
    first pc nor another member, whose decode window lies in memory (a
    jump out of memory ends its block, and the reference step at its
    target raises as it would without blocks)."""
    target = fragment.target
    if target is None or fragment.taken is not None or target in pcs:
        return False
    try:
        cpu.memory.load_bytes(target, cpu._decode_window)
    except MemoryAccessError:
        return False
    return True


def form_block(cpu, start: int):
    """The superblock at ``start`` for ``cpu``, or ``NO_BLOCK``.

    Reuses one of the process's blocks for ``start`` when
    :func:`_reusable` proves forming it again would give that block.
    Otherwise walks the decode cache from ``start`` while
    ``cpu._block_member`` admits each instruction, up to
    ``MAX_BLOCK_LEN`` members; a member that ends the block is included
    as its last, except that formation follows an unconditional direct
    jump written inline (:func:`_followed`) to its target, where a new
    stretch of code starts.  The block is a loop block when its last
    member is a direct branch or jump back to ``start``, or a
    conditional branch that falls through to ``start``; such a loop
    ending in a conditional branch gets a steady body when the L1I
    lines of its members lie in distinct sets.  A member whose pc lies
    in the previous member's L1I line is formed warm.  The new block is
    shared unless a decode entry it used no longer matches memory.  Only
    called where pc == pa (RISC-V forms under Bare translation only).
    """
    pipeline = cpu.machine.pipeline
    key = (type(cpu), pipeline.block_key(), start)
    block = shared_blocks.reuse(cpu, key)
    if block is not None:
        return block
    decode_cache = cpu._decode_cache
    member = cpu._block_member
    hierarchy = pipeline.hierarchy
    line_bytes = hierarchy.l1i.line
    bound = []

    def bind(obj) -> str:
        bound.append(obj)
        return "b%d" % (len(bound) - 1)

    fragments = []
    pcs = []
    sizes = []
    classes = []
    warm = []
    insts = []
    # Each stretch's first pc and the last pc formation decoded in it.
    stretches = []
    shareable = True
    ends = False
    pc = first = start
    read = None
    previous_line = None
    while not ends and len(pcs) < MAX_BLOCK_LEN:
        read = pc
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
        formed = member(entry, pc, bind)
        if formed is None:
            break
        fragment, size, inst_class, ends = formed
        line = pc // line_bytes
        fragments.append(fragment)
        pcs.append(pc)
        sizes.append(size)
        classes.append(inst_class)
        warm.append(line == previous_line)
        previous_line = line
        if ends and _followed(cpu, fragment, pcs):
            stretches.append((first, read))
            pc = first = fragment.target
            read = None
            ends = False
        else:
            pc = (pc + size) & MASK64
    if not pcs:
        return NO_BLOCK
    if read is not None:
        stretches.append((first, read))
    window = cpu._decode_window
    code = [(begin, cpu.memory.load_bytes(begin, end + window - begin))
            for begin, end in stretches]
    last = fragments[-1]
    continues = leave = None
    if not ends:
        leave = "cpu.pc = %d" % pc
    elif last.target is not None:
        if last.taken is None:
            leave = "cpu.pc = %d" % last.target
        else:
            leave = "cpu.pc = %d if %s else %d" % (last.target, last.taken, pc)
        if last.target == start:
            continues = True
        elif last.taken is not None and pc == start:
            continues = False
    steady = (continues is not None and last.taken is not None
              and hierarchy.fetch_sets_distinct(pcs))
    run = _generate(cpu, pipeline, fragments, pcs, warm, leave, bound,
                    continues, steady)
    block = CompiledBlock(summarize_classes(classes), classes, run,
                          continues is not None, pcs, sizes, pc, code, insts)
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
    to the per-instruction loop by construction; after a probe that
    refused for a missing class, so do the block's other members while
    the pc stays on them.  Each fallback is counted by reason into the
    PCU's ``block_stats`` on exit, and so are the block runs retired
    inside loop blocks' calls and the iterations run in steady bodies.

    The blocks retired between two reference steps form an *epoch*
    (DESIGN §3.18 "Epochs"): nothing a block member does can change
    what the probe reads, so each block is probed once per epoch and
    later entries replay under the epoch's mode.  A loop block's call
    retires one block per iteration, at most as many as the budget and
    the epoch cap leave room for (DESIGN §3.18 "Loop blocks").  Their bookkeeping
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
    # Block runs retired inside a loop block's function, past its first,
    # and loop iterations run in a steady body.
    looped = steady = 0
    # After a probe refuses a block for a class its domain lacks, the
    # rest of its members, while the pc stays on them, take reference
    # steps too: ``walk`` yields their pcs, and ``walking`` is the next.
    class_refusals = 0 if pcu is None else pcu.block_stats.refused_class
    walk = walking = None
    try:
        while remaining > 0:
            verdict = BLOCK_REFUSED
            if not gate_open:
                translated += 1
            else:
                pc = cpu.pc
                # The pc a walk steps through forms and probes nothing.
                block = NO_BLOCK if pc == walking else blocks.get(pc)
                if block is None:
                    block = blocks[pc] = form_block(cpu, pc)
                if block is NO_BLOCK:
                    if walking is None:
                        no_block += 1
                    else:
                        refused += 1
                elif block.n > remaining:
                    budget += 1
                elif block in proven:
                    verdict = mode
                else:
                    verdict = BLOCK_SILENT if probe is None else probe(block.summary)
                    if verdict == BLOCK_REFUSED:
                        refused += 1
                        if pcu.block_stats.refused_class != class_refusals:
                            # The class stays missing while the members
                            # run, so their pcs would refuse too.
                            class_refusals = pcu.block_stats.refused_class
                            walk = iter(block.pcs[1:])
                    else:
                        mode = verdict
                        proven.add(block)
            if verdict == BLOCK_REFUSED:
                error = None
            else:
                n = block.n
                try:
                    if block.loops:
                        # One run is k iterations, each a retired block
                        # of the epoch, which the limit keeps within
                        # the budget and the epoch cap.
                        cyc, k, calm = block.run(cpu, cyc, min(
                            remaining // n, MAX_EPOCH_BLOCKS - len(retired)))
                        looped += k - 1
                        steady += calm
                        retired += [block.classes] * k
                        n *= k
                    else:
                        cyc = block.run(cpu, cyc)
                        retired.append(block.classes)
                except (Trap, PrivilegeFault) as fault:
                    # Mid-block fault: k whole iterations and members
                    # [0, i) retired normally; the faulting member's
                    # check preceded its trap on the reference path, so
                    # its class joins the epoch too, and it vectors
                    # below exactly like step().  It faulted before its
                    # fetch, so the reference instruction_cycles below
                    # does that fetch.
                    error = fault
                    k = MEMBER_FAULT.iterations
                    i = MEMBER_FAULT.index
                    cyc = MEMBER_FAULT.cycles
                    insts += k * n + i
                    remaining -= k * n + i
                    looped += k
                    steady += MEMBER_FAULT.steady
                    retired += [block.classes] * k
                    retired.append(block.classes[:i + 1])
                except BaseException:
                    # e.g. MemoryAccessError escaping the run, as on the
                    # per-instruction path; the retired members and the
                    # faulting one, whose check preceded its memory
                    # access there, are settled on the way out.
                    k = MEMBER_FAULT.iterations
                    i = MEMBER_FAULT.index
                    cyc = MEMBER_FAULT.cycles
                    insts += k * n + i
                    looped += k
                    steady += MEMBER_FAULT.steady
                    retired += [block.classes] * k
                    retired.append(block.classes[:i + 1])
                    raise
                else:
                    insts += n
                    remaining -= n
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
            if walk is not None:
                walking = next(walk, None)
                if cpu.pc != walking:
                    walk = walking = None
        return False
    finally:
        if retired:
            _settle(pipeline, account, mode, retired, insts - settled)
        mstats.instructions = insts
        mstats.cycles = cyc
        mstats.traps += traps
        if pcu is not None:
            stats = pcu.block_stats
            stats.add_fallbacks(no_block, budget, refused, translated)
            stats.looped += looped
            stats.steady += steady
