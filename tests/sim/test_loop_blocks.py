"""Loop blocks: a block whose last member branches back to its first pc,
or falls through to it, runs its iterations inside its generated
function, and finishes them in its steady body once the predictor sits
at the back edge's fixed point (DESIGN §3.18 "Loop blocks").

A strategy per ISA draws loop programs whose body takes one to six
members from the decoders' class tables (those ``_block_member`` admits
without ending a block), with a conditional or an unconditional
back-edge, trip counts up to 600 (past ``MAX_EPOCH_BLOCKS``, and often
past the predictor's history width plus three, where the steady body
takes over), a body placed anywhere in its L1I line (so it may straddle
two), and a walking pointer whose accesses stay in data, or walk into
trusted memory or past the end of memory on a drawn iteration, often a
steady one.  x86 loops are also drawn top-tested (``cmp; je out; body;
jmp top``, a loop that falls through to its first pc), and with a
forward ``jmp`` inside the body that formation follows, landing in the
same L1I line or beyond it.  Each program runs from a domain that may
not touch trusted memory, under a drawn budget that may end
mid-iteration, often in a steady one, and then again on the same
machine.  Blocks on and off must agree after each run on the outcome,
registers, flags, memory, pc, instructions, cycles, traps, every cache
level, the branch statistics and the predictor's tables, ``PcuStats``
and, when one is attached, a recording contract monitor's expanded
stream.  The tier-1 draws of each ISA must run steady iterations.

Written cases cover followed jumps that put two body lines in one L1I
set (no steady body) and five (which thrash it).  Seeded bugs in the
loop's limit, in the iterations its fault path reports, in the
shared-block key, in the steady body's prediction count and its fault
path's hits, in a fall-through loop's exit test, in the dead-flag rule
and in the set-collision check must each fail a comparison, and the
executor's block counters must read exactly on ``STACK_LOOP``.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.riscv as riscv_package
from repro.contracts import ContractMonitor
from repro.core import CONFIG_8E
from repro.riscv import (
    KERNEL_BASE as RISCV_BASE,
    MEMORY_SIZE as RISCV_MEMORY_SIZE,
    TRUSTED_BASE as RISCV_TRUSTED_BASE,
    assemble as riscv_assemble,
    build_riscv_system,
)
from repro.riscv import encoding as riscv_encoding
from repro.riscv.cpu import CpuPanic as RiscvPanic
from repro.sim import (
    InOrderPipelineModel,
    MemoryAccessError,
    MemoryHierarchy,
    PipelineModel,
    SimulationLimitExceeded,
    TournamentPredictor,
    blocks,
)
from repro.x86 import (
    KERNEL_BASE as X86_BASE,
    MEMORY_SIZE as X86_MEMORY_SIZE,
    TRUSTED_BASE as X86_TRUSTED_BASE,
    assemble as x86_assemble,
    build_x86_system,
)
from repro.x86 import cpu as x86_cpu
from repro.x86 import encoding as x86_encoding

from ..contracts.reference import expanded_stream
from ..profiles import NIGHTLY_SCALE, PROFILE
from .test_block_executor import (  # noqa: F401 (a fixture)
    SPIN,
    STACK_LOOP,
    cold_shared_blocks,
    run_restricted,
    seeded_mutant,
)
from .test_member_fragments import (
    RISCV_MEMBERS,
    X86_FORMS,
    X86_MEMBERS,
    X86_PROLOGUE,
    riscv_operands,
    riscv_word,
    run as run_written,
    state,
    x86_operands,
)

BLOCK_OFF = dataclasses.replace(CONFIG_8E, block_summaries=False)

#: Drawn programs per ISA: tier-1's budget, ten times that nightly.
EXAMPLES = 40 * (NIGHTLY_SCALE if PROFILE == "nightly" else 1)

#: Longest trip count drawn: a loop this long crosses the epoch cap.
MAX_TRIP = 600
assert blocks.MAX_EPOCH_BLOCKS < MAX_TRIP

#: Iterations after which a loop's back edge has saturated the wider
#: (x86's 14-bit) predictor history and its counters, so the steady
#: body runs the rest.
STEADY = 14 + 3

#: The walking pointer's data region, away from every edge.
DATA = 0x620000

#: Members that do not end their block, from the decoders' tables.
X86_BODY = sorted(m for m in X86_MEMBERS
                  if x86_encoding._CLASS[m] not in ("branch", "call"))
RISCV_BODY = sorted(
    m for m in RISCV_MEMBERS
    if riscv_encoding.instruction_class(m) != "branch"
    and m not in ("jal", "jalr"))


class LoopProgram:
    """A loop program of one ISA: its source, the budgets of its first
    run and of the rerun, and whether a monitor records it."""

    def __init__(self, isa, source, first, rerun, monitored):
        self.isa = isa
        self.source = source
        self.first = first
        self.rerun = rerun
        self.monitored = monitored

    def __repr__(self):
        return "LoopProgram(%r, first=%d, rerun=%d, monitored=%r)\n%s" % (
            self.isa, self.first, self.rerun, self.monitored, self.source)


@st.composite
def walks(draw, trusted_base, memory_size):
    """Where the walking pointer starts and how far it moves per
    iteration: within data, or onto trusted memory or the end of memory
    at a drawn iteration of a loop of ``trip`` iterations."""
    trip = draw(st.one_of(st.integers(min_value=1, max_value=MAX_TRIP),
                          st.integers(min_value=STEADY + 1,
                                      max_value=4 * STEADY)))
    stride = draw(st.integers(min_value=0, max_value=64))
    place = draw(st.sampled_from(["data", "trusted", "end"]))
    if place == "data" or not stride:
        return trip, DATA, stride
    edge = trusted_base if place == "trusted" else memory_size
    at = draw(st.one_of(st.integers(min_value=0, max_value=trip - 1),
                        st.integers(min_value=min(STEADY, trip - 1),
                                    max_value=trip - 1)))
    return trip, edge - at * stride, stride


def budgets(draw, trip, body):
    """The first run's budget, which may end anywhere up to the loop's
    natural end, often past the steady body's start, and the rerun's,
    which covers what is left."""
    whole = 80 + trip * (body + 4)
    steady = min(80 + STEADY * (body + 4), whole)
    return draw(st.one_of(st.integers(min_value=1, max_value=whole),
                          st.integers(min_value=steady,
                                      max_value=whole))), whole


X86_LOOP = X86_PROLOGUE + """
    mov r15, %(trip)d
    mov r14, %(walker)d
%(values)s
    mov r10, 0
g0:
    hccall r10
    .align 64
attack:
%(pad)s
loop:
%(body)s
    add r14, %(stride)d
    sub r15, 1
    %(back)s loop
    hlt
handler:
    hlt
"""

#: :data:`X86_LOOP` tested at the top: its loop block starts at
#: ``loop`` and ends at ``je``, which falls through to ``loop``.
X86_TOP_LOOP = X86_LOOP.replace("""loop:
%(body)s
    add r14, %(stride)d
    sub r15, 1
    %(back)s loop
    hlt
""", """top:
    cmp r15, 0
    je out
loop:
%(body)s
    add r14, %(stride)d
    sub r15, 1
    jmp top
out:
    hlt
""")


@st.composite
def x86_loops(draw):
    """An x86 loop: ``r15`` counts, ``r14`` walks and is the base of
    every ``[base+disp]`` member, and ``rsp`` is the stack.  It is
    tested at the bottom (``back``) or at the top, and its body may
    hold a forward ``jmp`` over a few bytes or over a line or more."""
    trip, walker, stride = draw(walks(X86_TRUSTED_BASE, X86_MEMORY_SIZE))
    mnemonics = draw(st.lists(st.sampled_from(X86_BODY), min_size=1,
                              max_size=6))
    values = {}
    body = []
    for mnemonic in mnemonics:
        operands = dict(draw(x86_operands()), base="r14")
        values.update(operands["values"])
        body.append("    " + X86_FORMS[mnemonic].format(**operands))
    skip = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4),
                          st.integers(min_value=60, max_value=140)))
    if skip is not None:
        at = draw(st.integers(min_value=0, max_value=len(body)))
        body[at:at] = ["    jmp over", "    .zero %d" % skip, "over:"]
    first, rerun = budgets(draw, trip, len(body))
    shape = draw(st.sampled_from(["jne", "jmp", "top"]))
    source = (X86_TOP_LOOP if shape == "top" else X86_LOOP) % {
        "trip": trip, "walker": walker, "stride": stride,
        "values": "".join("    mov %s, %d\n" % item
                          for item in values.items()),
        "pad": "    nop\n" * draw(st.integers(min_value=0, max_value=63)),
        "body": "\n".join(body),
        "back": shape,
    }
    return LoopProgram("x86", source, first, rerun, draw(st.booleans()))


RISCV_LOOP = """
entry:
    la t0, handler
    csrw stvec, t0
    li x27, %(trip)d
    li x26, %(walker)d
%(values)s
    li t0, 0
g0:
    hccall t0
    .align 64
attack:
%(pad)s
loop:
%(body)s
    addi x26, x26, %(stride)d
    addi x27, x27, -1
    %(back)s
    halt
handler:
    halt
"""


@st.composite
def riscv_loops(draw):
    """A RISC-V self-loop: ``x27`` counts and ``x26`` walks and is the
    base of every load and store."""
    trip, walker, stride = draw(walks(RISCV_TRUSTED_BASE, RISCV_MEMORY_SIZE))
    mnemonics = draw(st.lists(st.sampled_from(RISCV_BODY), min_size=1,
                              max_size=6))
    values = {}
    body = []
    for mnemonic in mnemonics:
        operands = dict(draw(riscv_operands(mnemonic)), base=26)
        values.update(operands["values"])
        body.append("    .word %d" % riscv_word(mnemonic, operands))
    first, rerun = budgets(draw, trip, len(body))
    source = RISCV_LOOP % {
        "trip": trip, "walker": walker, "stride": stride,
        "values": "".join("    li x%d, %d\n" % item
                          for item in values.items()),
        "pad": "    nop\n" * draw(st.integers(min_value=0, max_value=15)),
        "body": "\n".join(body),
        "back": draw(st.sampled_from(["bnez x27, loop", "beq x0, x0, loop"])),
    }
    return LoopProgram("riscv", source, first, rerun, draw(st.booleans()))


ISAS = {
    "x86": (build_x86_system, x86_assemble, X86_BASE),
    "riscv": (build_riscv_system, riscv_assemble, RISCV_BASE),
}


def run_budget(machine, budget):
    """Run ``machine`` from its pc; the error that ended it, if any."""
    try:
        machine.run(budget)
        return None
    except (MemoryAccessError, SimulationLimitExceeded, RiscvPanic,
            x86_cpu.CpuPanic) as error:
        return type(error).__name__


def observed(system, outcome, monitor):
    predictor = system.machine.pipeline.predictor
    return dict(
        state(system, outcome),
        predictor=(predictor._local, predictor._global, predictor._chooser,
                   predictor._history),
        stream=None if monitor is None else (
            expanded_stream(monitor.recorded), monitor.nonzero_counts()))


def run_loop(program, config):
    """Run ``program`` from ``entry`` under its first budget, then again
    under the rerun budget; the system, the loop's pc and what each run
    left."""
    build, assemble, base = ISAS[program.isa]
    system = build(config)
    manager = system.manager
    domain = manager.create_domain("all")
    manager.allow_all_instructions(domain.domain_id)
    assembled = assemble(program.source, base=base)
    system.load(assembled)
    manager.register_gate(assembled.symbol("g0"), assembled.symbol("attack"),
                          domain.domain_id)
    monitor = None
    if program.monitored:
        monitor = ContractMonitor(seed=0, record=True)
        monitor.attach(system.pcu, manager)
    system.cpu.pc = assembled.symbol("entry")
    runs = []
    for budget in (program.first, program.rerun):
        outcome = run_budget(system.machine, budget)
        runs.append(observed(system, outcome, monitor))
    return system, assembled.symbol("loop"), runs


def compare(program):
    """Blocks on and off agree after both runs; the blocks-on system."""
    system, loop, runs = run_loop(program, CONFIG_8E)
    assert runs == run_loop(program, BLOCK_OFF)[2]
    block = system.cpu._block_cache.get(loop)
    assert block is None or block is blocks.NO_BLOCK or block.loops
    return system


def steady_iterations(loops):
    """Compare every program the strategy ``loops`` draws; the loop
    iterations they ran in steady bodies, in all."""
    steady = []

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(program=loops)
    def check(program):
        steady.append(compare(program).pcu.block_stats.steady)

    check()
    return sum(steady)


def test_x86_loops_match_step():
    assert steady_iterations(x86_loops()) > 0


def test_riscv_loops_match_step():
    assert steady_iterations(riscv_loops()) > 0


# ----------------------------------------------------------------------
# Seeded mutants.  Each runs on an empty block cache of its own, so the
# blocks it compares are formed by the mutant.
# ----------------------------------------------------------------------
def x86_program(trip, walker=DATA, stride=8, first=1000, rerun=4000,
                body="    mov [r14+0], rax\n    add rax, 1", top=False):
    """A fixed x86 loop of :data:`X86_LOOP` with a conditional
    back-edge, or of :data:`X86_TOP_LOOP` when ``top``, not
    monitored."""
    return LoopProgram("x86", (X86_TOP_LOOP if top else X86_LOOP) % {
        "trip": trip, "walker": walker, "stride": stride, "values": "",
        "pad": "", "body": body, "back": "jne"}, first, rerun, False)


def blocks_agree(program):
    """The reference runs of ``program``, after checking that blocks on
    agree; and the blocks-on system."""
    reference = run_loop(program, BLOCK_OFF)[2]
    system, _, runs = run_loop(program, CONFIG_8E)
    assert runs == reference
    return reference, system


@pytest.mark.parametrize("first, steady", [(60, False), (1000, True)],
                         ids=["full-body", "steady-body"])
@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_limit_bug_is_caught(monkeypatch, first, steady):
    # A loop that ignores its limit runs to its exit branch, past a
    # budget that ends mid-loop (and past the epoch cap).  Both bodies
    # leave through the one exit test, so the bug shows whether the
    # budget ends in the full body or in the steady one.
    program = x86_program(MAX_TRIP, first=first, rerun=1)
    reference, system = blocks_agree(program)
    assert reference[0]["outcome"] == "SimulationLimitExceeded"
    assert bool(system.pcu.block_stats.steady) == steady
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_generate", seeded_mutant(
        blocks._generate, '"if %sk == limit:" % leaves',
        '"if %sFalse:" % leaves'))
    mutant = run_loop(program, CONFIG_8E)[2]
    assert mutant[0]["instructions"] > reference[0]["instructions"]


@pytest.mark.parametrize("reported", ["k + 1", "k - 1"])
@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_fault_iterations_bug_is_caught(monkeypatch, reported):
    # The walker's store reaches trusted memory on iteration 6 of 20: a
    # fault path that reports one iteration too many or too few
    # retires a whole body too many or too few before the trap.
    program = x86_program(20, walker=X86_TRUSTED_BASE - 6 * 8)
    reference = run_loop(program, BLOCK_OFF)[2]
    assert reference[0]["traps"] == 1
    assert run_loop(program, CONFIG_8E)[2] == reference
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_generate", seeded_mutant(
        blocks._generate, '"fault.iterations = %s" % ("k" if loops else "0")',
        '"fault.iterations = %%s" %% ("%s" if loops else "0")' % reported))
    mutant = run_loop(program, CONFIG_8E)[2]
    assert mutant[0]["traps"] == 1
    assert abs(mutant[0]["instructions"] - reference[0]["instructions"]) == 5


RISCV_BRANCHY = RISCV_LOOP % {
    "trip": 300, "walker": DATA, "stride": 8, "values": "", "pad": "",
    "body": "    andi t1, x27, 3\n    sd t1, 0(x26)", "back": "bnez x27, loop"}


def twelve_bit_predictor(hierarchy):
    return InOrderPipelineModel(hierarchy, TournamentPredictor(12, 12))


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_key_without_predictor_masks_is_caught(monkeypatch):
    # Blocks render the predictor's masks, so a RISC-V machine with a
    # 12-bit predictor must not run the blocks a default (10-bit) one
    # formed at the same pcs.  Each machine is compared with blocks off.
    program = LoopProgram("riscv", RISCV_BRANCHY, 5000, 100, False)

    def default_then_twelve_bit():
        results = []
        for model in (InOrderPipelineModel, twelve_bit_predictor):
            with monkeypatch.context() as patch:
                patch.setattr(riscv_package, "InOrderPipelineModel", model)
                results.append((run_loop(program, CONFIG_8E)[2],
                                run_loop(program, BLOCK_OFF)[2]))
        return results

    for blocky, off in default_then_twelve_bit():
        assert blocky == off
    blocks.shared_blocks.clear()
    monkeypatch.setattr(PipelineModel, "block_key", seeded_mutant(
        PipelineModel.block_key, "+ self.predictor.render_key())", ")"))
    (blocky, off), (twelve_blocky, twelve_off) = default_then_twelve_bit()
    assert blocky == off
    assert twelve_blocky != twelve_off


#: A fault in a steady iteration: the store, the body's second member,
#: reaches trusted memory on iteration 31 of 40.
STEADY_FAULT = x86_program(
    40, walker=X86_TRUSTED_BASE - 30 * 8,
    body="    add rax, 1\n    mov [r14+0], rax")


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_steady_prediction_count_bug_is_caught(monkeypatch):
    # A steady body that does not count its predictions, at its exit or
    # on its fault path, leaves the branch statistics short.
    reference, system = blocks_agree(STEADY_FAULT)
    assert reference[0]["traps"] == 1 and system.pcu.block_stats.steady
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_generate", seeded_mutant(
        blocks._generate, 'predicted = "branch_stats.predictions += k - j"',
        'predicted = "pass"'))
    mutant = run_loop(STEADY_FAULT, CONFIG_8E)[2]
    assert mutant[0]["branches"] != reference[0]["branches"]
    assert mutant[0]["cycles"] == reference[0]["cycles"]


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_steady_fault_hits_bug_is_caught(monkeypatch):
    # Every steady member's fetch is a hit the block counts, so a fault
    # path that counts the hits before the store from the full body's
    # table, where the first member fetched for itself, loses one.
    reference, _ = blocks_agree(STEADY_FAULT)
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_generate", seeded_mutant(
        blocks._generate, '["%r[m]" % (tuple(range(len(pcs))),)]',
        '["%r[m]" % (tuple(hits_before),)]'))
    mutant = run_loop(STEADY_FAULT, CONFIG_8E)[2]
    assert mutant[0]["caches"] != reference[0]["caches"]
    assert mutant[0]["cycles"] == reference[0]["cycles"]


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_fall_through_exit_bug_is_caught(monkeypatch):
    # A top-tested loop goes round while its je is not taken.  Given a
    # taken loop's exit test, it leaves after every iteration (which
    # only costs a dispatch) and goes round once more when je is taken.
    program = x86_program(30, body="    add rax, 1", top=True)
    reference, system = blocks_agree(program)
    stats = system.pcu.block_stats
    assert stats.looped and stats.steady
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_generate", seeded_mutant(
        blocks._generate, 'leaves = "%s or " % taken',
        'leaves = "not %s or " % taken'))
    mutant = run_loop(program, CONFIG_8E)[2]
    assert mutant != reference


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_dead_flag_rule_bug_is_caught(monkeypatch):
    # ``cmp rax, rax`` sets zf, and ``add r14`` overwrites it two
    # members later; the store between them faults on iteration 4 into
    # a handler that halts, which must see the cmp's flags.  A rule that
    # drops the cmp's writes there leaves the last iteration's.
    program = x86_program(20, walker=X86_TRUSTED_BASE - 3 * 8,
                          body="    cmp rax, rax\n    mov [r14+0], rax")
    reference, _ = blocks_agree(program)
    assert reference[0]["traps"] == 1 and reference[0]["flags"][0]
    blocks.shared_blocks.clear()
    monkeypatch.setattr(blocks, "_flag_writes", seeded_mutant(
        blocks._flag_writes, "if fragment.raises or fragment.reads_flags:",
        "if fragment.reads_flags:"))
    mutant = run_loop(program, CONFIG_8E)[2]
    assert mutant[0]["flags"] != reference[0]["flags"]


#: A loop whose body the followed jumps spread over ``lines`` L1I lines
#: 8 KB apart, so all of them fall in one set of the O3 model's L1I
#: (128 sets of 64 bytes, four ways).
COLLIDING = """
entry:
    mov r15, 40
    jmp loop
    .align 8192
loop:
%s    sub r15, 1
    jne loop
    hlt
"""


def colliding(lines):
    return COLLIDING % "".join(
        "    add rax, %d\n    jmp far%d\n    .align 8192\nfar%d:\n"
        % (i, i, i) for i in range(lines - 1))


@pytest.mark.parametrize("lines", [2, 5])
@pytest.mark.usefixtures("cold_shared_blocks")
def test_colliding_lines_get_no_steady_body(lines):
    # Two lines share their set and both stay in it; five thrash its
    # four ways, so every iteration misses.  Either way the loop block
    # runs no steady iteration and matches step().
    source = colliding(lines)
    system, program, observed = run_written("x86", CONFIG_8E, source)
    assert observed == run_written("x86", BLOCK_OFF, source)[2]
    block = system.cpu._block_cache[program.symbol("loop")]
    assert block.loops and len(block.code) == lines
    stats = system.pcu.block_stats
    assert stats.looped and not stats.steady


@pytest.mark.usefixtures("cold_shared_blocks")
def test_seeded_set_collision_bug_is_caught(monkeypatch):
    # A check that passes every body gives the thrashing loop a steady
    # body, which charges hits for lines that miss.
    source = colliding(5)
    reference = run_written("x86", BLOCK_OFF, source)[2]
    monkeypatch.setattr(MemoryHierarchy, "fetch_sets_distinct", seeded_mutant(
        MemoryHierarchy.fetch_sets_distinct,
        "return len({line % self._l1i_n_sets for line in lines}) == len(lines)",
        "return True"))
    system, _, observed = run_written("x86", CONFIG_8E, source)
    assert system.pcu.block_stats.steady
    assert observed["cycles"] != reference["cycles"]


# ----------------------------------------------------------------------
# The executor's block counters.
# ----------------------------------------------------------------------
def test_block_counters_on_stack_loop():
    # The first probe in the restricted domain refuses (its bypass is
    # cold), so ``mov rcx, 20`` retires through step() and all 20
    # iterations run in one call of the loop block at ``loop``.  Before
    # it, domain 0 runs one block up to ``lidt`` and one at ``g0``'s
    # ``mov``; after it, ``handler`` runs one: 23 block runs, 4 calls.
    system, program = run_restricted(CONFIG_8E, STACK_LOOP)
    stats = system.pcu.block_stats
    loop = system.cpu._block_cache[program.symbol("loop")]
    assert loop.loops and loop.n == 7
    assert stats.fallback_refused == 1
    assert (stats.blocks, stats.looped, stats.dispatches) == (23, 19, 4)
    assert stats.insts == 18 + 1 + 20 * 7 + 1
    assert stats.as_dict()["dispatches"] == 4


def test_spin_runs_through_its_loop_block():
    # SPIN's ``jmp loop`` block iterates inside its function: after the
    # entry block, calls of 255 and 256 iterations end at the epoch cap
    # and one of 255 where the budget has less than a body left, for
    # which four reference steps follow.
    system = build_x86_system(CONFIG_8E)
    domain = system.manager.create_domain("all")
    system.manager.allow_all_instructions(domain.domain_id)
    program = x86_assemble(SPIN, base=X86_BASE)
    system.load(program)
    with pytest.raises(SimulationLimitExceeded):
        system.run(program.symbol("entry"), max_steps=3840)
    stats = system.pcu.block_stats
    assert system.cpu._block_cache[program.symbol("loop")].loops
    assert (stats.blocks, stats.dispatches) == (767, 4)
