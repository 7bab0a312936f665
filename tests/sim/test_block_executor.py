"""The block-summary executor: machine-level bit-identity (§3.18).

The block executor must be a pure wall-clock optimization: for every
program, running with block summaries on, off (per-instruction fast
path) and with ``fast_path=False`` (reference slow path) must produce
bit-identical instructions, cycles, traps, architectural registers and
``PcuStats``.  This suite drives small assembled programs and the
gate-stress kernel workload through all three modes on both backends,
exercises the mid-block fault and escaping-exception paths, jumps into
the hidden gadgets of the unintended-instruction streams, runs RISC-V
programs under Bare and Sv39 translation (with seeded bugs in the
translation gate that the Sv39 checks must catch), pins the O3
store-queue window across blocks (with a seeded bug that drops its
update), and pins the escape hatches (``PcuConfig(block_summaries=
False)``, the ``Machine.block_summaries`` flag, step hooks) that must
keep the reference path in charge.  An attached contract monitor is
not one: blocks run under it, each narrated as one ``block`` event,
and a seeded summary bug that drops a class must show up as contract
violations.  Compiled blocks outlive the boot: a second boot runs the
first one's blocks, while different bytes or a stale decode cache make
a block form again, and a seeded bug in each of those checks must fail
a test.  Every test that seeds a bug in formation runs on an empty
process-wide block cache of its own (``cold_shared_blocks``).  The
executor proves each block once per epoch: one block runs under three
verdicts in one run, a run with no reference step settles its epochs
early, and a seeded proven set that outlives its epoch must fail.  A
rerun past an earlier halt must fail alike on both loops.
"""

import dataclasses
import inspect
import random
import textwrap
from typing import NamedTuple

import pytest

from repro.attacks.unintended import DEFAULT_STREAM_LEN, build_stream
from repro.contracts import ContractMonitor
from repro.core import CONFIG_8E
from repro.core.pcu import BLOCK_BYPASS, BLOCK_DOMAIN0, BLOCK_REFUSED
from repro.kernel import RiscvKernel, X86Kernel
from repro.riscv import (
    KERNEL_BASE as RISCV_BASE,
    PageTableBuilder,
    RiscvCpu,
    assemble as riscv_assemble,
    build_riscv_system,
    make_satp,
)
from repro.riscv.mmu import PAGE_SHIFT, PTE_R, PTE_W, PTE_X
from repro.sim import (
    Machine,
    MemoryAccessError,
    OutOfOrderPipelineModel,
    SimulationLimitExceeded,
    TrapKind,
    blocks,
)
from repro.workloads import APPLICATIONS, GATE_STRESS
from repro.workloads.generator import riscv_user_program, x86_user_program
from repro.workloads.micro import _X86_GATE_LOOP
from repro.x86 import (
    IDT_BASE,
    KERNEL_BASE as X86_BASE,
    VEC_GP,
    VEC_ISA_GRID,
    VEC_TRUSTED_MEMORY,
    VEC_UD,
    X86_ISA_MAP,
    X86Cpu,
    assemble as x86_assemble,
    build_x86_system,
)
from repro.x86.isa import BASE_COMPUTE_CLASSES
from repro.x86.registers import MSR_SPEC_CTRL

from ..contracts.reference import expanded_stream

BLOCK_OFF = dataclasses.replace(CONFIG_8E, block_summaries=False)
SLOW_PATH = dataclasses.replace(CONFIG_8E, fast_path=False)
ALL_MODES = (CONFIG_8E, BLOCK_OFF, SLOW_PATH)

X86_LOOP = """
entry:
    mov rcx, 40
loop:
    mov rax, 5
    add rax, 7
    sub rax, 2
    and rax, 0xFF
    sub rcx, 1
    cmp rcx, 0
    jne loop
    hlt
"""

RISCV_LOOP = """
entry:
    li t0, 40
loop:
    addi t1, t1, 3
    add t2, t1, t0
    sub t3, t2, t1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


def run_x86(config, source=X86_LOOP, *, max_steps=100_000):
    system = build_x86_system(config)
    domain = system.manager.create_domain("all")
    system.manager.allow_all_instructions(domain.domain_id)
    program = x86_assemble(source, base=X86_BASE)
    system.load(program)
    system.run(program.symbol("entry"), max_steps=max_steps)
    return system


#: Sv39 tables for the paged programs: code identity-mapped, and one
#: data page whose virtual address differs from its physical one.
PT_BASE = 0x0200_0000
DATA_VA = 0x4000_0000
DATA_PA = 0x0062_0000
SV39_SATP = make_satp(PT_BASE >> PAGE_SHIFT)
#: MODE = Bare with other bits set, as the kernels' mmap installs.
BARE_SATP = 0x5000

#: Writes ``satp`` (all that runs before ``paged``), then loops over
#: loads and stores through ``data``.
PAGED_LOOP = """
entry:
    li t0, %(satp)d
    csrw satp, t0
paged:
    sfence.vma
    li t4, %(data)d
    li t0, 40
loop:
    addi t1, t1, 3
    sd t1, 0(t4)
    ld t2, 0(t4)
    add t3, t3, t2
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Alternates Sv39 and Bare phases over the same physical data word.
SWITCHING = """
entry:
    li s2, %(sv39)d
    li s3, %(bare)d
    li s4, %(data_va)d
    li s5, %(data_pa)d
    li s6, 4
outer:
    csrw satp, s2
    sfence.vma
    li t0, 10
paged:
    addi t1, t1, 3
    sd t1, 0(s4)
    ld t2, 0(s4)
    add t3, t3, t2
    addi t0, t0, -1
    bnez t0, paged
    csrw satp, s3
    sfence.vma
    li t0, 10
bare:
    addi t1, t1, 5
    sd t1, 8(s5)
    ld t2, 0(s5)
    add t3, t3, t2
    addi t0, t0, -1
    bnez t0, bare
    addi s6, s6, -1
    bnez s6, outer
    halt
""" % {"sv39": SV39_SATP, "bare": BARE_SATP, "data_va": DATA_VA,
       "data_pa": DATA_PA}


def run_riscv(config, source=RISCV_LOOP, *, max_steps=100_000):
    system = build_riscv_system(config)
    tables = PageTableBuilder(system.machine.memory, PT_BASE)
    tables.identity_map(RISCV_BASE, 0x10000, PTE_R | PTE_X)
    tables.map_page(DATA_VA, DATA_PA, PTE_R | PTE_W)
    assert tables.satp() == SV39_SATP
    domain = system.manager.create_domain("all")
    system.manager.allow_all_instructions(domain.domain_id)
    program = riscv_assemble(source, base=RISCV_BASE)
    system.load(program)
    system.run(program.symbol("entry"), max_steps=max_steps)
    return system


def timing_stats(machine):
    """Each cache level's (hits, misses) and the branch predictor's
    (predictions, mispredictions): what the fused closures count
    besides cycles."""
    hierarchy = machine.hierarchy
    branches = machine.pipeline.branch_stats
    levels = (hierarchy.l1i, hierarchy.l1d, *hierarchy.shared)
    return {
        "caches": tuple((level.name, level.stats.hits, level.stats.misses)
                        for level in levels),
        "branches": (branches.predictions, branches.mispredictions),
    }


def snapshot(system):
    stats = system.machine.stats
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "traps": stats.traps,
        "halted": stats.halted,
        "regs": tuple(system.cpu.regs),
        "pcu": system.pcu.stats.as_dict(),
        **timing_stats(system.machine),
    }


def paged_snapshot(system):
    mmu = system.cpu.mmu
    return dict(snapshot(system),
                tlb=(mmu.walks, mmu.tlb_hits, mmu.tlb_misses))


def instructions_before(source, label):
    """Instructions from ``entry`` to ``label``: each runs once."""
    program = riscv_assemble(source, base=RISCV_BASE)
    return (program.symbol(label) - program.symbol("entry")) // 4


def bare_gate_mutant(cpu):
    """A seeded bug in ``RiscvCpu._block_gate``: it takes every satp
    for Bare, so the executor enters blocks under Sv39 while ``step``
    and the load/store handlers still translate."""
    return True


@pytest.fixture
def cold_shared_blocks(monkeypatch):
    """An empty process-wide block cache for a seeded-mutant test, so
    the blocks it runs are formed by its mutant; the process's own cache
    is back afterwards, and no mutant block reaches it."""
    monkeypatch.setattr(blocks, "shared_blocks", blocks.SharedBlocks())


def seeded_mutant(function, line, replacement):
    """``function`` with a seeded bug: its one source line holding
    ``line`` gets ``replacement`` in its place."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(line) == 1
    namespace = {}
    exec(source.replace(line, replacement), vars(inspect.getmodule(function)),
         namespace)
    return namespace[function.__name__]


#: x86 loop of ``hccalls`` -> a callee of straight-line ``add``s ->
#: ``hcrets``.  The O3 model saves FORWARDING_SAVING cycles on hcrets
#: only while the hccalls push is within STORE_QUEUE_WINDOW retired
#: instructions, so the callee's block must advance that window.
GATE_CALL_BODY = "g0:\n    hccalls r10\nafter0:"


def run_gate_call_loop(config, adds, iterations=50):
    system = build_x86_system(config)
    manager = system.manager
    domain = manager.create_domain("bench")
    manager.allow_all_instructions(domain.domain_id)
    manager.allocate_trusted_stack(frames=16)
    tail = "fn:\n" + "    add rax, 1\n" * adds + "    hcrets"
    program = x86_assemble(
        _X86_GATE_LOOP % {"iters": iterations, "body": GATE_CALL_BODY,
                          "tail": tail},
        base=X86_BASE)
    system.load(program)
    for gate, target in (("g_d0", "bench_start"), ("g0", "fn")):
        manager.register_gate(program.symbol(gate), program.symbol(target),
                              domain.domain_id)
    system.run(program.symbol("entry"), max_steps=100_000)
    return system


def gadget_samples(n_streams=8):
    """(stream, offset) of the first planted gadget of each kind in the
    unintended-instruction campaign's streams."""
    samples = {}
    for index in range(n_streams):
        stream, planted = build_stream(random.Random(index), index,
                                       DEFAULT_STREAM_LEN)
        for gadget in planted:
            samples.setdefault(gadget.kind, (stream, gadget.offset))
    return samples


GADGETS = gadget_samples()

#: Domain 0 points every fault vector at ``handler`` and enters a
#: restricted domain at ``attack`` through ``g0``.  ``attack`` runs in
#: that domain and ends in ``handler``, which leaves through ``g1`` for
#: domain 0, which halts.  ``data`` follows the code.
RESTRICTED = """
entry:
    mov rsp, 0x6e0000
%(vectors)s
    mov rbx, %(idt)d
    mov rcx, 0x610000
    mov [rcx+0], rbx
    mov rbx, 4095
    mov [rcx+8], rbx
    lidt [rcx+0]
    mov r10, 0
g0:
    hccall r10
done:
    hlt
attack:
%(attack)s
handler:
    mov r10, 1
g1:
    hccall r10
%(data)s
"""

#: The restricted domain (granted only the base compute classes) runs a
#: short block whose ``jmp`` lands inside a carrier immediate; the
#: hidden gadget must fault in the PCU (``rcx`` names a real MSR, so
#: ``wrmsr`` passes the #GP check first).
GADGET_ATTACK = """
    mov rax, 1
    add rax, 2
    mov rcx, %d
    jmp gadget""" % MSR_SPEC_CTRL

#: 20 iterations of a 7-member block with a ``push`` and a ``pop``, run
#: in a domain granted ``NO_STACK``: the first ``push`` must take an
#: ISA-Grid fault into ``handler``.
NO_STACK = tuple(name for name in BASE_COMPUTE_CLASSES if name != "stack")
STACK_LOOP = """
    mov rcx, 20
loop:
    mov rax, 5
    add rax, 7
    sub rcx, 1
    push rax
    pop rbx
    cmp rcx, 0
    jne loop"""


def run_restricted(config, attack, data="", *,
                   classes=BASE_COMPUTE_CLASSES, monitor=None):
    """Run ``attack`` in a domain granted ``classes`` (``RESTRICTED``),
    with ``monitor`` attached before the run if given."""
    system = build_x86_system(config)
    manager = system.manager
    domain = manager.create_domain("restricted")
    manager.allow_instructions(domain.domain_id, classes)
    vectors = "\n".join(
        "    mov rax, %d\n    mov rbx, handler\n    mov [rax+%d], rbx"
        % (IDT_BASE, 8 * vector)
        for vector in (VEC_UD, VEC_GP, VEC_ISA_GRID, VEC_TRUSTED_MEMORY))
    program = x86_assemble(RESTRICTED % {
        "vectors": vectors, "idt": IDT_BASE, "attack": attack, "data": data,
    }, base=X86_BASE)
    system.load(program)
    for gate, (at, target, owner) in enumerate((
            ("g0", "attack", domain.domain_id), ("g1", "done", 0))):
        assert manager.register_gate(program.symbol(at),
                                     program.symbol(target), owner) == gate
    if monitor is not None:
        monitor.attach(system.pcu, manager)
    system.run(program.symbol("entry"), max_steps=10_000)
    return system, program


def run_gadget_jump(config, stream, offset):
    system, program = run_restricted(
        config, GADGET_ATTACK, "stream:\n    .byte %s\ngadget:\n    .byte %s"
        % (", ".join(map(str, stream[:offset])),
           ", ".join(map(str, stream[offset:]))))
    return system, program.symbol("gadget")


def summary_without_stack(inst_classes, summarize=blocks.summarize_classes):
    """A seeded bug in ``blocks.summarize_classes``: the summary leaves
    out the x86 ``stack`` class, so the probe never asks for it."""
    stack = X86_ISA_MAP.inst_class("stack")
    return summarize(c for c in inst_classes if c != stack)


#: Sets up the IDT, then runs a 6-member block whose ``div`` (member 3)
#: faults into ``handler``.
MID_BLOCK_DIV = """
entry:
    mov rsp, 0x6e0000
    mov rax, %d
    mov rbx, handler
    mov [rax+%d], rbx
    mov rbx, %d
    mov rcx, 0x610000
    mov [rcx+0], rbx
    mov rbx, 4095
    mov [rcx+8], rbx
    lidt [rcx+0]
    mov rax, 8
    mov rbx, 0
    add rax, 4
    div rbx
    add rax, 1
    add rax, 2
    hlt
handler:
    mov rdi, 99
    hlt
""" % (IDT_BASE, 8 * VEC_UD, IDT_BASE)

#: A loop that never halts and takes no reference step: every block it
#: retires belongs to one epoch until the budget runs out.
SPIN = """
entry:
    mov rax, 1
loop:
    add rax, 1
    add rax, 2
    add rax, 3
    and rax, 0xFFFF
    jmp loop
"""


class TestX86Identity:
    def test_three_way_bit_identity(self):
        blocky, off, slow = (run_x86(config) for config in ALL_MODES)
        reference = snapshot(off)
        assert snapshot(blocky) == reference
        assert snapshot(slow) == reference
        # The block run really took the block executor; the others
        # never probed.
        assert blocky.pcu.block_stats.insts > 0
        assert off.pcu.block_stats.probes == 0
        assert slow.pcu.block_stats.probes == 0

    def test_trap_inside_a_block_takes_the_idt_path(self):
        # mov/mov/add/div is one straight-line block; the div faults at
        # member 3, which must vector through the IDT exactly like the
        # per-instruction path — same handler, same counters.
        source = """
        entry:
            mov rsp, 0x6e0000
            mov rax, %d
            mov rbx, handler
            mov [rax+%d], rbx
            mov rbx, %d
            mov rcx, 0x610000
            mov [rcx+0], rbx
            mov rbx, 4095
            mov [rcx+8], rbx
            lidt [rcx+0]
            mov rax, 8
            mov rbx, 0
            add rax, 4
            div rbx
            hlt
        handler:
            mov rdi, 99
            hlt
        """ % (IDT_BASE, 8 * VEC_UD, IDT_BASE)
        blocky = run_x86(CONFIG_8E, source)
        off = run_x86(BLOCK_OFF, source)
        assert blocky.cpu.regs[7] == off.cpu.regs[7] == 99
        assert snapshot(blocky) == snapshot(off)
        assert blocky.machine.stats.traps == 1
        assert blocky.pcu.block_stats.insts > 0

    def test_monitored_mid_block_trap_accounts_the_prefix(self, monkeypatch):
        # The div faults at member 3 of a 6-member block: its checks,
        # and the monitor's block event, cover members 0..3 only, as
        # the per-instruction path's four checks do.  That event is the
        # last one recorded before the trap is dispatched.
        source = MID_BLOCK_DIV
        runs = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system = build_x86_system(config)
            domain = system.manager.create_domain("all")
            system.manager.allow_all_instructions(domain.domain_id)
            monitor = ContractMonitor(record=True)
            monitor.attach(system.pcu, system.manager)
            recorded_at_trap = []
            dispatch = system.cpu._dispatch_fault
            monkeypatch.setattr(
                system.cpu, "_dispatch_fault",
                lambda *args: (recorded_at_trap.append(len(monitor.recorded)),
                               dispatch(*args)))
            program = x86_assemble(source, base=X86_BASE)
            system.load(program)
            system.run(program.symbol("entry"))
            assert system.machine.stats.traps == 1
            runs.append((snapshot(system), expanded_stream(monitor.recorded),
                         monitor.recorded[recorded_at_trap[0] - 1]))
        assert runs[0][:2] == runs[1][:2]
        mov, alu = (X86_ISA_MAP.inst_class(name) for name in ("mov", "alu"))
        prefix = runs[0][2]
        assert prefix.kind == "block"
        assert prefix.classes == (mov, mov, alu, alu)

    def test_escaping_exception_inside_a_block(self):
        # An out-of-range load escapes the run on the reference path;
        # mid-block it must escape with identical attribution, rip on
        # the load included.
        source = """
        entry:
            mov rbx, 0x40000000
            mov rax, 1
            add rax, 2
        load:
            mov rcx, [rbx]
            hlt
        """
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system = build_x86_system(config)
            domain = system.manager.create_domain("all")
            system.manager.allow_all_instructions(domain.domain_id)
            program = x86_assemble(source, base=X86_BASE)
            system.load(program)
            with pytest.raises(MemoryAccessError):
                system.run(program.symbol("entry"))
            snaps.append(dict(snapshot(system), pc=system.cpu.pc))
        assert snaps[0] == snaps[1]
        assert snaps[0]["pc"] == program.symbol("load")

    def test_budget_cutoff_is_identical(self):
        # A non-halting program must stop after exactly max_steps in
        # both modes — a block never overshoots the budget.
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system = build_x86_system(config)
            domain = system.manager.create_domain("all")
            system.manager.allow_all_instructions(domain.domain_id)
            program = x86_assemble(SPIN, base=X86_BASE)
            system.load(program)
            with pytest.raises(SimulationLimitExceeded):
                system.run(program.symbol("entry"), max_steps=1001)
            snaps.append(snapshot(system))
        assert snaps[0] == snaps[1]
        assert snaps[0]["instructions"] == 1001

    def test_machine_flag_escape_hatch(self):
        system = build_x86_system(CONFIG_8E)
        system.machine.block_summaries = False
        domain = system.manager.create_domain("all")
        system.manager.allow_all_instructions(domain.domain_id)
        program = x86_assemble(X86_LOOP, base=X86_BASE)
        system.load(program)
        system.run(program.symbol("entry"))
        assert system.pcu.block_stats.probes == 0
        assert snapshot(system) == snapshot(run_x86(BLOCK_OFF))

    def test_step_hook_keeps_the_reference_path(self):
        system = build_x86_system(CONFIG_8E)
        seen = []
        system.machine.step_hook = lambda info: seen.append(info.pc) or False
        domain = system.manager.create_domain("all")
        system.manager.allow_all_instructions(domain.domain_id)
        program = x86_assemble(X86_LOOP, base=X86_BASE)
        system.load(program)
        system.run(program.symbol("entry"))
        assert system.pcu.block_stats.probes == 0
        # The hook saw every instruction, the halting one included.
        assert len(seen) == system.machine.stats.instructions

    def test_reload_flushes_the_block_cache(self):
        system = run_x86(CONFIG_8E)
        assert system.cpu._block_cache
        invalidations = system.pcu.block_stats.invalidations
        program = x86_assemble(X86_LOOP, base=X86_BASE)
        system.load(program)  # icache coherence: flush_decode_cache
        assert not system.cpu._block_cache
        assert system.pcu.block_stats.invalidations == invalidations + 1


class TestSeededFaultIndexBug:
    """A generated block whose exception path names the member after the
    one that faulted must fail the mid-block fault identity: the trap
    vectors from the wrong rip, and one instruction too many retires."""

    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_seeded_fault_index_bug_is_caught(self, monkeypatch):
        reference = snapshot(run_x86(BLOCK_OFF, MID_BLOCK_DIV))
        assert snapshot(run_x86(CONFIG_8E, MID_BLOCK_DIV)) == reference
        blocks.shared_blocks.clear()
        monkeypatch.setattr(blocks, "_generate", seeded_mutant(
            blocks._generate, 'body.append("m = %d" % index)',
            'body.append("m = %d" % (index + 1))'))
        observed = snapshot(run_x86(CONFIG_8E, MID_BLOCK_DIV))
        assert observed["instructions"] == reference["instructions"] + 1
        assert observed != reference


class TestLongEpoch:
    """A run that takes no reference step settles its epoch early every
    ``MAX_EPOCH_BLOCKS`` blocks, and reads exactly like a run without
    blocks, monitored stream included."""

    MAX_STEPS = 5 * 3 * blocks.MAX_EPOCH_BLOCKS

    def run(self, config, settled=None):
        system = build_x86_system(config)
        domain = system.manager.create_domain("all")
        system.manager.allow_all_instructions(domain.domain_id)
        program = x86_assemble(SPIN, base=X86_BASE)
        system.load(program)
        monitor = ContractMonitor(seed=0, record=True)
        monitor.attach(system.pcu, system.manager)
        if settled is not None:
            account = system.pcu.account_block
            system.pcu.account_block = lambda mode, retired: (
                settled.append(len(retired)), account(mode, retired))
        with pytest.raises(SimulationLimitExceeded):
            system.run(program.symbol("entry"), max_steps=self.MAX_STEPS)
        assert monitor.total_violations == 0
        return snapshot(system), expanded_stream(monitor.recorded)

    def test_early_settling_is_identical(self):
        settled = []
        blocky = self.run(CONFIG_8E, settled)
        assert blocky == self.run(BLOCK_OFF)
        # About three epochs' worth of blocks, settled in batches of at
        # most MAX_EPOCH_BLOCKS.
        assert settled[:2] == [blocks.MAX_EPOCH_BLOCKS] * 2
        assert max(settled) == blocks.MAX_EPOCH_BLOCKS
        assert len(settled) >= 3


class TestGadgetJumpIntoImmediate:
    """A real ``jmp`` into a carrier's immediate, from a domain without
    the hidden gadget's class.  The block cache is keyed by entry pc, so
    the misaligned target gets a fresh formation attempt over hidden
    bytes; the gadget must fault identically in all three modes."""

    @pytest.mark.parametrize("kind", sorted(GADGETS))
    def test_gadget_faults_identically(self, kind):
        stream, offset = GADGETS[kind]
        runs = [run_gadget_jump(config, stream, offset)
                for config in ALL_MODES]
        observed = []
        for system, gadget_pc in runs:
            trap = system.cpu.last_trap
            assert system.machine.stats.halted
            assert system.cpu.trap_count == 1 and trap.pc == gadget_pc
            assert trap.kind is TrapKind.ISA_GRID_FAULT
            observed.append(dict(
                snapshot(system),
                trap=(trap.kind, trap.cause, type(trap.fault).__name__)))
        assert observed[1] == observed[0]
        assert observed[2] == observed[0]
        assert runs[0][0].pcu.block_stats.insts > 0


class TestSeededSummaryBug:
    """A summary that drops a member's class lets the probe authorize a
    block the domain may not run.  The ``block`` event names the classes
    from decode, not from the summary, so the monitor must catch it."""

    def test_reference_traps_on_the_first_push(self):
        runs = [run_restricted(config, STACK_LOOP, classes=NO_STACK)[0]
                for config in ALL_MODES]
        for system in runs:
            assert system.machine.stats.traps == 1
            assert system.cpu.last_trap.kind is TrapKind.ISA_GRID_FAULT
        assert snapshot(runs[0]) == snapshot(runs[1]) == snapshot(runs[2])

    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_seeded_summary_bug_is_caught(self, monkeypatch):
        monkeypatch.setattr(blocks, "summarize_classes",
                            summary_without_stack)
        silent, _ = run_restricted(CONFIG_8E, STACK_LOOP, classes=NO_STACK)
        # The bug: 20 denied pushes and 20 denied pops retire, no trap.
        assert silent.machine.stats.traps == 0
        assert silent.pcu.block_stats.insts >= 20 * 7
        monitor = ContractMonitor(seed=0)
        monitored, _ = run_restricted(CONFIG_8E, STACK_LOOP, classes=NO_STACK,
                                      monitor=monitor)
        assert monitored.machine.stats.traps == 0
        assert monitor.nonzero_counts() == {"inst_retirement": 40}
        assert monitor.unwaived_violations == 40


class TestRiscvIdentity:
    def test_three_way_bit_identity(self):
        blocky, off, slow = (run_riscv(config) for config in ALL_MODES)
        reference = snapshot(off)
        assert snapshot(blocky) == reference
        assert snapshot(slow) == reference
        assert blocky.pcu.block_stats.insts > 0
        assert off.pcu.block_stats.probes == 0
        assert slow.pcu.block_stats.probes == 0

    def test_escaping_exception_inside_a_block(self):
        # An out-of-range load is a simulator-level error that escapes
        # the run on the reference path; mid-block it must escape too,
        # with the retired prefix attributed identically.
        source = """
        entry:
            addi t0, x0, 1
            addi t1, x0, 2
            li t2, 0x40000000
        load:
            ld t3, 0(t2)
            halt
        """
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system = build_riscv_system(config)
            domain = system.manager.create_domain("all")
            system.manager.allow_all_instructions(domain.domain_id)
            program = riscv_assemble(source, base=RISCV_BASE)
            system.load(program)
            with pytest.raises(MemoryAccessError):
                system.run(program.symbol("entry"))
            snaps.append(dict(snapshot(system), pc=system.cpu.pc))
        assert snaps[0] == snaps[1]
        assert snaps[0]["pc"] == program.symbol("load")


class TestRiscvTranslationGate:
    """Blocks run whenever satp.MODE is Bare, whatever satp's other
    bits hold, and stay off under Sv39 — with the TLB counters, too,
    identical in all three modes."""

    def three_way(self, source):
        blocky, off, slow = (run_riscv(config, source)
                             for config in ALL_MODES)
        reference = paged_snapshot(off)
        assert paged_snapshot(blocky) == reference
        assert paged_snapshot(slow) == reference
        assert off.pcu.block_stats.probes == slow.pcu.block_stats.probes == 0
        return blocky

    def test_nonzero_bare_satp_keeps_blocks_on(self):
        source = PAGED_LOOP % {"satp": BARE_SATP, "data": DATA_PA}
        stats = self.three_way(source).pcu.block_stats
        # Only the instructions before ``paged`` ran before the write.
        assert stats.insts > instructions_before(source, "paged")
        assert stats.fallback_translated == 0

    def test_sv39_keeps_blocks_off(self):
        source = PAGED_LOOP % {"satp": SV39_SATP, "data": DATA_VA}
        blocky = self.three_way(source)
        before = instructions_before(source, "paged")
        stats = blocky.pcu.block_stats
        assert stats.insts <= before
        assert (stats.fallback_translated
                == blocky.machine.stats.instructions - before)
        # The stores really went through the non-identity mapping.
        assert blocky.machine.memory.load(DATA_PA, 8) == blocky.cpu.regs[6]

    def test_switching_between_bare_and_sv39_mid_run(self):
        stats = self.three_way(SWITCHING).pcu.block_stats
        assert stats.insts > 0
        assert stats.fallback_translated > 0

    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_seeded_gate_bug_is_caught(self, monkeypatch):
        # Mutation check for the Sv39 identity test: a gate that treats
        # every satp as Bare skips fetch translation inside blocks and
        # drops the data walks' cycles, and the snapshot must show it.
        source = PAGED_LOOP % {"satp": SV39_SATP, "data": DATA_VA}
        reference = paged_snapshot(run_riscv(BLOCK_OFF, source))
        monkeypatch.setattr(RiscvCpu, "_block_gate", bare_gate_mutant)
        mutant = run_riscv(CONFIG_8E, source)
        assert (mutant.pcu.block_stats.insts
                > instructions_before(source, "paged"))
        observed = paged_snapshot(mutant)
        assert observed["regs"] == reference["regs"]
        assert observed != reference

    @pytest.mark.parametrize("source", [
        PAGED_LOOP % {"satp": SV39_SATP, "data": DATA_VA},
        SWITCHING,
    ], ids=["sv39", "switching"])
    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_gate_read_only_on_entry_is_caught(self, monkeypatch, source):
        # Mutation check for re-reading the gate after each reference
        # step: the ``csrw satp`` that turns Sv39 on retires through
        # step(), and a gate read only on entry misses it.
        reference = paged_snapshot(run_riscv(BLOCK_OFF, source))
        mutant = seeded_mutant(blocks.run_blocks, "gate_open = gate()", "pass")
        monkeypatch.setattr(RiscvCpu, "run_blocks", mutant)
        observed = paged_snapshot(run_riscv(CONFIG_8E, source))
        assert observed["regs"] == reference["regs"]
        assert observed != reference


class TestStoreQueueWindow:
    """The O3 store-queue window survives a block: its members count
    toward STORE_QUEUE_WINDOW exactly as per-instruction retirements
    do, so hcrets takes the forwarding saving in neither or both."""

    @pytest.mark.parametrize("adds", [8, 40])
    def test_three_way_bit_identity(self, adds):
        # 8 adds keep hcrets inside the 32-instruction window, 40 push
        # it out.
        assert OutOfOrderPipelineModel.STORE_QUEUE_WINDOW == 32
        blocky, off, slow = (run_gate_call_loop(config, adds)
                             for config in ALL_MODES)
        reference = snapshot(off)
        assert snapshot(blocky) == reference
        assert snapshot(slow) == reference
        assert blocky.pcu.block_stats.insts >= 50 * (adds - 1)

    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_seeded_window_bug_is_caught(self, monkeypatch):
        # Mutation check: an executor that forgets to advance the
        # window when it settles an epoch lets hcrets forward from a
        # push 40 instructions back.
        reference = snapshot(run_gate_call_loop(BLOCK_OFF, 40))
        mutant = seeded_mutant(
            blocks._settle,
            "pipeline._instructions_since_push = isp + count", "pass")
        monkeypatch.setattr(blocks, "_settle", mutant)
        observed = snapshot(run_gate_call_loop(CONFIG_8E, 40))
        assert observed["instructions"] == reference["instructions"]
        assert observed["cycles"] < reference["cycles"]


class TestKernelWorkloadIdentity:
    """The gate-stress kernel exercises BYPASS-mode blocks: domain
    entries through gates, privilege revocations, ISA-Grid faults and
    syscalls interleave with straight-line user code."""

    ITERATIONS = 8
    MAX_STEPS = 1_000_000

    def run_kernel(self, kernel_class, user_program, config, monitor=None,
                   profile=None):
        if profile is None:
            profile = dataclasses.replace(GATE_STRESS,
                                          outer_iterations=self.ITERATIONS)
        kernel = kernel_class("decomposed", config)
        if monitor is not None:
            monitor.attach(kernel.system.pcu, kernel.system.manager)
        stats = kernel.run(user_program(profile), max_steps=self.MAX_STEPS)
        machine = kernel.system.machine
        hierarchy = machine.hierarchy
        predictor = machine.pipeline.predictor
        observed = {
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "traps": stats.traps,
            "pcu": kernel.system.pcu.stats.as_dict(),
            "syscalls": kernel.syscall_count,
            "faults": kernel.fault_count,
            **timing_stats(machine),
            "sets": [dict(level._sets) for level
                     in (hierarchy.l1i, hierarchy.l1d, *hierarchy.shared)],
            "predictor": (predictor._local, predictor._global,
                          predictor._chooser, predictor._history),
        }
        return observed, kernel

    def test_x86_gate_stress_three_way(self):
        results = {}
        for config in ALL_MODES:
            results[config.fast_path, config.block_summaries] = (
                self.run_kernel(X86Kernel, x86_user_program, config))
        reference = results[True, False][0]
        assert reference["faults"] == 0
        for key, (observed, _) in results.items():
            assert observed == reference, "mode %r diverged" % (key,)
        blocky = results[True, True][1]
        assert blocky.system.pcu.block_stats.coverage > 0.9
        assert results[True, False][1].system.pcu.block_stats.probes == 0

    def test_riscv_gate_stress_three_way(self):
        results = {}
        for config in ALL_MODES:
            results[config.fast_path, config.block_summaries] = (
                self.run_kernel(RiscvKernel, riscv_user_program, config))
        reference = results[True, False][0]
        assert reference["faults"] == 0
        for key, (observed, _) in results.items():
            assert observed == reference, "mode %r diverged" % (key,)
        # The kernel's mmap leaves a non-zero Bare satp behind, which
        # must not turn the executor off.
        stats = results[True, True][1].system.pcu.block_stats
        assert stats.coverage > 0.9
        assert stats.insts > 0.9 * reference["instructions"]

    def test_x86_app_three_way(self):
        # SQLite at 1/10 of its Figure-7 length copies through the
        # kernel's top-tested read/write loops, which run as loop
        # blocks whose je falls through to their first pc.
        app = APPLICATIONS[0]
        profile = dataclasses.replace(
            app, outer_iterations=app.outer_iterations // 10)
        results = {}
        for config in ALL_MODES:
            results[config.fast_path, config.block_summaries] = (
                self.run_kernel(X86Kernel, x86_user_program, config,
                                profile=profile))
        reference = results[True, False][0]
        assert reference["faults"] == 0
        for key, (observed, _) in results.items():
            assert observed == reference, "mode %r diverged" % (key,)
        kernel = results[True, True][1]
        read_loop = kernel.symbol("read_loop")
        assert any(block is not blocks.NO_BLOCK and block.loops
                   and read_loop in block.pcs
                   for block in kernel.system.cpu._block_cache.values())
        assert kernel.system.pcu.block_stats.steady

    @pytest.mark.parametrize("kernel_class, user_program", [
        (X86Kernel, x86_user_program),
        (RiscvKernel, riscv_user_program),
    ], ids=["x86", "riscv"])
    @pytest.mark.usefixtures("cold_shared_blocks")
    def test_seeded_warm_fetch_bugs_are_caught(self, monkeypatch, kernel_class,
                                               user_program):
        # A warm member skips the hierarchy call.  Two seeded bugs in
        # that shortcut must each move the compared cache statistics:
        # a former that forms every block's first member warm too, and
        # generated blocks that charge their warm hits but do not count
        # them.
        reference = self.run_kernel(kernel_class, user_program, BLOCK_OFF)[0]
        first_warm = seeded_mutant(blocks.form_block, "previous_line = None",
                                   "previous_line = start // line_bytes")
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "form_block", first_warm)
            observed = self.run_kernel(kernel_class, user_program, CONFIG_8E)[0]
        assert observed["caches"] != reference["caches"]
        blocks.shared_blocks.clear()  # drop the first mutant's blocks
        uncounted = seeded_mutant(
            blocks._generate,
            'tail.append("l1i_stats.hits += %d" % hits)', "pass")
        monkeypatch.setattr(blocks, "_generate", uncounted)
        observed = self.run_kernel(kernel_class, user_program, CONFIG_8E)[0]
        assert observed["cycles"] == reference["cycles"]
        assert observed["caches"] != reference["caches"]

    @pytest.mark.usefixtures("cold_shared_blocks")
    @pytest.mark.parametrize("kernel_class, user_program", [
        (X86Kernel, x86_user_program),
        (RiscvKernel, riscv_user_program),
    ], ids=["x86", "riscv"])
    def test_second_boot_reuses_every_block(self, kernel_class, user_program):
        # A second boot of the same kernel and program forms no block:
        # every block it runs is one the first boot formed.  It still
        # reads exactly like a run without blocks.
        first = self.run_kernel(kernel_class, user_program, CONFIG_8E)[1]
        formed = set(map(id, first.system.cpu._block_cache.values()))
        observed, second = self.run_kernel(kernel_class, user_program,
                                           CONFIG_8E)
        ran = [block for block in second.system.cpu._block_cache.values()
               if block is not blocks.NO_BLOCK]
        assert ran and all(id(block) in formed for block in ran)
        assert second.system.pcu.block_stats.coverage > 0.9
        reference = self.run_kernel(kernel_class, user_program, BLOCK_OFF)[0]
        assert observed == reference

    @pytest.mark.parametrize("kernel_class, user_program", [
        (X86Kernel, x86_user_program),
        (RiscvKernel, riscv_user_program),
    ], ids=["x86", "riscv"])
    def test_blocks_under_the_monitor(self, kernel_class, user_program):
        # Blocks run under an armed contract tap, one ``block`` event
        # each.  Blocks on and off give identical results, and each
        # block event expanded into its members' checks gives exactly
        # the blocks-off stream.
        runs = []
        for config in (CONFIG_8E, BLOCK_OFF):
            monitor = ContractMonitor(seed=0, record=True)
            observed, kernel = self.run_kernel(
                kernel_class, user_program, config, monitor=monitor)
            assert monitor.total_violations == 0
            assert 0 < monitor.memo_hits < monitor.events_seen
            runs.append((observed, expanded_stream(monitor.recorded),
                         kernel.system.pcu.block_stats))
        (blocky, blocky_stream, stats), (off, off_stream, _) = runs
        assert blocky == off
        assert blocky_stream == off_stream
        assert stats.coverage > 0.9


class Loop(NamedTuple):
    """An ISA's builder, assembler and load address, and two versions of
    its loop program that differ only in the loop count, which the block
    at ``entry`` (the load address) holds."""

    build: object
    assemble: object
    base: int
    old: str
    new: str


LOOPS = {
    "x86": Loop(build_x86_system, x86_assemble, X86_BASE,
                X86_LOOP, X86_LOOP.replace("mov rcx, 40", "mov rcx, 30")),
    "riscv": Loop(build_riscv_system, riscv_assemble, RISCV_BASE,
                  RISCV_LOOP, RISCV_LOOP.replace("li t0, 40", "li t0, 30")),
}


def load_loop(isa, config, source):
    """A system of ``isa`` with ``source`` loaded, in a domain granted
    every instruction."""
    loop = LOOPS[isa]
    system = loop.build(config)
    domain = system.manager.create_domain("all")
    system.manager.allow_all_instructions(domain.domain_id)
    program = loop.assemble(source, base=loop.base)
    system.load(program)
    return system, program


def run_loop(isa, config, source):
    system, program = load_loop(isa, config, source)
    system.run(program.symbol("entry"))
    return system


def run_stale(isa, config):
    """Run the old loop without blocks, store the new one over it
    without a flush, and run again with blocks on: the CPU's decode
    cache still holds the old loop, so both runs execute it."""
    loop = LOOPS[isa]
    system, program = load_loop(isa, config, loop.old)
    system.machine.block_summaries = False
    system.run(program.symbol("entry"))
    loop.assemble(loop.new, base=loop.base).load(system.machine.memory)
    system.machine.block_summaries = True
    system.run(program.symbol("entry"))
    return system


@pytest.mark.usefixtures("cold_shared_blocks")
@pytest.mark.parametrize("isa", sorted(LOOPS))
class TestSharedBlocks:
    """A compiled block serves every CPU that would form it again from
    the same bytes and decode entries (DESIGN §3.18 "Shared blocks"),
    and no other.  Each seeded bug in that proof must fail a test."""

    def reform(self, isa):
        """The new loop's run after the old one's, and its reference."""
        loop = LOOPS[isa]
        first = run_loop(isa, CONFIG_8E, loop.old)
        second = run_loop(isa, CONFIG_8E, loop.new)
        return first, second, snapshot(run_loop(isa, BLOCK_OFF, loop.new))

    def test_different_bytes_reform_the_block(self, isa):
        first, second, reference = self.reform(isa)
        entry = LOOPS[isa].base
        formed = first.cpu._block_cache[entry]
        assert formed is not blocks.NO_BLOCK
        assert second.cpu._block_cache[entry] is not formed
        assert snapshot(second) == reference

    def test_seeded_byte_check_bug_is_caught(self, monkeypatch, isa):
        monkeypatch.setattr(blocks, "_reusable", seeded_mutant(
            blocks._reusable, "if load(first, len(code)) != code:",
            "if False:"))
        _, second, reference = self.reform(isa)
        assert snapshot(second) != reference

    def stale(self, isa):
        """The stale run with blocks on and off, after a run of the new
        loop has shared its blocks."""
        run_loop(isa, CONFIG_8E, LOOPS[isa].new)
        return run_stale(isa, CONFIG_8E), run_stale(isa, BLOCK_OFF)

    def test_stale_decode_cache_runs_the_stale_instruction(self, isa):
        blocky, off = self.stale(isa)
        assert snapshot(blocky) == snapshot(off)
        old = run_loop(isa, BLOCK_OFF, LOOPS[isa].old).machine.stats
        assert off.machine.stats.instructions == 2 * old.instructions
        assert blocky.pcu.block_stats.insts > 0

    def test_seeded_decode_cache_check_bug_is_caught(self, monkeypatch, isa):
        monkeypatch.setattr(blocks, "_reusable", seeded_mutant(
            blocks._reusable, "if held is not None and held[0] != inst:",
            "if False:"))
        blocky, off = self.stale(isa)
        assert snapshot(blocky) != snapshot(off)

    def after_stale(self, isa):
        """A run of the new loop after a stale run formed blocks from
        the old loop's decode entries over the new loop's bytes, and its
        reference."""
        run_stale(isa, CONFIG_8E)
        new = LOOPS[isa].new
        return (snapshot(run_loop(isa, CONFIG_8E, new)),
                snapshot(run_loop(isa, BLOCK_OFF, new)))

    def test_blocks_formed_from_a_stale_decode_cache_are_not_shared(self, isa):
        observed, reference = self.after_stale(isa)
        assert observed == reference

    def test_seeded_sharing_bug_is_caught(self, monkeypatch, isa):
        monkeypatch.setattr(blocks, "form_block", seeded_mutant(
            blocks.form_block, "shareable = _decodes_to(cpu, pc, entry[0])",
            "pass"))
        observed, reference = self.after_stale(isa)
        assert observed != reference


#: An x86 loop whose block follows ``jmp far``: its code is two
#: stretches, and the two versions differ only in the second.
STRETCHED = """
entry:
    mov rcx, 20
    .align 64
loop:
    add rax, 1
    jmp far
    .align 64
far:
    add rbx, %d
    sub rcx, 1
    jne loop
    hlt
"""


@pytest.mark.usefixtures("cold_shared_blocks")
class TestStretchedBlocks:
    """A block that follows a jump is reused only where every stretch
    of its code reads as formation read it."""

    def run(self, increment, config=CONFIG_8E):
        return run_x86(config, STRETCHED % increment)

    def test_a_changed_second_stretch_reforms_the_block(self):
        first = self.run(2)
        loop = x86_assemble(STRETCHED % 2, base=X86_BASE).symbol("loop")
        formed = first.cpu._block_cache[loop]
        assert formed.loops and len(formed.code) == 2
        second = self.run(3)
        assert second.cpu._block_cache[loop] is not formed
        assert snapshot(second) == snapshot(self.run(3, BLOCK_OFF))

    def test_seeded_first_stretch_only_bug_is_caught(self, monkeypatch):
        monkeypatch.setattr(blocks, "_reusable", seeded_mutant(
            blocks._reusable, "for first, code in block.code:",
            "for first, code in block.code[:1]:"))
        self.run(2)
        assert snapshot(self.run(3)) != snapshot(self.run(3, BLOCK_OFF))


@pytest.mark.parametrize("isa", sorted(LOOPS))
class TestRerunPastAHalt:
    """A run that exhausts its budget fails alike on both loops, also
    when an earlier run on the same machine halted: each loop decides
    from whether this run halted, not from the flag the last one left."""

    #: The line of ``Machine.run`` that decides the block path's return.
    DECISION = "if run_blocks(max_steps, stats, self.pipeline.instruction_cycles):"

    def rerun(self, isa, config, **options):
        """Run the loop to its halt, then again from ``entry`` with a
        budget of 100 instructions."""
        system, program = load_loop(isa, config, LOOPS[isa].old)
        system.run(program.symbol("entry"))
        assert system.machine.stats.halted
        system.cpu.pc = program.symbol("entry")
        system.machine.run(100, **options)
        return system

    @pytest.mark.parametrize("config", [CONFIG_8E, BLOCK_OFF],
                             ids=["blocks", "per-instruction"])
    def test_rerun_raises(self, isa, config):
        with pytest.raises(SimulationLimitExceeded):
            self.rerun(isa, config)

    def test_loops_agree_without_require_halt(self, isa):
        blocky, off = (self.rerun(isa, config, require_halt=False)
                       for config in (CONFIG_8E, BLOCK_OFF))
        assert snapshot(blocky) == snapshot(off)
        assert blocky.pcu.block_stats.insts > 0

    def test_seeded_sticky_halt_bug_is_caught(self, monkeypatch, isa):
        monkeypatch.setattr(Machine, "run", seeded_mutant(
            Machine.run, self.DECISION,
            self.DECISION.replace("):", ") or stats.halted:")))
        # The bug: the rerun returns as though it had halted.
        system = self.rerun(isa, CONFIG_8E)
        first = run_loop(isa, BLOCK_OFF, LOOPS[isa].old).machine.stats
        assert system.machine.stats.instructions == first.instructions + 100


#: The same straight-line block, ``body``, runs three times in one run:
#: in domain 0, in ``granted`` (every class) entered through ``g0``, and
#: in ``denied`` (every class but ``DENIED[isa]``) entered through
#: ``g1``, where that class traps into ``handler``, which halts.
THREE_VERDICTS = {
    "x86": """
entry:
    mov rsp, 0x6e0000
    mov rax, %(idt)d
    mov rbx, handler
    mov [rax+%(vector)d], rbx
    mov rbx, %(idt)d
    mov rcx, 0x610000
    mov [rcx+0], rbx
    mov rbx, 4095
    mov [rcx+8], rbx
    lidt [rcx+0]
    call body
    mov r10, 0
g0:
    hccall r10
granted:
    call body
    mov r10, 1
g1:
    hccall r10
denied:
    call body
    hlt
body:
    mov rax, 5
    add rax, 7
    push rax
    pop rbx
    ret
handler:
    mov rdi, 99
    hlt
""" % {"idt": IDT_BASE, "vector": 8 * VEC_ISA_GRID},
    "riscv": """
entry:
    la t0, handler
    csrw stvec, t0
    jal ra, body
    li t0, 0
g0:
    hccall t0
granted:
    jal ra, body
    li t0, 1
g1:
    hccall t0
denied:
    jal ra, body
    halt
body:
    addi t1, t1, 3
    mul t2, t1, t1
    add t3, t2, t1
    ret
handler:
    li a0, 99
    halt
""",
}
DENIED = {"x86": "stack", "riscv": "mul"}


def run_three_verdicts(isa, config, monitor=None):
    """Run ``THREE_VERDICTS[isa]``, with ``monitor`` attached if given;
    return the system and the verdicts of the probes of ``body``."""
    loop = LOOPS[isa]
    system = loop.build(config)
    manager = system.manager
    granted = manager.create_domain("granted")
    manager.allow_all_instructions(granted.domain_id)
    denied = manager.create_domain("denied")
    manager.allow_all_instructions(denied.domain_id)
    manager.deny_instruction(denied.domain_id, DENIED[isa])
    program = loop.assemble(THREE_VERDICTS[isa], base=loop.base)
    system.load(program)
    for at, target, domain in (("g0", "granted", granted),
                               ("g1", "denied", denied)):
        manager.register_gate(program.symbol(at), program.symbol(target),
                              domain.domain_id)
    if monitor is not None:
        monitor.attach(system.pcu, manager)
    body = program.symbol("body")
    probe = system.pcu.check_block_summary
    verdicts = []

    def recording_probe(summary):
        verdict = probe(summary)
        if system.cpu.pc == body:
            verdicts.append(verdict)
        return verdict

    system.pcu.check_block_summary = recording_probe
    system.run(program.symbol("entry"), max_steps=10_000)
    return system, verdicts


@pytest.mark.parametrize("isa", sorted(LOOPS))
class TestOneBlockUnderThreeVerdicts:
    """A block proven in one epoch is proven again in the next: the
    same block runs under ``BLOCK_DOMAIN0``, then ``BLOCK_BYPASS``, then
    a refusal, in one ``Machine.run``, exactly as without blocks."""

    def test_three_way_bit_identity(self, isa):
        (blocky, verdicts), (off, _), (slow, _) = (
            run_three_verdicts(isa, config) for config in ALL_MODES)
        assert verdicts == [BLOCK_DOMAIN0, BLOCK_BYPASS, BLOCK_REFUSED]
        reference = snapshot(off)
        assert reference["halted"] and reference["traps"] == 1
        assert off.cpu.last_trap.kind is TrapKind.ISA_GRID_FAULT
        assert snapshot(blocky) == reference
        assert snapshot(slow) == reference

    def test_a_class_refusal_steps_through_the_block(self, isa):
        # ``denied`` lacks a class of ``body``: its probe refuses once,
        # and the members before the trapping one take reference steps
        # with nothing formed or probed at their pcs.
        system, _ = run_three_verdicts(isa, CONFIG_8E)
        stats = system.pcu.block_stats
        assert stats.refused_class == 1
        body = system.cpu._block_cache[
            LOOPS[isa].assemble(THREE_VERDICTS[isa],
                                base=LOOPS[isa].base).symbol("body")]
        assert not any(pc in system.cpu._block_cache for pc in body.pcs[1:])

    def test_monitored_streams_agree(self, isa):
        streams = []
        for config in (CONFIG_8E, BLOCK_OFF):
            monitor = ContractMonitor(seed=0, record=True)
            run_three_verdicts(isa, config, monitor)
            assert monitor.total_violations == 0
            streams.append(expanded_stream(monitor.recorded))
        assert streams[0] == streams[1]

    def test_seeded_uncleared_proof_is_caught(self, monkeypatch, isa):
        # A proven set that outlives its epoch replays the block under
        # domain 0's verdict in both other domains: no bypass hits in
        # ``granted``, and no trap in ``denied``.
        reference = snapshot(run_three_verdicts(isa, BLOCK_OFF)[0])
        mutant = seeded_mutant(blocks.run_blocks, "proven.clear()", "pass")
        for cpu_class in (X86Cpu, RiscvCpu):
            monkeypatch.setattr(cpu_class, "run_blocks", mutant)
        system, verdicts = run_three_verdicts(isa, CONFIG_8E)
        assert verdicts == [BLOCK_DOMAIN0]
        observed = snapshot(system)
        assert observed["traps"] == 0
        assert observed["pcu"] != reference["pcu"]
