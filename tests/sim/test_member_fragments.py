"""Every block-member mnemonic, run in a generated block and compared
with ``step()`` (DESIGN §3.18 "Generated blocks").

A block's generated function writes the hot mnemonics' semantics
inline and calls the handler of every other member; this suite is what
ties each inline fragment to its handler.  It takes the mnemonics from
the decoders' class tables (``x86.encoding._CLASS``,
``riscv.encoding._CLASS_BY_MNEMONIC``) and keeps those each CPU's
``_block_member`` admits, so a mnemonic added to a decoder joins with
no second list.  Each one runs with drawn operands and register values
in a loop whose second block runs it as a warm member, then as a
one-member block whose results the run ends with (on x86 twice, after
every flag is set one way and then the other, so a dropped flag write
shows whatever the operands), and, for each family that touches
memory, with an access that faults as its block's first or third
member: inside trusted memory from domain 1 (the trap path), across
that memory's lower edge, and past the end of physical memory (an
escaping ``MemoryAccessError``).  Blocks on and off must agree on the
outcome, pc, registers, flags, memory, instructions, cycles, traps,
every cache level, the branch statistics and ``PcuStats``.  A seeded
``cmp`` fragment that drops its carry write must be caught.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CONFIG_8E, TrustedMemoryFault
from repro.riscv import (
    KERNEL_BASE as RISCV_BASE,
    TRUSTED_BASE as RISCV_TRUSTED_BASE,
    assemble as riscv_assemble,
    build_riscv_system,
)
from repro.riscv import encoding as riscv_encoding
from repro.riscv.cpu import CpuPanic as RiscvPanic
from repro.sim import MemoryAccessError, SimulationLimitExceeded, TrapKind, blocks
from repro.x86 import (
    IDT_BASE,
    KERNEL_BASE as X86_BASE,
    TRUSTED_BASE as X86_TRUSTED_BASE,
    assemble as x86_assemble,
    build_x86_system,
)
from repro.x86 import cpu as x86_cpu
from repro.x86 import encoding as x86_encoding

from ..profiles import NIGHTLY_SCALE, PROFILE
from .test_block_executor import seeded_mutant, timing_stats

BLOCK_OFF = dataclasses.replace(CONFIG_8E, block_summaries=False)

#: Drawn examples per mnemonic: a few in tier-1, ten times that nightly.
EXAMPLES = 3 * (NIGHTLY_SCALE if PROFILE == "nightly" else 1)

#: Loop iterations.
ITERATIONS = 3

#: Past the end of physical memory on both ISAs.
OUT_OF_RANGE = 1 << 40

REGISTER_VALUES = st.one_of(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.sampled_from([0, 1, 2, 63, 64, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]),
)


def x86_members():
    """The x86 mnemonics ``X86Cpu._block_member`` admits, from a decode
    entry of each mnemonic of the decoder's class table."""
    cpu = build_x86_system(CONFIG_8E).cpu
    members = set()
    for mnemonic, inst_class in x86_encoding._CLASS.items():
        inst = x86_encoding.Instruction(mnemonic, inst_class, 1)
        with mock.patch.object(x86_cpu, "decode", lambda window: inst):
            entry = cpu._decode_entry(X86_BASE)
        if cpu._block_member(entry, X86_BASE, repr) is not None:
            members.add(mnemonic)
    return members


def riscv_members():
    """The RISC-V mnemonics ``RiscvCpu._block_member`` admits, from a
    decode entry of each mnemonic of the decoder's class table."""
    system = build_riscv_system(CONFIG_8E)
    members = set()
    for mnemonic in riscv_encoding._CLASS_BY_MNEMONIC:
        system.machine.memory.store(RISCV_BASE, riscv_encoding.encode(mnemonic),
                                    4)
        entry = system.cpu._decode_entry(RISCV_BASE)
        if system.cpu._block_member(entry, RISCV_BASE, repr) is not None:
            members.add(mnemonic)
    return members


X86_MEMBERS = sorted(x86_members())
RISCV_MEMBERS = sorted(riscv_members())


def state(system, outcome):
    """Everything the two loops must agree on."""
    cpu, machine = system.cpu, system.machine
    stats = machine.stats
    trap = cpu.last_trap
    if hasattr(cpu, "zf"):
        flags = (cpu.zf, cpu.cf, cpu.sf_lt, cpu.ring)
    else:
        flags = (cpu.mode, tuple(sorted(cpu.csrs.items())))
    return {
        "outcome": outcome,
        "pc": cpu.pc,
        "regs": tuple(cpu.regs),
        "flags": flags,
        "trap": None if trap is None else (trap.kind, trap.cause, trap.pc),
        "memory": {number: bytes(page)
                   for number, page in machine.memory._pages.items()},
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "traps": stats.traps,
        "halted": stats.halted,
        "pcu": system.pcu.stats.as_dict(),
        **timing_stats(machine),
    }


ISAS = {
    "x86": (build_x86_system, x86_assemble, X86_BASE),
    "riscv": (build_riscv_system, riscv_assemble, RISCV_BASE),
}


def run(isa, config, source, gates=()):
    """Run ``source`` from ``entry`` on a fresh system; ``gates`` are
    (site, target) labels of gates into a domain granted every
    instruction."""
    build, assemble, base = ISAS[isa]
    system = build(config)
    manager = system.manager
    domain = manager.create_domain("all")
    manager.allow_all_instructions(domain.domain_id)
    program = assemble(source, base=base)
    system.load(program)
    for site, target in gates:
        manager.register_gate(program.symbol(site), program.symbol(target),
                              domain.domain_id)
    system.cpu.pc = program.symbol("entry")
    try:
        system.machine.run(2000)
        outcome = None
    except (MemoryAccessError, SimulationLimitExceeded, RiscvPanic,
            x86_cpu.CpuPanic, TrustedMemoryFault) as error:
        outcome = type(error).__name__
    return system, program, state(system, outcome)


def compare(isa, source, gates=()):
    """Run ``source`` with blocks on and off, which must agree; return
    the blocks-on system and program."""
    system, program, observed = run(isa, CONFIG_8E, source, gates)
    assert observed == run(isa, BLOCK_OFF, source, gates)[2]
    assert system.pcu.block_stats.insts > 0
    return system, program


#: Both ISAs' per-mnemonic program after the prologue.  Each ``%(X)s``
#: copy of the mnemonic continues at label ``X``: in a loop, once as the
#: first member of a block and once behind a ``nop``, warm; then as a
#: one-member block between two non-members, whose results the run
#: ends with.  ``prefix_X`` runs before copy ``X``, ahead of the barrier
#: for the last.
MEMBER_PROGRAM = """    %(counter)s
loop:
%(prefix_first)s
    %(first)s
first:
    nop
%(prefix_second)s
    %(second)s
second:
    %(next)s
%(prefix_one_done)s
    %(barrier)s
one:
    %(one_done)s
one_done:
    %(halt)s
handler:
    %(halt)s
"""


def member_program(form, prefix, **fields):
    """:data:`MEMBER_PROGRAM` with ``form`` and ``prefix`` formatted for
    each copy's continuation label."""
    for target in ("one_done", "first", "second"):
        fields[target] = form(target)
        fields["prefix_" + target] = "    " + prefix(target) if prefix(target) else ""
    return MEMBER_PROGRAM % fields


# ----------------------------------------------------------------------
# x86 programs.
# ----------------------------------------------------------------------
#: Registers drawn as operands; ``rsp`` is the stack, ``r14`` holds the
#: address ``ret`` returns to, and ``r15`` is the loop counter.
X86_POOL = ("rax", "rcx", "rdx", "rbx", "rbp", "rsi", "rdi", "r8", "r9",
            "r10", "r11", "r12", "r13")
#: ``[base+disp]`` needs a SIB byte for rsp and r12.
X86_BASES = tuple(r for r in X86_POOL if r != "r12")
X86_STACK = 0x6E0000
X86_DATA = 0x620000

#: Each member mnemonic as assembly: ``{a}``/``{b}`` are drawn
#: registers, ``{base}`` holds the data address, and ``{target}`` is the
#: label after the instruction.
X86_FORMS = {
    "nop": "nop",
    "mov_imm": "mov {a}, {imm64}",
    "mov_rr": "mov {a}, {b}",
    "mov_load": "mov {a}, [{base}{disp:+d}]",
    "mov_store": "mov [{base}{disp:+d}], {b}",
    "lea": "lea {a}, [{base}{disp:+d}]",
    **{m: m + " {a}, {b}"
       for m in ("add", "sub", "and", "or", "xor", "cmp", "test")},
    **{m + "_imm": m + " {a}, {imm32}"
       for m in ("add", "sub", "and", "or", "xor", "cmp")},
    **{m: m + " {a}, {shift}" for m in ("shl", "shr", "sar")},
    **{m: m + " {a}" for m in ("mul", "imul", "div", "idiv", "inc", "dec",
                               "neg", "not")},
    "xchg": "xchg {a}, {b}",
    "push": "push {b}",
    "pop": "pop {a}",
    **{m: m + " {target}" for m in ("jmp", "je", "jne", "jl", "jge", "jb",
                                    "jae", "jbe", "ja", "jle", "jg", "call")},
    "ret": "ret",
}

#: What runs before each copy: a conditional branch reads the flags of
#: a drawn ``cmp``, and ``ret`` returns to the address pushed for it.
X86_PREFIX = {
    **{m: "cmp {a}, {b}" for m in ("je", "jne", "jl", "jge", "jb", "jae",
                                   "jbe", "ja", "jle", "jg")},
    "ret": "mov r14, {target}\n    push r14",
}

#: The vectors the x86 programs point at ``handler``, which halts.
X86_VECTORS = (0, x86_cpu.VEC_UD, x86_cpu.VEC_GP, x86_cpu.VEC_ISA_GRID,
               x86_cpu.VEC_TRUSTED_MEMORY)

X86_PROLOGUE = """
entry:
    mov rsp, %d
%s
    mov rbx, %d
    mov rcx, 0x610000
    mov [rcx+0], rbx
    mov rbx, 4095
    mov [rcx+8], rbx
    lidt [rcx+0]
""" % (X86_STACK, "\n".join(
    "    mov rax, %d\n    mov rbx, handler\n    mov [rax+%d], rbx"
    % (IDT_BASE, 8 * vector) for vector in X86_VECTORS), IDT_BASE)


@st.composite
def x86_operands(draw):
    a = draw(st.sampled_from(X86_POOL))
    b = draw(st.sampled_from(X86_POOL))
    return {
        "a": a,
        "b": b,
        "base": draw(st.sampled_from(X86_BASES)),
        "disp": draw(st.integers(min_value=-64, max_value=64)),
        "imm64": draw(st.integers(min_value=-(1 << 63),
                                  max_value=(1 << 64) - 1)),
        "imm32": draw(st.integers(min_value=-(1 << 31),
                                  max_value=(1 << 31) - 1)),
        "shift": draw(st.integers(min_value=0, max_value=63)),
        # The registers a mnemonic reads: its operands, and rax and rdx
        # for mul and div.  The others stay zero.
        "values": {reg: draw(REGISTER_VALUES)
                   for reg in sorted({a, b, "rax", "rdx"})},
    }


def x86_program(mnemonic, operands, carry):
    """The drawn registers' values, with the base register on the data,
    then :data:`MEMBER_PROGRAM` with ``cli`` (never a member) as the
    barrier.  Before the last copy, ``cmp r15, carry`` (``r15`` is 0)
    sets every flag one way or the other, so running both ``carry``
    values shows a flag write the last copy drops, whatever it
    computes."""
    values = "".join("    mov %s, %d\n" % item
                     for item in operands["values"].items())
    prefix = X86_PREFIX.get(mnemonic, "")
    return X86_PROLOGUE + values + "    mov %s, %d\n" % (
        operands["base"], X86_DATA) + member_program(
        lambda target: X86_FORMS[mnemonic].format(target=target, **operands),
        lambda target: prefix.format(target=target, **operands),
        barrier="cli", counter="mov r15, %d" % ITERATIONS,
        next="sub r15, 1\n    jne loop\n    cmp r15, %d" % carry, halt="hlt")


# ----------------------------------------------------------------------
# RISC-V programs.
# ----------------------------------------------------------------------
#: ``x26`` holds the address ``jalr`` jumps to and ``x27`` is the loop
#: counter; every other register, ``x0`` included, may be an operand.
RISCV_POOL = tuple(r for r in range(32) if r not in (26, 27))
RISCV_DATA = 0x620000


def riscv_immediate(mnemonic, draw):
    """A drawn immediate that ``encode`` accepts for ``mnemonic``."""
    if mnemonic in ("lui", "auipc"):
        return draw(st.integers(min_value=-(1 << 19),
                                max_value=(1 << 19) - 1)) << 12
    if mnemonic in riscv_encoding._OP_IMM_SHIFT:
        return draw(st.integers(min_value=0, max_value=63))
    if mnemonic in riscv_encoding._OP_IMM_32_SHIFT:
        return draw(st.integers(min_value=0, max_value=31))
    if riscv_encoding.instruction_class(mnemonic) in ("load", "store"):
        return draw(st.integers(min_value=-64, max_value=64))
    return draw(st.integers(min_value=-2048, max_value=2047))


@st.composite
def riscv_operands(draw, mnemonic):
    registers = [draw(st.sampled_from(RISCV_POOL)) for _ in range(3)]
    return {
        **dict(zip(("rd", "rs1", "rs2"), registers)),
        "imm": riscv_immediate(mnemonic, draw),
        "base": draw(st.sampled_from(RISCV_POOL[1:])),
        # The registers a mnemonic reads or writes; the others stay zero.
        "values": {reg: draw(REGISTER_VALUES)
                   for reg in sorted(set(registers) - {0})},
    }


def riscv_word(mnemonic, operands):
    """``mnemonic`` encoded with the drawn operands, continuing at the
    next instruction: a branch or ``jal`` jumps there, ``jalr`` jumps
    through ``x26``, and a load or store addresses from the base."""
    fields = {name: operands[name] for name in ("rd", "rs1", "rs2", "imm")}
    inst_class = riscv_encoding.instruction_class(mnemonic)
    if inst_class == "branch" or mnemonic == "jal":
        fields["imm"] = 4
    elif mnemonic == "jalr":
        fields.update(rs1=26, imm=0)
    elif inst_class in ("load", "store"):
        fields["rs1"] = operands["base"]
    return riscv_encoding.encode(mnemonic, **fields)


def riscv_program(mnemonic, operands):
    """As :func:`x86_program`, with ``wfi`` as the barrier; ``jalr``
    jumps to the address loaded into ``x26`` before it."""
    values = "".join("    li x%d, %d\n" % item
                     for item in operands["values"].items())
    word = ".word %d" % riscv_word(mnemonic, operands)
    return """
entry:
    la t0, handler
    csrw stvec, t0
%s    li x%d, %d
""" % (values, operands["base"], RISCV_DATA) + member_program(
        lambda target: word,
        lambda target: "la x26, %s" % target if mnemonic == "jalr" else "",
        barrier="wfi", counter="li x27, %d" % ITERATIONS,
        next="addi x27, x27, -1\n    bnez x27, loop", halt="halt")


# ----------------------------------------------------------------------
# The per-mnemonic comparison.
# ----------------------------------------------------------------------
def check_member(isa, source):
    """Blocks on and off agree, and the last copy, if the run reached
    it, formed a one-member block."""
    system, program = compare(isa, source)
    block = system.cpu._block_cache.get(program.symbol("one"))
    assert block is None or block.n == 1


def test_the_tables_name_every_member():
    # 46 x86 and 64 RISC-V mnemonics are members today; a new x86 one
    # needs a form here, and a RISC-V one joins the draws by itself.
    assert set(X86_FORMS) == set(X86_MEMBERS)
    assert len(X86_MEMBERS) == 46
    assert len(RISCV_MEMBERS) == 64


@pytest.mark.parametrize("mnemonic", X86_MEMBERS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_x86_member_matches_step(mnemonic, data):
    operands = data.draw(x86_operands())
    for carry in (0, 1):
        check_member("x86", x86_program(mnemonic, operands, carry))


@pytest.mark.parametrize("mnemonic", RISCV_MEMBERS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_riscv_member_matches_step(mnemonic, data):
    check_member("riscv", riscv_program(
        mnemonic, data.draw(riscv_operands(mnemonic))))


# ----------------------------------------------------------------------
# A fault in each family that touches memory.
# ----------------------------------------------------------------------
#: x86 members that touch memory: the register that holds the faulting
#: address, and the instruction.
X86_MEMORY = {
    "mov_load": ("rbx", "mov rax, [rbx+0]"),
    "mov_store": ("rbx", "mov [rbx+0], rax"),
    "push": ("rsp", "push rax"),
    "pop": ("rsp", "pop rax"),
    "call": ("rsp", "call done"),
    "ret": ("rsp", "ret"),
}
RISCV_MEMORY = [m for m in RISCV_MEMBERS
                if riscv_encoding.instruction_class(m) in ("load", "store")]

#: Where an access faults: inside trusted memory, across its lower edge
#: (the first byte below it, the last in it), or past the end of
#: physical memory.
PLACES = ("trusted", "edge", "out_of_range")


def fault_address(place, trusted_base, width):
    return {"trusted": trusted_base + 64,
            "edge": trusted_base - width // 2,
            "out_of_range": OUT_OF_RANGE}[place]


def x86_fault_program(mnemonic, place, position):
    register, form = X86_MEMORY[mnemonic]
    address = fault_address(place, X86_TRUSTED_BASE, 8)
    if mnemonic in ("push", "call"):
        address += 8  # they store below rsp
    filler = "".join(["    mov rdx, 1\n", "    add rdx, 2\n"][:position])
    return X86_PROLOGUE + """
    mov r10, 0
g0:
    hccall r10
attack:
    mov %s, %d
    cli
%smember:
    %s
done:
    hlt
handler:
    hlt
""" % (register, address, filler, form)


def riscv_fault_program(mnemonic, place, position):
    address = fault_address(place, RISCV_TRUSTED_BASE,
                            riscv_encoding.load_width(mnemonic))
    filler = "".join(["    addi t1, t1, 1\n", "    addi t1, t1, 2\n"][:position])
    return """
entry:
    la t0, handler
    csrw stvec, t0
    li t0, 0
g0:
    hccall t0
attack:
    li x6, %d
    li x7, 0x1122334455667788
    wfi
%smember:
    .word %d
    halt
handler:
    halt
""" % (address, filler, riscv_encoding.encode(mnemonic, rd=5, rs1=6, rs2=7))


def x86_escaping_rsp(mnemonic, place):
    """rsp as the x86 stack member ``mnemonic`` faults at ``place``, when
    the trap frame, the 16 bytes below it, reaches trusted memory; else
    ``None``."""
    if X86_MEMORY[mnemonic][0] != "rsp" or place == "out_of_range":
        return None
    rsp = fault_address(place, X86_TRUSTED_BASE, 8)
    if mnemonic in ("push", "call"):
        rsp += 8
    return rsp if rsp - 1 >= X86_TRUSTED_BASE else None


def check_fault(isa, mnemonic, place, position):
    """The faulting member at ``position`` of its block, in domain 1:
    both loops agree, an access that reaches trusted memory traps as a
    trusted-memory fault, and one past the end of memory escapes with
    pc on the member.  On x86 a trap frame that would reach trusted
    memory faults as it is pushed, and escapes the run unwritten."""
    build = x86_fault_program if isa == "x86" else riscv_fault_program
    system, program = compare(isa, build(mnemonic, place, position),
                              gates=[("g0", "attack")])
    stats = system.machine.stats
    rsp = x86_escaping_rsp(mnemonic, place) if isa == "x86" else None
    if place == "out_of_range":
        assert not stats.halted and stats.traps == 0
        assert system.cpu.pc == program.symbol("member")
    elif rsp is not None:
        assert not stats.halted and stats.traps == 0
        assert system.cpu.last_trap.kind is TrapKind.TRUSTED_MEMORY_FAULT
        assert system.cpu.last_trap.pc == program.symbol("member")
        assert system.pcu.stats.total_faults == 2
        assert system.cpu.regs[4] == rsp
    else:
        assert stats.halted and stats.traps == 1
        assert system.cpu.last_trap.kind is TrapKind.TRUSTED_MEMORY_FAULT
        assert system.cpu.last_trap.pc == program.symbol("member")


@pytest.mark.parametrize("position", [0, 2], ids=["first", "third"])
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("mnemonic", sorted(X86_MEMORY))
def test_x86_memory_fault(mnemonic, place, position):
    check_fault("x86", mnemonic, place, position)


@pytest.mark.parametrize("position", [0, 2], ids=["first", "third"])
@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("mnemonic", RISCV_MEMORY)
def test_riscv_memory_fault(mnemonic, place, position):
    check_fault("riscv", mnemonic, place, position)


# ----------------------------------------------------------------------
# Seeded mutant.
# ----------------------------------------------------------------------
def test_seeded_cmp_without_carry_is_caught(monkeypatch):
    # A cmp fragment that leaves cf as it was.  With rax < rbx the
    # reference sets cf, which ``cmp r15, 0`` cleared, and the flags
    # compared must differ; sub, which shares the line, is left whole.
    monkeypatch.setattr(blocks, "shared_blocks", blocks.SharedBlocks())
    monkeypatch.setattr(x86_cpu, "_member_fragment", seeded_mutant(
        x86_cpu._member_fragment, '"cpu.cf = a < %s" % operand,',
        '"pass" if base == "cmp" else "cpu.cf = a < %s" % operand,'))
    operands = {"a": "rax", "b": "rbx", "base": "rsi", "disp": 0, "imm64": 0,
                "imm32": 0, "shift": 0,
                "values": {"rax": 1, "rbx": 2}}
    check_member("x86", x86_program("sub", operands, 1))
    with pytest.raises(AssertionError):
        check_member("x86", x86_program("cmp", operands, 0))
