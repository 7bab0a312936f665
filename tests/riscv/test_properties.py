"""Differential property tests: random RV64 ALU programs vs a Python
reference interpreter.

The CPU states each ALU op once, as source (``_ALU_SOURCE``), and runs
it both inline in a compiled block and as ``step()``'s closure, so this
interpreter is the check from outside: every property runs with blocks
on and with blocks off, and both must match it."""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.core import CONFIG_8E
from repro.riscv import KERNEL_BASE, assemble, build_riscv_system
from repro.riscv.encoding import sign_extend

from ..profiles import NIGHTLY_SCALE, PROFILE

MASK64 = (1 << 64) - 1

#: Each property's tier-1 example budget is scaled by this nightly.
NIGHTLY_FACTOR = NIGHTLY_SCALE if PROFILE == "nightly" else 1

#: Blocks on, then off: the inline expression, then the closure.
CONFIGS = (CONFIG_8E, dataclasses.replace(CONFIG_8E, block_summaries=False))


def _ref_signed(value):
    return sign_extend(value & MASK64, 64)


def _word(value):
    return sign_extend(value & 0xFFFFFFFF, 32)


def _div_trunc(a, b):
    if b == 0:
        return -1
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


#: (mnemonic, reference semantics over unsigned 64-bit operands)
BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 63),
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: _ref_signed(a) >> (b & 63),
    "slt": lambda a, b: int(_ref_signed(a) < _ref_signed(b)),
    "sltu": lambda a, b: int(a < b),
    "mul": lambda a, b: _ref_signed(a) * _ref_signed(b),
    "mulh": lambda a, b: (_ref_signed(a) * _ref_signed(b)) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "mulhsu": lambda a, b: (_ref_signed(a) * b) >> 64,
    "div": lambda a, b: _div_trunc(_ref_signed(a), _ref_signed(b)),
    "divu": lambda a, b: MASK64 if b == 0 else a // b,
    "rem": lambda a, b: _ref_signed(a) if b == 0
        else _ref_signed(a) - _div_trunc(_ref_signed(a), _ref_signed(b)) * _ref_signed(b),
    "remu": lambda a, b: a if b == 0 else a % b,
    "addw": lambda a, b: sign_extend((a + b) & 0xFFFFFFFF, 32),
    "subw": lambda a, b: sign_extend((a - b) & 0xFFFFFFFF, 32),
    "sllw": lambda a, b: sign_extend((a << (b & 31)) & 0xFFFFFFFF, 32),
    "srlw": lambda a, b: sign_extend((a & 0xFFFFFFFF) >> (b & 31), 32),
    "sraw": lambda a, b: sign_extend(a & 0xFFFFFFFF, 32) >> (b & 31),
    "mulw": lambda a, b: sign_extend((a * b) & 0xFFFFFFFF, 32),
}

#: (mnemonic, reference semantics over an unsigned 64-bit operand and a
#: signed 12-bit immediate)
IMMEDIATE_OPS = {
    "addi": lambda a, imm: a + imm,
    "slti": lambda a, imm: int(_ref_signed(a) < imm),
    "sltiu": lambda a, imm: int(a < imm & MASK64),
    "xori": lambda a, imm: a ^ imm,
    "ori": lambda a, imm: a | imm,
    "andi": lambda a, imm: a & imm,
    "addiw": lambda a, imm: _word(a + imm),
}

#: (mnemonic, reference semantics over an unsigned 64-bit operand and a
#: shift amount of 0 to 31)
WORD_SHIFT_OPS = {
    "slliw": lambda a, shift: _word(a << shift),
    "srliw": lambda a, shift: _word((a & 0xFFFFFFFF) >> shift),
    "sraiw": lambda a, shift: _word(a) >> shift,
}


def run_program(source, config):
    """Run ``source`` from ``entry`` on a PCU-less machine under
    ``config``; return the system.  With blocks on, the program's
    straight-line run is a block."""
    system = build_riscv_system(config, with_isagrid=False)
    program = assemble(source, base=KERNEL_BASE)
    system.load(program)
    system.run(program.symbol("entry"), max_steps=2000)
    assert bool(system.cpu._block_cache) == config.block_summaries
    return system


def run_each(source):
    """``run_program`` with blocks on and with blocks off."""
    return [run_program(source, config) for config in CONFIGS]


def run_binary_op(mnemonic, a, b):
    source = """
entry:
    li a0, %d
    li a1, %d
    %s a2, a0, a1
    halt
""" % (sign_extend(a, 64), sign_extend(b, 64), mnemonic)
    return [system.cpu.regs[12] for system in run_each(source)]


VALUE = st.integers(min_value=0, max_value=MASK64)


@settings(max_examples=25 * NIGHTLY_FACTOR, deadline=None)
@given(a=VALUE, b=VALUE, op=st.sampled_from(sorted(BINARY_OPS)))
def test_binary_ops_match_reference(a, b, op):
    expected = BINARY_OPS[op](a, b) & MASK64
    assert run_binary_op(op, a, b) == [expected, expected]


@settings(max_examples=25 * NIGHTLY_FACTOR, deadline=None)
@given(a=VALUE, imm=st.integers(min_value=-2048, max_value=2047),
       op=st.sampled_from(sorted(IMMEDIATE_OPS)))
# Results that leave 64 bits before masking, either way.
@example(a=MASK64, imm=1, op="addi")
@example(a=0, imm=-1, op="addi")
@example(a=0x7FFFFFFF, imm=1, op="addiw")
def test_immediate_ops_match_reference(a, imm, op):
    expected = IMMEDIATE_OPS[op](a, imm) & MASK64
    source = """
entry:
    li a0, %d
    %s a2, a0, %d
    halt
""" % (sign_extend(a, 64), op, imm)
    assert [system.cpu.regs[12] for system in run_each(source)] == \
        [expected, expected]


@settings(max_examples=15 * NIGHTLY_FACTOR, deadline=None)
@given(value=VALUE)
def test_li_materializes_any_64bit_constant(value):
    source = "entry:\n    li a0, %d\n    halt\n" % sign_extend(value, 64)
    assert [system.cpu.regs[10] for system in run_each(source)] == \
        [value, value]


@settings(max_examples=15 * NIGHTLY_FACTOR, deadline=None)
@given(value=VALUE, shift=st.integers(min_value=0, max_value=63))
def test_shift_immediates_match_reference(value, shift):
    source = """
entry:
    li a0, %d
    slli a1, a0, %d
    srli a2, a0, %d
    srai a3, a0, %d
    halt
""" % (sign_extend(value, 64), shift, shift, shift)
    for system in run_each(source):
        assert system.cpu.regs[11] == (value << shift) & MASK64
        assert system.cpu.regs[12] == value >> shift
        assert system.cpu.regs[13] == (_ref_signed(value) >> shift) & MASK64


@settings(max_examples=15 * NIGHTLY_FACTOR, deadline=None)
@given(value=VALUE, shift=st.integers(min_value=0, max_value=31))
def test_word_shift_immediates_match_reference(value, shift):
    source = """
entry:
    li a0, %d
    slliw a1, a0, %d
    srliw a2, a0, %d
    sraiw a3, a0, %d
    halt
""" % (sign_extend(value, 64), shift, shift, shift)
    expected = [WORD_SHIFT_OPS[op](value, shift) & MASK64
                for op in ("slliw", "srliw", "sraiw")]
    for system in run_each(source):
        assert system.cpu.regs[11:14] == expected


@settings(max_examples=10 * NIGHTLY_FACTOR, deadline=None)
@given(values=st.lists(VALUE, min_size=1, max_size=8))
def test_store_load_roundtrip_sequence(values):
    lines = ["entry:", "    li s1, 0x620000"]
    for index, value in enumerate(values):
        lines.append("    li t0, %d" % sign_extend(value, 64))
        lines.append("    sd t0, %d(s1)" % (8 * index))
    lines.append("    halt")
    for system in run_each("\n".join(lines) + "\n"):
        for index, value in enumerate(values):
            assert system.machine.memory.load(0x620000 + 8 * index, 8) == value
