"""RV64 instruction encoding and decoding.

Real 32-bit RV64I/M/Zicsr encodings plus the ISA-Grid extension on the
*custom-0* opcode (0x0B), the standard slot for vendor extensions:

========  ======  =====================================
funct3    mnem.   operands
========  ======  =====================================
0         hccall  rs1 = gate id
1         hccalls rs1 = gate id
2         hcrets  —
3         pfch    rs1 = CSR index (0 = all)
4         pflh    rs1 = cache id (0 = all)
7         halt    simulation stop, a0 = exit code
========  ======  =====================================

Using genuine encodings matters: the gate-forgery experiments rely on
gate words appearing (or being injected) in instruction memory and on
the PCU rejecting them by address.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

OPCODE_LUI = 0x37
OPCODE_AUIPC = 0x17
OPCODE_JAL = 0x6F
OPCODE_JALR = 0x67
OPCODE_BRANCH = 0x63
OPCODE_LOAD = 0x03
OPCODE_STORE = 0x23
OPCODE_OP_IMM = 0x13
OPCODE_OP = 0x33
OPCODE_OP_IMM_32 = 0x1B
OPCODE_OP_32 = 0x3B
OPCODE_MISC_MEM = 0x0F
OPCODE_SYSTEM = 0x73
OPCODE_CUSTOM0 = 0x0B

MASK64 = (1 << 64) - 1


class EncodingError(Exception):
    """Unknown mnemonic, out-of-range field, or undecodable word."""


def sign_extend(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & sign - 1) - (value & sign)


@dataclass(frozen=True)
class Instruction:
    """One decoded RV64 instruction."""

    mnemonic: str
    inst_class: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = -1  # architectural CSR address for Zicsr ops
    word: int = 0

    @property
    def size(self) -> int:
        return 4


# (funct3, funct7) tables --------------------------------------------------
_OP_IMM = {
    "addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7,
}
_OP_IMM_SHIFT = {"slli": (1, 0x00), "srli": (5, 0x00), "srai": (5, 0x10)}
_OP = {
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
    "mul": (0, 0x01), "mulh": (1, 0x01), "mulhsu": (2, 0x01), "mulhu": (3, 0x01),
    "div": (4, 0x01), "divu": (5, 0x01),
    "rem": (6, 0x01), "remu": (7, 0x01),
}
# RV64 word (32-bit) operations: OP-32 / OP-IMM-32 opcodes.
_OP_32 = {
    "addw": (0, 0x00), "subw": (0, 0x20), "sllw": (1, 0x00),
    "srlw": (5, 0x00), "sraw": (5, 0x20),
    "mulw": (0, 0x01), "divw": (4, 0x01), "divuw": (5, 0x01),
    "remw": (6, 0x01), "remuw": (7, 0x01),
}
_OP_IMM_32_SHIFT = {"slliw": (1, 0x00), "srliw": (5, 0x00), "sraiw": (5, 0x20)}
_LOAD = {"lb": 0, "lh": 1, "lw": 2, "ld": 3, "lbu": 4, "lhu": 5, "lwu": 6}
_STORE = {"sb": 0, "sh": 1, "sw": 2, "sd": 3}
_BRANCH = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_CSR = {"csrrw": 1, "csrrs": 2, "csrrc": 3, "csrrwi": 5, "csrrsi": 6, "csrrci": 7}
_CUSTOM = {"hccall": 0, "hccalls": 1, "hcrets": 2, "pfch": 3, "pflh": 4, "halt": 7}

_LOAD_WIDTH = {"lb": 1, "lh": 2, "lw": 4, "ld": 8, "lbu": 1, "lhu": 2, "lwu": 4}
_STORE_WIDTH = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

_MUL_MNEMONICS = {
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
    "mulw", "divw", "divuw", "remw", "remuw",
}

_CLASS_BY_MNEMONIC = {}
_CLASS_BY_MNEMONIC.update({m: "alu" for m in _OP_IMM})
_CLASS_BY_MNEMONIC.update({m: "alu" for m in _OP_IMM_SHIFT})
_CLASS_BY_MNEMONIC.update({m: "alu" for m in _OP_IMM_32_SHIFT})
_CLASS_BY_MNEMONIC["addiw"] = "alu"
_CLASS_BY_MNEMONIC.update(
    {m: ("mul" if m in _MUL_MNEMONICS else "alu") for m in _OP}
)
_CLASS_BY_MNEMONIC.update(
    {m: ("mul" if m in _MUL_MNEMONICS else "alu") for m in _OP_32}
)
_CLASS_BY_MNEMONIC.update({m: "load" for m in _LOAD})
_CLASS_BY_MNEMONIC.update({m: "store" for m in _STORE})
_CLASS_BY_MNEMONIC.update({m: "branch" for m in _BRANCH})
_CLASS_BY_MNEMONIC.update({m: "csr" for m in _CSR})
_CLASS_BY_MNEMONIC.update({m: m for m in _CUSTOM})
_CLASS_BY_MNEMONIC.update(
    {
        "lui": "alu", "auipc": "alu", "jal": "jump", "jalr": "jump",
        "fence": "fence", "fence.i": "fence", "ecall": "ecall",
        "ebreak": "ebreak", "sret": "sret", "mret": "mret", "wfi": "wfi",
        "sfence.vma": "sfence_vma",
    }
)


def instruction_class(mnemonic: str) -> str:
    try:
        return _CLASS_BY_MNEMONIC[mnemonic]
    except KeyError:
        raise EncodingError("unknown mnemonic %r" % mnemonic) from None


def load_width(mnemonic: str) -> int:
    return _LOAD_WIDTH.get(mnemonic) or _STORE_WIDTH[mnemonic]


def is_unsigned_load(mnemonic: str) -> bool:
    return mnemonic in ("lbu", "lhu", "lwu")


# ---------------------------------------------------------------------------
# Field packers.
# ---------------------------------------------------------------------------
def _check_reg(value: int, name: str) -> int:
    if not 0 <= value < 32:
        raise EncodingError("%s register x%d out of range" % (name, value))
    return value


def _r_type(opcode: int, rd: int, f3: int, rs1: int, rs2: int, f7: int) -> int:
    return (
        f7 << 25 | _check_reg(rs2, "rs2") << 20 | _check_reg(rs1, "rs1") << 15
        | f3 << 12 | _check_reg(rd, "rd") << 7 | opcode
    )


def _i_type(opcode: int, rd: int, f3: int, rs1: int, imm: int) -> int:
    if not -2048 <= imm < 2048 and not 0 <= imm < 4096:
        raise EncodingError("I-immediate %d out of range" % imm)
    return (
        (imm & 0xFFF) << 20 | _check_reg(rs1, "rs1") << 15 | f3 << 12
        | _check_reg(rd, "rd") << 7 | opcode
    )


def _s_type(opcode: int, f3: int, rs1: int, rs2: int, imm: int) -> int:
    if not -2048 <= imm < 2048:
        raise EncodingError("S-immediate %d out of range" % imm)
    imm &= 0xFFF
    return (
        (imm >> 5) << 25 | _check_reg(rs2, "rs2") << 20
        | _check_reg(rs1, "rs1") << 15 | f3 << 12 | (imm & 0x1F) << 7 | opcode
    )


def _b_type(opcode: int, f3: int, rs1: int, rs2: int, imm: int) -> int:
    if imm % 2 or not -4096 <= imm < 4096:
        raise EncodingError("B-immediate %d out of range" % imm)
    imm &= 0x1FFF
    return (
        (imm >> 12 & 1) << 31 | (imm >> 5 & 0x3F) << 25
        | _check_reg(rs2, "rs2") << 20 | _check_reg(rs1, "rs1") << 15
        | f3 << 12 | (imm >> 1 & 0xF) << 8 | (imm >> 11 & 1) << 7 | opcode
    )


def _u_type(opcode: int, rd: int, imm: int) -> int:
    if imm % (1 << 12):
        raise EncodingError("U-immediate must be 4 KB aligned")
    return (imm & 0xFFFFF000) | _check_reg(rd, "rd") << 7 | opcode


def _j_type(opcode: int, rd: int, imm: int) -> int:
    if imm % 2 or not -(1 << 20) <= imm < 1 << 20:
        raise EncodingError("J-immediate %d out of range" % imm)
    imm &= 0x1FFFFF
    return (
        (imm >> 20 & 1) << 31 | (imm >> 1 & 0x3FF) << 21 | (imm >> 11 & 1) << 20
        | (imm >> 12 & 0xFF) << 12 | _check_reg(rd, "rd") << 7 | opcode
    )


# ---------------------------------------------------------------------------
# Public encoder.
# ---------------------------------------------------------------------------
def encode(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0, csr: int = 0) -> int:
    """Encode one instruction to its 32-bit word."""
    if mnemonic in _OP_IMM:
        return _i_type(OPCODE_OP_IMM, rd, _OP_IMM[mnemonic], rs1, imm)
    if mnemonic in _OP_IMM_SHIFT:
        f3, f6 = _OP_IMM_SHIFT[mnemonic]
        if not 0 <= imm < 64:
            raise EncodingError("shift amount %d out of range" % imm)
        return _i_type(OPCODE_OP_IMM, rd, f3, rs1, f6 << 6 | imm)
    if mnemonic in _OP:
        f3, f7 = _OP[mnemonic]
        return _r_type(OPCODE_OP, rd, f3, rs1, rs2, f7)
    if mnemonic in _OP_32:
        f3, f7 = _OP_32[mnemonic]
        return _r_type(OPCODE_OP_32, rd, f3, rs1, rs2, f7)
    if mnemonic == "addiw":
        return _i_type(OPCODE_OP_IMM_32, rd, 0, rs1, imm)
    if mnemonic in _OP_IMM_32_SHIFT:
        f3, f7 = _OP_IMM_32_SHIFT[mnemonic]
        if not 0 <= imm < 32:
            raise EncodingError("word shift amount %d out of range" % imm)
        return _i_type(OPCODE_OP_IMM_32, rd, f3, rs1, f7 << 5 | imm)
    if mnemonic in _LOAD:
        return _i_type(OPCODE_LOAD, rd, _LOAD[mnemonic], rs1, imm)
    if mnemonic in _STORE:
        return _s_type(OPCODE_STORE, _STORE[mnemonic], rs1, rs2, imm)
    if mnemonic in _BRANCH:
        return _b_type(OPCODE_BRANCH, _BRANCH[mnemonic], rs1, rs2, imm)
    if mnemonic in _CSR:
        return _i_type(OPCODE_SYSTEM, rd, _CSR[mnemonic], rs1, csr)
    if mnemonic in _CUSTOM:
        return _r_type(OPCODE_CUSTOM0, rd, _CUSTOM[mnemonic], rs1, rs2, 0)
    if mnemonic == "lui":
        return _u_type(OPCODE_LUI, rd, imm)
    if mnemonic == "auipc":
        return _u_type(OPCODE_AUIPC, rd, imm)
    if mnemonic == "jal":
        return _j_type(OPCODE_JAL, rd, imm)
    if mnemonic == "jalr":
        return _i_type(OPCODE_JALR, rd, 0, rs1, imm)
    if mnemonic == "fence":
        return _i_type(OPCODE_MISC_MEM, 0, 0, 0, 0)
    if mnemonic == "fence.i":
        return _i_type(OPCODE_MISC_MEM, 0, 1, 0, 0)
    if mnemonic == "ecall":
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, 0)
    if mnemonic == "ebreak":
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, 1)
    if mnemonic == "sret":
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, 0x102)
    if mnemonic == "mret":
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, 0x302)
    if mnemonic == "wfi":
        return _i_type(OPCODE_SYSTEM, 0, 0, 0, 0x105)
    if mnemonic == "sfence.vma":
        return _r_type(OPCODE_SYSTEM, 0, 0, rs1, rs2, 0x09)
    raise EncodingError("unknown mnemonic %r" % mnemonic)


# ---------------------------------------------------------------------------
# Decoder.
# ---------------------------------------------------------------------------
_OP_IMM_BY_F3 = {v: k for k, v in _OP_IMM.items()}
_OP_BY_KEY = {v: k for k, v in _OP.items()}
_OP_32_BY_KEY = {v: k for k, v in _OP_32.items()}
_LOAD_BY_F3 = {v: k for k, v in _LOAD.items()}
_STORE_BY_F3 = {v: k for k, v in _STORE.items()}
_BRANCH_BY_F3 = {v: k for k, v in _BRANCH.items()}
_CSR_BY_F3 = {v: k for k, v in _CSR.items()}
_CUSTOM_BY_F3 = {v: k for k, v in _CUSTOM.items()}


def _make(mnemonic: str, word: int, **fields) -> Instruction:
    return Instruction(mnemonic, instruction_class(mnemonic), word=word, **fields)


@functools.lru_cache(maxsize=8192)
def decode(word: int) -> Instruction:
    """Decode a 32-bit word; raises :class:`EncodingError` if illegal.

    Results are memoized per process by word in a bounded LRU, so every
    boot that fetches the same word shares one frozen
    :class:`Instruction`; an error is never cached, so an illegal word
    raises on every call.
    """
    opcode = word & 0x7F
    rd = word >> 7 & 0x1F
    f3 = word >> 12 & 0x7
    rs1 = word >> 15 & 0x1F
    rs2 = word >> 20 & 0x1F
    f7 = word >> 25 & 0x7F

    if opcode == OPCODE_OP_IMM:
        if f3 in (1, 5):
            f6 = word >> 26 & 0x3F
            shamt = word >> 20 & 0x3F
            if f3 == 1 and f6 == 0:
                return _make("slli", word, rd=rd, rs1=rs1, imm=shamt)
            if f3 == 5 and f6 == 0:
                return _make("srli", word, rd=rd, rs1=rs1, imm=shamt)
            if f3 == 5 and f6 == 0x10:
                return _make("srai", word, rd=rd, rs1=rs1, imm=shamt)
            raise EncodingError("bad shift encoding 0x%08x" % word)
        mnemonic = _OP_IMM_BY_F3.get(f3)
        if mnemonic is None:
            raise EncodingError("bad OP-IMM funct3 %d" % f3)
        return _make(mnemonic, word, rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))
    if opcode == OPCODE_OP:
        mnemonic = _OP_BY_KEY.get((f3, f7))
        if mnemonic is None:
            raise EncodingError("bad OP encoding 0x%08x" % word)
        return _make(mnemonic, word, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == OPCODE_OP_32:
        mnemonic = _OP_32_BY_KEY.get((f3, f7))
        if mnemonic is None:
            raise EncodingError("bad OP-32 encoding 0x%08x" % word)
        return _make(mnemonic, word, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == OPCODE_OP_IMM_32:
        if f3 == 0:
            return _make("addiw", word, rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))
        shamt = word >> 20 & 0x1F
        f7w = word >> 25 & 0x7F
        for mnemonic, (mf3, mf7) in _OP_IMM_32_SHIFT.items():
            if f3 == mf3 and f7w == mf7:
                return _make(mnemonic, word, rd=rd, rs1=rs1, imm=shamt)
        raise EncodingError("bad OP-IMM-32 encoding 0x%08x" % word)
    if opcode == OPCODE_LOAD:
        mnemonic = _LOAD_BY_F3.get(f3)
        if mnemonic is None:
            raise EncodingError("bad LOAD funct3 %d" % f3)
        return _make(mnemonic, word, rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))
    if opcode == OPCODE_STORE:
        mnemonic = _STORE_BY_F3.get(f3)
        if mnemonic is None:
            raise EncodingError("bad STORE funct3 %d" % f3)
        imm = (word >> 25) << 5 | rd
        return _make(mnemonic, word, rs1=rs1, rs2=rs2, imm=sign_extend(imm, 12))
    if opcode == OPCODE_BRANCH:
        mnemonic = _BRANCH_BY_F3.get(f3)
        if mnemonic is None:
            raise EncodingError("bad BRANCH funct3 %d" % f3)
        imm = (
            (word >> 31 & 1) << 12 | (word >> 7 & 1) << 11
            | (word >> 25 & 0x3F) << 5 | (word >> 8 & 0xF) << 1
        )
        return _make(mnemonic, word, rs1=rs1, rs2=rs2, imm=sign_extend(imm, 13))
    if opcode == OPCODE_LUI:
        return _make("lui", word, rd=rd, imm=sign_extend(word & 0xFFFFF000, 32))
    if opcode == OPCODE_AUIPC:
        return _make("auipc", word, rd=rd, imm=sign_extend(word & 0xFFFFF000, 32))
    if opcode == OPCODE_JAL:
        imm = (
            (word >> 31 & 1) << 20 | (word >> 12 & 0xFF) << 12
            | (word >> 20 & 1) << 11 | (word >> 21 & 0x3FF) << 1
        )
        return _make("jal", word, rd=rd, imm=sign_extend(imm, 21))
    if opcode == OPCODE_JALR:
        if f3 != 0:
            raise EncodingError("bad JALR funct3 %d" % f3)
        return _make("jalr", word, rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))
    if opcode == OPCODE_MISC_MEM:
        if f3 == 0:
            return _make("fence", word)
        if f3 == 1:
            return _make("fence.i", word)
        raise EncodingError("bad MISC-MEM funct3 %d" % f3)
    if opcode == OPCODE_SYSTEM:
        if f3 == 0:
            imm12 = word >> 20 & 0xFFF
            if f7 == 0x09:
                return _make("sfence.vma", word, rs1=rs1, rs2=rs2)
            if imm12 == 0:
                return _make("ecall", word)
            if imm12 == 1:
                return _make("ebreak", word)
            if imm12 == 0x102:
                return _make("sret", word)
            if imm12 == 0x302:
                return _make("mret", word)
            if imm12 == 0x105:
                return _make("wfi", word)
            raise EncodingError("bad SYSTEM encoding 0x%08x" % word)
        mnemonic = _CSR_BY_F3.get(f3)
        if mnemonic is None:
            raise EncodingError("bad CSR funct3 %d" % f3)
        return _make(mnemonic, word, rd=rd, rs1=rs1, csr=word >> 20 & 0xFFF)
    if opcode == OPCODE_CUSTOM0:
        mnemonic = _CUSTOM_BY_F3.get(f3)
        if mnemonic is None or f7 != 0:
            raise EncodingError("bad custom-0 encoding 0x%08x" % word)
        return _make(mnemonic, word, rd=rd, rs1=rs1, rs2=rs2)
    raise EncodingError("unknown opcode 0x%02x (word 0x%08x)" % (opcode, word))
