"""Variable-length x86-64 instruction encoding and decoding.

A faithful *subset* of the real encoding: REX prefixes, ModRM bytes,
8/32/64-bit immediates, two-byte 0x0F opcodes.  Real opcodes are used
for every instruction that has one (``0F 30`` wrmsr, ``0F 20`` mov from
CR, ``0F 01 EF`` wrpkru, ...).  The ISA-Grid extension lives on unused
0x0F slots::

    0F 0A /r   hccall  r64   (gate id in r/m)
    0F 0C /r   hccalls r64
    0F 0D C0   hcrets
    0F 0E /r   pfch    r64
    0F 0F /r   pflh    r64

``wrpkrs``/``rdpkrs`` get the (fictional but documented) encodings
``0F 01 E9`` / ``0F 01 E8`` next to the real wrpkru/rdpkru pair.

Variable-length encoding is load-bearing for this reproduction: the
*unintended instruction* experiments embed system-instruction bytes in
the immediates of legitimate instructions and jump into the middle of
them, exactly the attack vector Section 2.3 says binary scanning cannot
handle and ISA-Grid blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class EncodingError(Exception):
    """Unknown mnemonic / operand combination or undecodable bytes."""


def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & sign - 1) - (value & sign)


@dataclass(frozen=True)
class Instruction:
    """One decoded x86 instruction."""

    mnemonic: str
    inst_class: str
    size: int
    reg: int = 0              # ModRM.reg (or opcode-embedded register)
    rm: int = 0               # ModRM.rm (register number when mode 3)
    base: int = -1            # base register for memory operands, -1 if none
    disp: int = 0
    imm: int = 0
    sysreg: int = -1          # CRn/DRn number for mov cr/dr
    vector: int = -1          # interrupt vector for `int`
    to_system: bool = False   # mov *to* CR/DR (write) vs from (read)
    is_mem: bool = False

    @property
    def is_load(self) -> bool:
        return self.is_mem and self.mnemonic in ("mov_load", "lgdt", "lidt")

    @property
    def is_store(self) -> bool:
        return self.is_mem and self.mnemonic in ("mov_store", "sgdt", "sidt")


_CLASS: Dict[str, str] = {
    "nop": "nop",
    "mov_imm": "mov", "mov_rr": "mov", "mov_load": "mov", "mov_store": "mov",
    "lea": "alu",
    "add": "alu", "sub": "alu", "and": "alu", "or": "alu", "xor": "alu",
    "cmp": "alu", "test": "alu",
    "add_imm": "alu", "sub_imm": "alu", "and_imm": "alu", "or_imm": "alu",
    "xor_imm": "alu", "cmp_imm": "alu",
    "shl": "alu", "shr": "alu", "sar": "alu",
    "mul": "alu", "imul": "alu", "div": "alu", "idiv": "alu",
    "inc": "alu", "dec": "alu", "neg": "alu", "not": "alu", "xchg": "alu",
    "push": "stack", "pop": "stack",
    "jmp": "branch", "je": "branch", "jne": "branch", "jl": "branch",
    "jge": "branch", "jb": "branch", "jae": "branch",
    "jbe": "branch", "ja": "branch", "jle": "branch", "jg": "branch",
    "call": "call", "ret": "call",
    "syscall": "syscall", "sysret": "sysret",
    "int": "int", "int3": "int", "iret": "iret",
    "rdtsc": "rdtsc", "rdpmc": "rdpmc", "rdmsr": "rdmsr", "wrmsr": "wrmsr",
    "cpuid": "cpuid", "wbinvd": "wbinvd", "hlt": "hlt",
    "cli": "cli", "sti": "sti", "clts": "clts",
    "in": "in", "out": "out",
    "mov_from_cr": "mov_cr", "mov_to_cr": "mov_cr",
    "mov_from_dr": "mov_dr", "mov_to_dr": "mov_dr",
    "lgdt": "lgdt", "sgdt": "sgdt", "lidt": "lidt", "sidt": "sidt",
    "lldt": "lldt", "ltr": "ltr", "invlpg": "invlpg",
    "rdpkru": "rdpkru", "wrpkru": "wrpkru",
    "rdpkrs": "rdpkrs", "wrpkrs": "wrpkrs",
    "hccall": "hccall", "hccalls": "hccalls", "hcrets": "hcrets",
    "pfch": "pfch", "pflh": "pflh",
}

_ALU_RR = {"add": 0x01, "sub": 0x29, "and": 0x21, "or": 0x09, "xor": 0x31,
           "cmp": 0x39, "test": 0x85}
_ALU_RR_BY_OP = {v: k for k, v in _ALU_RR.items()}
_ALU_IMM_DIGIT = {"add": 0, "or": 1, "and": 4, "sub": 5, "xor": 6, "cmp": 7}
_ALU_IMM_BY_DIGIT = {v: k for k, v in _ALU_IMM_DIGIT.items()}
_SHIFT_DIGIT = {"shl": 4, "shr": 5, "sar": 7}
_SHIFT_BY_DIGIT = {v: k for k, v in _SHIFT_DIGIT.items()}
_MULDIV_DIGIT = {"mul": 4, "imul": 5, "div": 6, "idiv": 7}
_MULDIV_BY_DIGIT = {v: k for k, v in _MULDIV_DIGIT.items()}
_F7_UNARY_DIGIT = {"not": 2, "neg": 3}
_F7_UNARY_BY_DIGIT = {v: k for k, v in _F7_UNARY_DIGIT.items()}
_INCDEC_DIGIT = {"inc": 0, "dec": 1}
_INCDEC_BY_DIGIT = {v: k for k, v in _INCDEC_DIGIT.items()}
_JCC = {"je": 0x84, "jne": 0x85, "jb": 0x82, "jae": 0x83, "jl": 0x8C,
        "jge": 0x8D, "jbe": 0x86, "ja": 0x87, "jle": 0x8E, "jg": 0x8F}
_JCC_BY_OP = {v: k for k, v in _JCC.items()}
_GRID = {"hccall": 0x0A, "hccalls": 0x0C, "hcrets": 0x0D, "pfch": 0x0E, "pflh": 0x0F}
_GRID_BY_OP = {v: k for k, v in _GRID.items()}


def _rex(w: int = 1, r: int = 0, x: int = 0, b: int = 0) -> int:
    return 0x40 | w << 3 | r << 2 | x << 1 | b


def _modrm(mode: int, reg: int, rm: int) -> int:
    return mode << 6 | (reg & 7) << 3 | (rm & 7)


def _i32(value: int) -> bytes:
    return (value & 0xFFFFFFFF).to_bytes(4, "little")


def _i64(value: int) -> bytes:
    return (value & (1 << 64) - 1).to_bytes(8, "little")


class Encoder:
    """Builds instruction byte sequences."""

    @staticmethod
    def rr(opcode: int, reg: int, rm: int) -> bytes:
        return bytes([_rex(r=reg >> 3, b=rm >> 3), opcode, _modrm(3, reg, rm)])

    @staticmethod
    def mem(opcode: int, reg: int, base: int, disp: int) -> bytes:
        """ModRM mode-2 memory operand ``[base + disp32]`` (no SIB)."""
        if base & 7 == 4:
            raise EncodingError("rsp/r12 base needs SIB; unsupported")
        return (
            bytes([_rex(r=reg >> 3, b=base >> 3), opcode, _modrm(2, reg, base)])
            + _i32(disp)
        )

    @staticmethod
    def mov_imm64(reg: int, imm: int) -> bytes:
        return bytes([_rex(b=reg >> 3), 0xB8 | reg & 7]) + _i64(imm)

    @staticmethod
    def alu_imm(mnemonic: str, rm: int, imm: int) -> bytes:
        digit = _ALU_IMM_DIGIT[mnemonic]
        return bytes(
            [_rex(b=rm >> 3), 0x81, _modrm(3, digit, rm)]
        ) + _i32(imm)

    @staticmethod
    def shift_imm(mnemonic: str, rm: int, imm: int) -> bytes:
        digit = _SHIFT_DIGIT[mnemonic]
        return bytes([_rex(b=rm >> 3), 0xC1, _modrm(3, digit, rm), imm & 0x3F])

    @staticmethod
    def muldiv(mnemonic: str, rm: int) -> bytes:
        digit = _MULDIV_DIGIT[mnemonic]
        return bytes([_rex(b=rm >> 3), 0xF7, _modrm(3, digit, rm)])

    @staticmethod
    def f7_unary(mnemonic: str, rm: int) -> bytes:
        digit = _F7_UNARY_DIGIT[mnemonic]
        return bytes([_rex(b=rm >> 3), 0xF7, _modrm(3, digit, rm)])

    @staticmethod
    def incdec(mnemonic: str, rm: int) -> bytes:
        digit = _INCDEC_DIGIT[mnemonic]
        return bytes([_rex(b=rm >> 3), 0xFF, _modrm(3, digit, rm)])

    @staticmethod
    def xchg(reg: int, rm: int) -> bytes:
        return bytes([_rex(r=reg >> 3, b=rm >> 3), 0x87, _modrm(3, reg, rm)])

    @staticmethod
    def push_pop(mnemonic: str, reg: int) -> bytes:
        opcode = (0x50 if mnemonic == "push" else 0x58) | reg & 7
        if reg >= 8:
            return bytes([_rex(w=0, b=1), opcode])
        return bytes([opcode])

    @staticmethod
    def rel32(opcode: Tuple[int, ...], rel: int) -> bytes:
        return bytes(opcode) + _i32(rel)

    @staticmethod
    def mov_cr(crn: int, reg: int, to_cr: bool) -> bytes:
        opcode = 0x22 if to_cr else 0x20
        return bytes([0x0F, opcode, _modrm(3, crn, reg)])

    @staticmethod
    def mov_dr(drn: int, reg: int, to_dr: bool) -> bytes:
        opcode = 0x23 if to_dr else 0x21
        return bytes([0x0F, opcode, _modrm(3, drn, reg)])

    @staticmethod
    def group01(digit: int, base: int, disp: int) -> bytes:
        """0F 01 /digit with a memory operand (lgdt/lidt/sgdt/sidt/invlpg)."""
        if base & 7 == 4:
            raise EncodingError("rsp/r12 base needs SIB; unsupported")
        return (
            bytes([_rex(b=base >> 3), 0x0F, 0x01, _modrm(2, digit, base)])
            + _i32(disp)
        )

    @staticmethod
    def grid(mnemonic: str, reg: int = 0) -> bytes:
        opcode = _GRID[mnemonic]
        if mnemonic == "hcrets":
            return bytes([0x0F, opcode, 0xC0])
        return bytes([_rex(b=reg >> 3), 0x0F, opcode, _modrm(3, 0, reg)])


# Fixed-encoding, no-operand instructions.
_SIMPLE: Dict[str, bytes] = {
    "nop": bytes([0x90]),
    "ret": bytes([0xC3]),
    "iret": bytes([0xCF]),
    "hlt": bytes([0xF4]),
    "cli": bytes([0xFA]),
    "sti": bytes([0xFB]),
    "int3": bytes([0xCC]),
    "syscall": bytes([0x0F, 0x05]),
    "sysret": bytes([0x0F, 0x07]),
    "wbinvd": bytes([0x0F, 0x09]),
    "clts": bytes([0x0F, 0x06]),
    "rdtsc": bytes([0x0F, 0x31]),
    "rdmsr": bytes([0x0F, 0x32]),
    "wrmsr": bytes([0x0F, 0x30]),
    "rdpmc": bytes([0x0F, 0x33]),
    "cpuid": bytes([0x0F, 0xA2]),
    "rdpkru": bytes([0x0F, 0x01, 0xEE]),
    "wrpkru": bytes([0x0F, 0x01, 0xEF]),
    "rdpkrs": bytes([0x0F, 0x01, 0xE8]),
    "wrpkrs": bytes([0x0F, 0x01, 0xE9]),
    "hcrets": bytes([0x0F, 0x0D, 0xC0]),
}
_SIMPLE_BY_BYTES = {v: k for k, v in _SIMPLE.items()}


def simple_bytes(mnemonic: str) -> bytes:
    """The fixed encoding of a no-operand instruction (attack payloads)."""
    return _SIMPLE[mnemonic]


# ---------------------------------------------------------------------------
# Decoder.
# ---------------------------------------------------------------------------
def _mk(mnemonic: str, size: int, **fields) -> Instruction:
    return Instruction(mnemonic, _CLASS[mnemonic], size, **fields)


@functools.lru_cache(maxsize=8192)
def decode(code: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction from ``code[offset:]``.

    Raises :class:`EncodingError` on undecodable bytes — the simulated
    #UD path.  Results are memoized per process by ``(code, offset)``
    in a bounded LRU, so every boot that fetches the same window shares
    one frozen :class:`Instruction`; an error is never cached, so an
    undecodable window raises on every call.
    """
    start = offset
    rex = 0
    if offset < len(code) and 0x40 <= code[offset] <= 0x4F:
        rex = code[offset]
        offset += 1
    if offset >= len(code):
        raise EncodingError("truncated instruction")
    op = code[offset]
    offset += 1
    rex_r = rex >> 2 & 1
    rex_b = rex & 1

    def modrm() -> Tuple[int, int, int]:
        if offset >= len(code):
            raise EncodingError("truncated ModRM")
        byte = code[offset]
        return byte >> 6, (byte >> 3 & 7) | rex_r << 3, (byte & 7) | rex_b << 3

    def need(n: int) -> bytes:
        if offset + n > len(code):
            raise EncodingError("truncated immediate")
        return code[offset : offset + n]

    # One-byte opcodes -------------------------------------------------
    if op == 0x90:
        return _mk("nop", offset - start)
    if 0x50 <= op <= 0x57:
        return _mk("push", offset - start, reg=(op & 7) | rex_b << 3)
    if 0x58 <= op <= 0x5F:
        return _mk("pop", offset - start, reg=(op & 7) | rex_b << 3)
    if op == 0xC3:
        return _mk("ret", offset - start)
    if op == 0xCF:
        return _mk("iret", offset - start)
    if op == 0xF4:
        return _mk("hlt", offset - start)
    if op == 0xFA:
        return _mk("cli", offset - start)
    if op == 0xFB:
        return _mk("sti", offset - start)
    if op == 0xCC:
        return _mk("int3", offset - start, vector=3)
    if op == 0xCD:
        imm = need(1)[0]
        return _mk("int", offset + 1 - start, vector=imm)
    if op == 0xE4:
        imm = need(1)[0]
        return _mk("in", offset + 1 - start, imm=imm)
    if op == 0xE6:
        imm = need(1)[0]
        return _mk("out", offset + 1 - start, imm=imm)
    if op == 0xE8 or op == 0xE9:
        rel = _signed(int.from_bytes(need(4), "little"), 32)
        mnemonic = "call" if op == 0xE8 else "jmp"
        return _mk(mnemonic, offset + 4 - start, imm=rel)
    if 0xB8 <= op <= 0xBF:
        imm = int.from_bytes(need(8), "little")
        return _mk("mov_imm", offset + 8 - start, reg=(op & 7) | rex_b << 3, imm=imm)
    if op in (0x01, 0x29, 0x21, 0x09, 0x31, 0x39, 0x85):
        mode, reg, rm = modrm()
        if mode != 3:
            raise EncodingError("ALU r/m memory form unsupported")
        return _mk(_ALU_RR_BY_OP[op], offset + 1 - start, reg=reg, rm=rm)
    if op == 0x81:
        mode, digit, rm = modrm()
        if mode != 3 or (digit & 7) not in _ALU_IMM_BY_DIGIT:
            raise EncodingError("bad 0x81 form")
        offset += 1
        imm = _signed(int.from_bytes(need(4), "little"), 32)
        return _mk(
            _ALU_IMM_BY_DIGIT[digit & 7] + "_imm", offset + 4 - start, rm=rm, imm=imm
        )
    if op == 0xC1:
        mode, digit, rm = modrm()
        if mode != 3 or (digit & 7) not in _SHIFT_BY_DIGIT:
            raise EncodingError("bad 0xC1 form")
        offset += 1
        imm = need(1)[0]
        return _mk(_SHIFT_BY_DIGIT[digit & 7], offset + 1 - start, rm=rm, imm=imm)
    if op == 0xF7:
        mode, digit, rm = modrm()
        if mode != 3:
            raise EncodingError("bad 0xF7 form")
        if (digit & 7) in _MULDIV_BY_DIGIT:
            return _mk(_MULDIV_BY_DIGIT[digit & 7], offset + 1 - start, rm=rm)
        if (digit & 7) in _F7_UNARY_BY_DIGIT:
            return _mk(_F7_UNARY_BY_DIGIT[digit & 7], offset + 1 - start, rm=rm)
        raise EncodingError("bad 0xF7 digit")
    if op == 0xFF:
        mode, digit, rm = modrm()
        if mode != 3 or (digit & 7) not in _INCDEC_BY_DIGIT:
            raise EncodingError("bad 0xFF form")
        return _mk(_INCDEC_BY_DIGIT[digit & 7], offset + 1 - start, rm=rm)
    if op == 0x87:
        mode, reg, rm = modrm()
        if mode != 3:
            raise EncodingError("xchg memory form unsupported")
        return _mk("xchg", offset + 1 - start, reg=reg, rm=rm)
    if op in (0x89, 0x8B, 0x8D):
        mode, reg, rm = modrm()
        offset += 1
        if mode == 3:
            if op == 0x8D:
                raise EncodingError("lea needs a memory operand")
            mnemonic = "mov_rr"
            # 0x89: rm <- reg; 0x8B: reg <- rm.  Normalize to reg=dest.
            if op == 0x89:
                reg, rm = rm, reg
            return _mk(mnemonic, offset - start, reg=reg, rm=rm)
        if mode != 2:
            raise EncodingError("only disp32 memory operands supported")
        disp = _signed(int.from_bytes(need(4), "little"), 32)
        mnemonic = {0x89: "mov_store", 0x8B: "mov_load", 0x8D: "lea"}[op]
        return _mk(
            mnemonic, offset + 4 - start, reg=reg, base=rm, disp=disp, is_mem=op != 0x8D
        )

    # Two-byte opcodes ---------------------------------------------------
    if op == 0x0F:
        if offset >= len(code):
            raise EncodingError("truncated 0x0F opcode")
        op2 = code[offset]
        offset += 1
        simple = _SIMPLE_BY_BYTES.get(bytes([0x0F, op2]))
        if simple is not None:
            return _mk(simple, offset - start)
        if op2 in _JCC_BY_OP:
            rel = _signed(int.from_bytes(need(4), "little"), 32)
            return _mk(_JCC_BY_OP[op2], offset + 4 - start, imm=rel)
        if op2 in (0x20, 0x22):
            mode, crn, rm = modrm()
            if mode != 3:
                raise EncodingError("bad mov-cr ModRM")
            return _mk(
                "mov_to_cr" if op2 == 0x22 else "mov_from_cr",
                offset + 1 - start, sysreg=crn & 7, rm=rm, to_system=op2 == 0x22,
            )
        if op2 in (0x21, 0x23):
            mode, drn, rm = modrm()
            if mode != 3:
                raise EncodingError("bad mov-dr ModRM")
            return _mk(
                "mov_to_dr" if op2 == 0x23 else "mov_from_dr",
                offset + 1 - start, sysreg=drn & 7, rm=rm, to_system=op2 == 0x23,
            )
        if op2 == 0x00:
            mode, digit, rm = modrm()
            if mode != 3 or (digit & 7) not in (2, 3):
                raise EncodingError("bad 0F 00 form")
            return _mk("lldt" if digit & 7 == 2 else "ltr", offset + 1 - start, rm=rm)
        if op2 == 0x01:
            byte = need(1)[0]
            fixed = _SIMPLE_BY_BYTES.get(bytes([0x0F, 0x01, byte]))
            if fixed is not None:
                return _mk(fixed, offset + 1 - start)
            mode, digit, rm = modrm()
            names = {0: "sgdt", 1: "sidt", 2: "lgdt", 3: "lidt", 7: "invlpg"}
            if mode != 2 or (digit & 7) not in names:
                raise EncodingError("bad 0F 01 form")
            offset += 1
            disp = _signed(int.from_bytes(need(4), "little"), 32)
            return _mk(
                names[digit & 7], offset + 4 - start, base=rm, disp=disp, is_mem=True
            )
        if op2 in _GRID_BY_OP:
            mnemonic = _GRID_BY_OP[op2]
            mode, _, rm = modrm()
            if mode != 3:
                raise EncodingError("bad ISA-Grid ModRM")
            return _mk(mnemonic, offset + 1 - start, rm=rm)
        raise EncodingError("unknown 0x0F opcode 0x%02x" % op2)
    raise EncodingError("unknown opcode 0x%02x" % op)
