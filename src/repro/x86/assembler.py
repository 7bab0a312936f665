"""A small two-pass x86-64 assembler (Intel syntax subset).

Understands exactly the encodings of :mod:`repro.x86.encoding`:
register-register and imm64 moves, ``[reg+disp]`` memory operands,
ALU/shift/muldiv forms, stack ops, rel32 control flow, the system
instructions, the ISA-Grid extension, and raw ``.byte`` emission (used
by the code-injection attacks).

Example::

    program = assemble('''
        entry:
            mov rax, 42
            hlt
    ''', base=0x400000)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .encoding import Encoder, EncodingError, simple_bytes
from .registers import GPR_NUMBER


class AssemblerError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(frozen=True)
class Program:
    base: int
    data: bytes
    symbols: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        # Kernel images are shared per process, so the symbol table is
        # read-only like the rest of the program.
        object.__setattr__(self, "symbols", MappingProxyType(dict(self.symbols)))

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise AssemblerError("unknown symbol %r" % name) from None

    def load(self, memory) -> None:
        memory.store_bytes(self.base, self.data)


_MEM = re.compile(r"^\[(\w+)\s*(?:([+-])\s*(\w+))?\]$")
_CR = re.compile(r"^cr([0-8])$")
_DR = re.compile(r"^dr([0-7])$")

_SIMPLE_MNEMONICS = {
    "nop", "ret", "iret", "hlt", "cli", "sti", "int3", "syscall", "sysret",
    "wbinvd", "clts", "rdtsc", "rdmsr", "wrmsr", "rdpmc", "cpuid",
    "rdpkru", "wrpkru", "rdpkrs", "wrpkrs", "hcrets",
}
_ALU_RR = {"add", "sub", "and", "or", "xor", "cmp", "test"}
_SHIFTS = {"shl", "shr", "sar"}
_MULDIV = {"mul", "imul", "div", "idiv"}
_F7_UNARY = {"neg", "not"}
_INCDEC = {"inc", "dec"}
_JCC = {"je", "jne", "jl", "jge", "jb", "jae", "jbe", "ja", "jle", "jg"}
_GRID_REG = {"hccall", "hccalls", "pfch", "pflh"}
_GROUP01 = {"sgdt": 0, "sidt": 1, "lgdt": 2, "lidt": 3, "invlpg": 7}


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError("bad integer %r" % token, line) from None


def _is_reg(token: str) -> bool:
    return token in GPR_NUMBER


def _parse_mem(token: str, line: int) -> Optional[Tuple[int, int]]:
    """Parse ``[reg]`` / ``[reg+disp]`` / ``[reg-disp]`` -> (base, disp)."""
    match = _MEM.match(token)
    if not match:
        return None
    base = GPR_NUMBER.get(match.group(1))
    if base is None:
        raise AssemblerError("bad base register %r" % match.group(1), line)
    disp = 0
    if match.group(3) is not None:
        disp = _parse_int(match.group(3), line)
        if match.group(2) == "-":
            disp = -disp
    return base, disp


@dataclass
class _Item:
    kind: str                 # "inst", "bytes"
    mnemonic: str = ""
    operands: Tuple[str, ...] = ()
    line: int = 0
    address: int = 0
    size: int = 0
    raw: bytes = b""


class Assembler:
    """Two-pass x86-64 assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0x400000):
        self.base = base

    def assemble(self, source: str) -> Program:
        items, symbols = self._pass1(source)
        data = bytearray()
        for item in items:
            if item.kind == "bytes":
                data += item.raw
                continue
            encoded = self._encode(item, symbols)
            if len(encoded) != item.size:
                raise AssemblerError(
                    "%s: size changed between passes (%d -> %d)"
                    % (item.mnemonic, item.size, len(encoded)),
                    item.line,
                )
            data += encoded
        return Program(self.base, bytes(data), symbols)

    # ------------------------------------------------------------------
    def _pass1(self, source: str) -> Tuple[List[_Item], Dict[str, int]]:
        items: List[_Item] = []
        symbols: Dict[str, int] = {}
        address = self.base
        for number, raw in enumerate(source.splitlines(), start=1):
            line = re.split(r"[#;]", raw, 1)[0].strip()
            if not line:
                continue
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
                if not match:
                    break
                label, line = match.group(1), match.group(2).strip()
                if label in symbols:
                    raise AssemblerError("duplicate label %r" % label, number)
                symbols[label] = address
            if not line:
                continue
            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.lower()
            operands = tuple(p.strip() for p in rest.split(",")) if rest.strip() else ()
            if mnemonic == ".byte":
                raw_bytes = bytes(_parse_int(op, number) & 0xFF for op in operands)
                items.append(_Item("bytes", line=number, address=address,
                                   size=len(raw_bytes), raw=raw_bytes))
                address += len(raw_bytes)
                continue
            if mnemonic == ".zero":
                size = _parse_int(operands[0], number)
                items.append(_Item("bytes", line=number, address=address,
                                   size=size, raw=b"\x00" * size))
                address += size
                continue
            if mnemonic == ".align":
                align = _parse_int(operands[0], number)
                pad = -address % align
                items.append(_Item("bytes", line=number, address=address,
                                   size=pad, raw=b"\x90" * pad))
                address += pad
                continue
            if mnemonic.startswith("."):
                raise AssemblerError("unknown directive %r" % mnemonic, number)
            item = _Item("inst", mnemonic=mnemonic, operands=operands,
                         line=number, address=address)
            item.size = len(self._encode(item, None))
            items.append(item)
            address += item.size
        return items, symbols

    # ------------------------------------------------------------------
    def _resolve(self, token: str, symbols: Optional[Dict[str, int]], line: int) -> int:
        if symbols is not None and token in symbols:
            return symbols[token]
        if symbols is None and not re.match(r"^[+-]?(0[xX])?[0-9a-fA-F]+$", token):
            return 0  # pass 1: unknown label, size is fixed anyway
        return _parse_int(token, line)

    def _encode(self, item: _Item, symbols: Optional[Dict[str, int]]) -> bytes:
        m, ops, line, address = item.mnemonic, item.operands, item.line, item.address
        try:
            return self._encode_inner(m, ops, address, symbols, line)
        except EncodingError as error:
            raise AssemblerError(str(error), line) from error

    def _encode_inner(
        self,
        m: str,
        ops: Tuple[str, ...],
        address: int,
        symbols: Optional[Dict[str, int]],
        line: int,
    ) -> bytes:
        if m in _SIMPLE_MNEMONICS:
            return simple_bytes(m)
        if m == "mov":
            return self._encode_mov(ops, symbols, line)
        if m == "lea":
            mem = _parse_mem(ops[1], line)
            if not _is_reg(ops[0]) or mem is None:
                raise AssemblerError("lea needs reg, [mem]", line)
            return Encoder.mem(0x8D, GPR_NUMBER[ops[0]], mem[0], mem[1])
        if m in _ALU_RR:
            if _is_reg(ops[1]):
                # opcode r/m, r: destination in r/m.
                return Encoder.rr(
                    {"add": 0x01, "sub": 0x29, "and": 0x21, "or": 0x09,
                     "xor": 0x31, "cmp": 0x39, "test": 0x85}[m],
                    GPR_NUMBER[ops[1]], GPR_NUMBER[ops[0]],
                )
            if m == "test":
                raise AssemblerError("test takes two registers", line)
            return Encoder.alu_imm(m, GPR_NUMBER[ops[0]],
                                   self._resolve(ops[1], symbols, line))
        if m in _SHIFTS:
            return Encoder.shift_imm(m, GPR_NUMBER[ops[0]], _parse_int(ops[1], line))
        if m in _MULDIV:
            return Encoder.muldiv(m, GPR_NUMBER[ops[0]])
        if m in _F7_UNARY:
            return Encoder.f7_unary(m, GPR_NUMBER[ops[0]])
        if m in _INCDEC:
            return Encoder.incdec(m, GPR_NUMBER[ops[0]])
        if m == "xchg":
            return Encoder.xchg(GPR_NUMBER[ops[0]], GPR_NUMBER[ops[1]])
        if m in ("push", "pop"):
            return Encoder.push_pop(m, GPR_NUMBER[ops[0]])
        if m in ("jmp", "call"):
            target = self._resolve(ops[0], symbols, line)
            opcode = (0xE9,) if m == "jmp" else (0xE8,)
            size = 5
            return Encoder.rel32(opcode, target - (address + size))
        if m in _JCC:
            target = self._resolve(ops[0], symbols, line)
            opcode = {"je": 0x84, "jne": 0x85, "jb": 0x82, "jae": 0x83,
                      "jl": 0x8C, "jge": 0x8D, "jbe": 0x86, "ja": 0x87,
                      "jle": 0x8E, "jg": 0x8F}[m]
            size = 6
            return Encoder.rel32((0x0F, opcode), target - (address + size))
        if m == "int":
            return bytes([0xCD, _parse_int(ops[0], line) & 0xFF])
        if m in ("in", "out"):
            opcode = 0xE4 if m == "in" else 0xE6
            return bytes([opcode, _parse_int(ops[0], line) & 0xFF])
        if m in _GROUP01:
            mem = _parse_mem(ops[0], line)
            if mem is None:
                raise AssemblerError("%s needs a memory operand" % m, line)
            return Encoder.group01(_GROUP01[m], mem[0], mem[1])
        if m in ("lldt", "ltr"):
            digit = 2 if m == "lldt" else 3
            reg = GPR_NUMBER[ops[0]]
            return bytes([0x0F, 0x00, 0xC0 | digit << 3 | reg & 7])
        if m in _GRID_REG:
            return Encoder.grid(m, GPR_NUMBER[ops[0]])
        raise AssemblerError("unknown mnemonic %r" % m, line)

    def _encode_mov(
        self, ops: Tuple[str, ...], symbols: Optional[Dict[str, int]], line: int
    ) -> bytes:
        if len(ops) != 2:
            raise AssemblerError("mov takes two operands", line)
        dst, src = ops
        cr_dst, cr_src = _CR.match(dst), _CR.match(src)
        dr_dst, dr_src = _DR.match(dst), _DR.match(src)
        if cr_dst:
            return Encoder.mov_cr(int(cr_dst.group(1)), GPR_NUMBER[src], to_cr=True)
        if cr_src:
            return Encoder.mov_cr(int(cr_src.group(1)), GPR_NUMBER[dst], to_cr=False)
        if dr_dst:
            return Encoder.mov_dr(int(dr_dst.group(1)), GPR_NUMBER[src], to_dr=True)
        if dr_src:
            return Encoder.mov_dr(int(dr_src.group(1)), GPR_NUMBER[dst], to_dr=False)
        mem_dst = _parse_mem(dst, line)
        mem_src = _parse_mem(src, line)
        if mem_dst is not None:
            if not _is_reg(src):
                raise AssemblerError("mov [mem], reg only", line)
            return Encoder.mem(0x89, GPR_NUMBER[src], mem_dst[0], mem_dst[1])
        if mem_src is not None:
            if not _is_reg(dst):
                raise AssemblerError("mov reg, [mem] only", line)
            return Encoder.mem(0x8B, GPR_NUMBER[dst], mem_src[0], mem_src[1])
        if _is_reg(dst) and _is_reg(src):
            # 0x89 /r: mov r/m, r  (rm = dst, reg = src)
            return Encoder.rr(0x89, GPR_NUMBER[src], GPR_NUMBER[dst])
        if _is_reg(dst):
            return Encoder.mov_imm64(GPR_NUMBER[dst], self._resolve(src, symbols, line))
        raise AssemblerError("bad mov operands (%s, %s)" % (dst, src), line)


def assemble(source: str, base: int = 0x400000) -> Program:
    return Assembler(base).assemble(source)
