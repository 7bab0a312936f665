"""A small two-pass RV64 assembler.

Supports the subset of GNU-style syntax that the MiniKernel generators
emit: labels, the instructions of :mod:`repro.riscv.encoding`, the usual
pseudo-instructions (``li``, ``la``, ``mv``, ``j``, ``ret``, ``call``,
``csrr``, ``csrw``, ``beqz``, ``bnez``, ``nop``), CSR operands by name,
and the ``.word`` / ``.zero`` / ``.align`` directives.

Example::

    program = assemble('''
        entry:
            li   a0, 41
            addi a0, a0, 1
            halt
    ''', base=0x100000)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .encoding import EncodingError, encode, sign_extend
from .isa import CSR_ADDRESS, REGISTER_NUMBER


class AssemblerError(Exception):
    """Syntax error, unknown symbol, or out-of-range operand."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(frozen=True)
class Program:
    """Assembled machine code plus its symbol table."""

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
        """Copy the program into a :class:`PhysicalMemory`."""
        memory.store_bytes(self.base, self.data)


_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")

_LOADS = {"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"}
_STORES = {"sb", "sh", "sw", "sd"}
_BRANCHES = {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
_R_TYPE = {
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
    "addw", "subw", "sllw", "srlw", "sraw",
    "mulw", "divw", "divuw", "remw", "remuw",
}
_I_TYPE = {
    "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
    "addiw", "slliw", "srliw", "sraiw",
}
_CSR_OPS = {"csrrw", "csrrs", "csrrc"}
_CSR_IMM_OPS = {"csrrwi", "csrrsi", "csrrci"}
_NO_OPERAND = {"ecall", "ebreak", "sret", "mret", "wfi", "fence", "fence.i",
               "hcrets", "halt", "nop", "ret"}
_GATE_REG = {"hccall", "hccalls", "pfch", "pflh"}


def _parse_register(token: str, line: int) -> int:
    try:
        return REGISTER_NUMBER[token]
    except KeyError:
        raise AssemblerError("unknown register %r" % token, line) from None


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError("bad integer %r" % token, line) from None


def _parse_csr(token: str, line: int) -> int:
    if token in CSR_ADDRESS:
        return CSR_ADDRESS[token]
    return _parse_int(token, line)


@dataclass
class _Item:
    """One pass-1 item: an instruction-to-encode or raw data."""

    kind: str            # "inst", "word", "zero"
    mnemonic: str = ""
    operands: Tuple[str, ...] = ()
    line: int = 0
    address: int = 0
    size: int = 4
    value: int = 0       # for .word / .zero


def _li_sequence(rd: int, value: int, line: int) -> List[Tuple[str, dict]]:
    """Expand ``li`` into lui/addi/slli chunks; supports any 64-bit value."""
    value = sign_extend(value & (1 << 64) - 1, 64)
    if -2048 <= value < 2048:
        return [("addi", {"rd": rd, "rs1": 0, "imm": value})]
    # lui+addi only reaches values whose rounded-up upper 20 bits still fit
    # in 32 bits signed: on RV64, lui 0x80000 sign-extends negative, so
    # [0x7FFFF800, 0x80000000) must take the wide path below.
    if -(1 << 31) <= value < (1 << 31) - 0x800:
        upper = (value + 0x800) & 0xFFFFFFFF
        upper &= 0xFFFFF000
        out = [("lui", {"rd": rd, "imm": upper})]
        low = value - sign_extend(upper, 32)
        if low:
            out.append(("addi", {"rd": rd, "rs1": rd, "imm": low}))
        return out
    # Wide constant: build the high 32 bits, then shift in the low 32
    # bits 11 bits at a time (ori immediates must stay non-negative).
    high = value >> 32 & 0xFFFFFFFF
    low = value & 0xFFFFFFFF
    out = _li_sequence(rd, sign_extend(high, 32), line)
    for shift, bits in ((21, 11), (10, 11), (0, 10)):
        chunk = low >> shift & ((1 << bits) - 1)
        out.append(("slli", {"rd": rd, "rs1": rd, "imm": bits}))
        if chunk:
            out.append(("ori", {"rd": rd, "rs1": rd, "imm": chunk}))
    return out


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0x10000):
        self.base = base

    # ------------------------------------------------------------------
    def assemble(self, source: str) -> Program:
        items, symbols = self._pass1(source)
        data = self._pass2(items, symbols)
        return Program(self.base, bytes(data), symbols)

    # ------------------------------------------------------------------
    def _pass1(self, source: str) -> Tuple[List[_Item], Dict[str, int]]:
        items: List[_Item] = []
        symbols: Dict[str, int] = {}
        address = self.base
        for number, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
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
            if mnemonic == ".align":
                align = _parse_int(operands[0], number)
                pad = -address % align
                if pad:
                    items.append(_Item("zero", line=number, address=address, size=pad))
                    address += pad
                continue
            if mnemonic == ".word":
                for op in operands:
                    items.append(
                        _Item("word", line=number, address=address, size=4,
                              value=_parse_int(op, number))
                    )
                    address += 4
                continue
            if mnemonic == ".zero":
                size = _parse_int(operands[0], number)
                items.append(_Item("zero", line=number, address=address, size=size))
                address += size
                continue
            if mnemonic.startswith("."):
                raise AssemblerError("unknown directive %r" % mnemonic, number)
            size = self._instruction_size(mnemonic, operands, number)
            items.append(
                _Item("inst", mnemonic=mnemonic, operands=operands,
                      line=number, address=address, size=size)
            )
            address += size
        return items, symbols

    def _instruction_size(self, mnemonic: str, operands: Tuple[str, ...], line: int) -> int:
        if mnemonic == "li":
            rd = _parse_register(operands[0], line)
            value = _parse_int(operands[1], line)
            return 4 * len(_li_sequence(rd, value, line))
        if mnemonic == "la":
            return 8  # always lui+addi so label addresses stay stable
        return 4

    # ------------------------------------------------------------------
    def _pass2(self, items: List[_Item], symbols: Dict[str, int]) -> bytearray:
        data = bytearray()
        for item in items:
            if item.kind == "zero":
                data += b"\x00" * item.size
                continue
            if item.kind == "word":
                data += (item.value & 0xFFFFFFFF).to_bytes(4, "little")
                continue
            for word in self._encode_item(item, symbols):
                data += word.to_bytes(4, "little")
        return data

    def _resolve(self, token: str, symbols: Dict[str, int], line: int) -> int:
        if token in symbols:
            return symbols[token]
        return _parse_int(token, line)

    def _encode_item(self, item: _Item, symbols: Dict[str, int]) -> List[int]:
        m, ops, line = item.mnemonic, item.operands, item.line
        try:
            return self._encode(m, ops, item.address, symbols, line)
        except EncodingError as error:
            raise AssemblerError(str(error), line) from error

    def _encode(
        self,
        m: str,
        ops: Tuple[str, ...],
        address: int,
        symbols: Dict[str, int],
        line: int,
    ) -> List[int]:
        if m == "li":
            rd = _parse_register(ops[0], line)
            return [
                encode(name, **fields)
                for name, fields in _li_sequence(rd, _parse_int(ops[1], line), line)
            ]
        if m == "la":
            rd = _parse_register(ops[0], line)
            target = self._resolve(ops[1], symbols, line)
            upper = (target + 0x800) & 0xFFFFF000
            low = target - sign_extend(upper, 32)
            return [encode("lui", rd=rd, imm=upper), encode("addi", rd=rd, rs1=rd, imm=low)]
        if m == "nop":
            return [encode("addi", rd=0, rs1=0, imm=0)]
        if m == "mv":
            return [encode("addi", rd=_parse_register(ops[0], line),
                           rs1=_parse_register(ops[1], line), imm=0)]
        if m == "not":
            return [encode("xori", rd=_parse_register(ops[0], line),
                           rs1=_parse_register(ops[1], line), imm=-1)]
        if m == "j":
            target = self._resolve(ops[0], symbols, line)
            return [encode("jal", rd=0, imm=target - address)]
        if m == "call":
            target = self._resolve(ops[0], symbols, line)
            return [encode("jal", rd=1, imm=target - address)]
        if m == "jal":
            if len(ops) == 1:
                target = self._resolve(ops[0], symbols, line)
                return [encode("jal", rd=1, imm=target - address)]
            target = self._resolve(ops[1], symbols, line)
            return [encode("jal", rd=_parse_register(ops[0], line), imm=target - address)]
        if m == "jr":
            return [encode("jalr", rd=0, rs1=_parse_register(ops[0], line), imm=0)]
        if m == "jalr":
            if len(ops) == 1:
                return [encode("jalr", rd=1, rs1=_parse_register(ops[0], line), imm=0)]
            return [encode("jalr", rd=_parse_register(ops[0], line),
                           rs1=_parse_register(ops[1], line),
                           imm=_parse_int(ops[2], line) if len(ops) > 2 else 0)]
        if m == "ret":
            return [encode("jalr", rd=0, rs1=1, imm=0)]
        if m in ("beqz", "bnez"):
            rs1 = _parse_register(ops[0], line)
            target = self._resolve(ops[1], symbols, line)
            base = "beq" if m == "beqz" else "bne"
            return [encode(base, rs1=rs1, rs2=0, imm=target - address)]
        if m in _BRANCHES:
            target = self._resolve(ops[2], symbols, line)
            return [encode(m, rs1=_parse_register(ops[0], line),
                           rs2=_parse_register(ops[1], line), imm=target - address)]
        if m in _LOADS:
            rd = _parse_register(ops[0], line)
            match = _MEM_OPERAND.match(ops[1])
            if not match:
                raise AssemblerError("bad memory operand %r" % ops[1], line)
            return [encode(m, rd=rd, rs1=_parse_register(match.group(2), line),
                           imm=_parse_int(match.group(1), line))]
        if m in _STORES:
            rs2 = _parse_register(ops[0], line)
            match = _MEM_OPERAND.match(ops[1])
            if not match:
                raise AssemblerError("bad memory operand %r" % ops[1], line)
            return [encode(m, rs2=rs2, rs1=_parse_register(match.group(2), line),
                           imm=_parse_int(match.group(1), line))]
        if m in _R_TYPE:
            return [encode(m, rd=_parse_register(ops[0], line),
                           rs1=_parse_register(ops[1], line),
                           rs2=_parse_register(ops[2], line))]
        if m in _I_TYPE:
            return [encode(m, rd=_parse_register(ops[0], line),
                           rs1=_parse_register(ops[1], line),
                           imm=_parse_int(ops[2], line))]
        if m == "csrr":
            return [encode("csrrs", rd=_parse_register(ops[0], line), rs1=0,
                           csr=_parse_csr(ops[1], line))]
        if m == "csrw":
            return [encode("csrrw", rd=0, rs1=_parse_register(ops[1], line),
                           csr=_parse_csr(ops[0], line))]
        if m in _CSR_OPS:
            return [encode(m, rd=_parse_register(ops[0], line),
                           csr=_parse_csr(ops[1], line),
                           rs1=_parse_register(ops[2], line))]
        if m in _CSR_IMM_OPS:
            return [encode(m, rd=_parse_register(ops[0], line),
                           csr=_parse_csr(ops[1], line),
                           rs1=_parse_int(ops[2], line) & 0x1F)]
        if m in _GATE_REG:
            return [encode(m, rs1=_parse_register(ops[0], line))]
        if m in _NO_OPERAND:
            if m == "ret":
                return [encode("jalr", rd=0, rs1=1, imm=0)]
            return [encode(m)]
        if m == "sfence.vma":
            rs1 = _parse_register(ops[0], line) if ops else 0
            rs2 = _parse_register(ops[1], line) if len(ops) > 1 else 0
            return [encode("sfence.vma", rs1=rs1, rs2=rs2)]
        raise AssemblerError("unknown mnemonic %r" % m, line)


def assemble(source: str, base: int = 0x10000) -> Program:
    """Assemble ``source`` at ``base``; convenience wrapper."""
    return Assembler(base).assemble(source)
