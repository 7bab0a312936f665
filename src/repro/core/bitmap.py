"""Dense privilege bitmaps used by the Hybrid Privilege Table.

Three structures implement the hybrid-grained privilege data of
Section 4.1:

* :class:`InstructionBitmap` — one bit per instruction class; bit set
  means the class may be executed.
* :class:`RegisterBitmap` — two bits (read, write) per CSR.
* :class:`BitMaskArray` — one full-width write mask per bitwise-controlled
  CSR; a set mask bit means the corresponding CSR bit may be modified.

All three serialize to little-endian sequences of 64-bit words so they can
be stored in (and fetched from) trusted memory exactly the way the
hardware tables would be.
"""

from __future__ import annotations

from typing import Iterable, List

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


def words_for_bits(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


class InstructionBitmap:
    """Execution-privilege bitmap over ``n_classes`` instruction classes."""

    def __init__(self, n_classes: int, *, fill: bool = False):
        if n_classes <= 0:
            raise ValueError("n_classes must be positive")
        self.n_classes = n_classes
        self._words: List[int] = [WORD_MASK if fill else 0] * words_for_bits(n_classes)
        if fill:
            self._clear_tail()

    def _clear_tail(self) -> None:
        tail = self.n_classes % WORD_BITS
        if tail:
            self._words[-1] &= (1 << tail) - 1

    def _check_index(self, inst_class: int) -> None:
        if not 0 <= inst_class < self.n_classes:
            raise IndexError("instruction class %d out of range" % inst_class)

    def allow(self, inst_class: int) -> None:
        """Grant execution privilege for one instruction class."""
        self._check_index(inst_class)
        self._words[inst_class // WORD_BITS] |= 1 << (inst_class % WORD_BITS)

    def deny(self, inst_class: int) -> None:
        """Revoke execution privilege for one instruction class."""
        self._check_index(inst_class)
        self._words[inst_class // WORD_BITS] &= ~(1 << (inst_class % WORD_BITS)) & WORD_MASK

    def allow_many(self, classes: Iterable[int]) -> None:
        for inst_class in classes:
            self.allow(inst_class)

    def allowed(self, inst_class: int) -> bool:
        self._check_index(inst_class)
        return bool(self._words[inst_class // WORD_BITS] >> (inst_class % WORD_BITS) & 1)

    @property
    def n_words(self) -> int:
        return len(self._words)

    def word(self, index: int) -> int:
        """64-bit word ``index`` of the serialized bitmap."""
        return self._words[index]

    def set_word(self, index: int, value: int) -> None:
        self._words[index] = value & WORD_MASK
        self._clear_tail()

    def to_words(self) -> List[int]:
        return list(self._words)

    def copy(self) -> "InstructionBitmap":
        """An independent copy: it shares no word list with ``self``."""
        clone = object.__new__(InstructionBitmap)
        clone.n_classes = self.n_classes
        clone._words = self._words[:]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        granted = sum(bin(w).count("1") for w in self._words)
        return "InstructionBitmap(%d/%d allowed)" % (granted, self.n_classes)


class RegisterBitmap:
    """Read/write privilege double-bitmap over ``n_csrs`` registers.

    The serialized layout interleaves permissions: CSR ``i`` occupies bits
    ``2*i`` (read) and ``2*i + 1`` (write) of the bit stream, so one 64-bit
    word covers 32 CSRs.  This matches the HPT-cache grouping where one
    cache entry holds the R/W bits of a group of CSRs with adjacent
    indices (Section 4.3).
    """

    CSRS_PER_WORD = WORD_BITS // 2

    def __init__(self, n_csrs: int, *, fill: bool = False):
        if n_csrs <= 0:
            raise ValueError("n_csrs must be positive")
        self.n_csrs = n_csrs
        self._words: List[int] = [WORD_MASK if fill else 0] * words_for_bits(2 * n_csrs)
        if fill:
            self._clear_tail()

    def _clear_tail(self) -> None:
        tail = (2 * self.n_csrs) % WORD_BITS
        if tail:
            self._words[-1] &= (1 << tail) - 1

    def _check_index(self, csr: int) -> None:
        if not 0 <= csr < self.n_csrs:
            raise IndexError("CSR index %d out of range" % csr)

    def _bit(self, csr: int, write: bool) -> int:
        return 2 * csr + (1 if write else 0)

    def _set(self, csr: int, write: bool, value: bool) -> None:
        self._check_index(csr)
        bit = self._bit(csr, write)
        word, offset = divmod(bit, WORD_BITS)
        if value:
            self._words[word] |= 1 << offset
        else:
            self._words[word] &= ~(1 << offset) & WORD_MASK

    def grant_read(self, csr: int) -> None:
        self._set(csr, write=False, value=True)

    def grant_write(self, csr: int) -> None:
        self._set(csr, write=True, value=True)

    def grant(self, csr: int, *, read: bool = False, write: bool = False) -> None:
        if read:
            self.grant_read(csr)
        if write:
            self.grant_write(csr)

    def revoke_read(self, csr: int) -> None:
        self._set(csr, write=False, value=False)

    def revoke_write(self, csr: int) -> None:
        self._set(csr, write=True, value=False)

    def can_read(self, csr: int) -> bool:
        self._check_index(csr)
        bit = self._bit(csr, write=False)
        word, offset = divmod(bit, WORD_BITS)
        return bool(self._words[word] >> offset & 1)

    def can_write(self, csr: int) -> bool:
        self._check_index(csr)
        bit = self._bit(csr, write=True)
        word, offset = divmod(bit, WORD_BITS)
        return bool(self._words[word] >> offset & 1)

    @property
    def n_words(self) -> int:
        return len(self._words)

    def word(self, index: int) -> int:
        return self._words[index]

    def set_word(self, index: int, value: int) -> None:
        self._words[index] = value & WORD_MASK
        self._clear_tail()

    def to_words(self) -> List[int]:
        return list(self._words)

    def copy(self) -> "RegisterBitmap":
        """An independent copy: it shares no word list with ``self``."""
        clone = object.__new__(RegisterBitmap)
        clone.n_csrs = self.n_csrs
        clone._words = self._words[:]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        readable = sum(self.can_read(i) for i in range(self.n_csrs))
        writable = sum(self.can_write(i) for i in range(self.n_csrs))
        return "RegisterBitmap(%d readable, %d writable of %d)" % (
            readable,
            writable,
            self.n_csrs,
        )


class BitMaskArray:
    """Per-domain write masks for bitwise-controlled CSRs.

    Only CSRs that need bit-level control get a slot; the architecture's
    :class:`~repro.core.isa_extension.IsaGridIsaMap` maps CSR indices to
    slots.  A write is legal iff ``(old ^ new) & ~mask == 0`` — i.e. the
    write only flips bits the mask exposes.
    """

    def __init__(self, n_masks: int, width: int = WORD_BITS, *, fill: bool = False):
        if n_masks < 0:
            raise ValueError("n_masks must be non-negative")
        if not 0 < width <= WORD_BITS:
            raise ValueError("mask width must be in (0, 64]")
        self.n_masks = n_masks
        self.width = width
        full = (1 << width) - 1
        self._masks: List[int] = [full if fill else 0] * n_masks

    def _check_index(self, slot: int) -> None:
        if not 0 <= slot < self.n_masks:
            raise IndexError("mask slot %d out of range" % slot)

    def set_mask(self, slot: int, mask: int) -> None:
        self._check_index(slot)
        self._masks[slot] = mask & ((1 << self.width) - 1)

    def get_mask(self, slot: int) -> int:
        self._check_index(slot)
        return self._masks[slot]

    def allow_bits(self, slot: int, bits: int) -> None:
        """Expose additional writable bits in one mask."""
        self._check_index(slot)
        self._masks[slot] |= bits & ((1 << self.width) - 1)

    def deny_bits(self, slot: int, bits: int) -> None:
        self._check_index(slot)
        self._masks[slot] &= ~bits

    def write_permitted(self, slot: int, old: int, new: int) -> bool:
        """Evaluate the paper's write-legality equation for one mask."""
        self._check_index(slot)
        return ((old ^ new) & ~self._masks[slot]) == 0

    def to_words(self) -> List[int]:
        return list(self._masks)

    def copy(self) -> "BitMaskArray":
        """An independent copy: it shares no mask list with ``self``."""
        clone = object.__new__(BitMaskArray)
        clone.n_masks = self.n_masks
        clone.width = self.width
        clone._masks = self._masks[:]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BitMaskArray(%d masks, width=%d)" % (self.n_masks, self.width)
