"""Sparse byte-addressable physical memory.

Backs both CPU loads/stores and the trusted-memory structures (it
satisfies the :class:`repro.core.trusted_memory.WordBacking` protocol).
Pages are allocated lazily so a 1 GB address space costs nothing until
it is touched.

On a little-endian host each page also has a 64-bit word view,
``memoryview(page).cast("Q")``, made with it: an aligned 8-byte load or
store is one index into that view instead of a slice plus an ``int``
conversion.  Every other width, and every misaligned or page-crossing
access, takes the byte path.
"""

from __future__ import annotations

import sys
from typing import Dict

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

# Truncation masks for the scalar store widths.
_WIDTH_MASKS = {width: (1 << 8 * width) - 1 for width in range(1, 9)}
_MASK64 = _WIDTH_MASKS[8]

#: The word views are native-endian, so they read the little-endian
#: memory right only on a little-endian host; elsewhere no page gets one.
_WORD_VIEWS = sys.byteorder == "little"


class MemoryAccessError(Exception):
    """Unaligned or out-of-range physical access."""


class PhysicalMemory:
    """Little-endian sparse physical memory of ``size`` bytes."""

    def __init__(self, size: int = 1 << 30, base: int = 0):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.base = base
        self.size = size
        self.limit = base + size
        self._pages: Dict[int, bytearray] = {}
        # page number -> the page as 64-bit words; empty unless
        # ``_WORD_VIEWS``, so every access then takes the byte path
        self._words: Dict[int, memoryview] = {}

    def _new_page(self, number: int) -> bytearray:
        """Allocate page ``number``: the one place pages are made."""
        page = self._pages[number] = bytearray(PAGE_SIZE)
        if _WORD_VIEWS:
            self._words[number] = memoryview(page).cast("Q")
        return page

    def _page(self, address: int) -> bytearray:
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            page = self._new_page(address >> PAGE_SHIFT)
        return page

    def _check(self, address: int, width: int) -> None:
        if not self.base <= address <= self.limit - width:
            raise MemoryAccessError(
                "physical access at 0x%x (+%d) out of range [0x%x, 0x%x)"
                % (address, width, self.base, self.limit)
            )

    # ------------------------------------------------------------------
    # Scalar accessors.
    # ------------------------------------------------------------------
    def load(self, address: int, width: int = 8) -> int:
        """Load ``width`` bytes (1/2/4/8), little-endian, unsigned.

        ``_check`` and ``_page`` are inlined here (and in :meth:`store`):
        these two methods sit on the per-instruction hot path.
        """
        if not self.base <= address <= self.limit - width:
            self._check(address, width)  # raises with the full message
        if width == 8 and not address & 7:
            words = self._words.get(address >> PAGE_SHIFT)
            if words is not None:  # else the byte path makes the page
                return words[(address & PAGE_MASK) >> 3]
        offset = address & PAGE_MASK
        if offset + width <= PAGE_SIZE:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                page = self._new_page(address >> PAGE_SHIFT)
            return int.from_bytes(page[offset : offset + width], "little")
        return int.from_bytes(self.load_bytes(address, width), "little")

    def store(self, address: int, value: int, width: int = 8) -> None:
        """Store ``width`` bytes (1/2/4/8), little-endian."""
        if not self.base <= address <= self.limit - width:
            self._check(address, width)  # raises with the full message
        if width == 8 and not address & 7:
            words = self._words.get(address >> PAGE_SHIFT)
            if words is not None:  # else the byte path makes the page
                words[(address & PAGE_MASK) >> 3] = value & _MASK64
                return
        data = (value & _WIDTH_MASKS[width]).to_bytes(width, "little")
        offset = address & PAGE_MASK
        if offset + width <= PAGE_SIZE:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                page = self._new_page(address >> PAGE_SHIFT)
            page[offset : offset + width] = data
        else:
            self.store_bytes(address, data)

    # ------------------------------------------------------------------
    # Bulk accessors (program loading, byte-level decoding).
    # ------------------------------------------------------------------
    def load_bytes(self, address: int, length: int) -> bytes:
        self._check(address, max(length, 1))
        out = bytearray()
        while length:
            page = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            out += page[offset : offset + chunk]
            address += chunk
            length -= chunk
        return bytes(out)

    def store_bytes(self, address: int, data: bytes) -> None:
        self._check(address, max(len(data), 1))
        position = 0
        while position < len(data):
            page = self._page(address)
            offset = address & PAGE_MASK
            chunk = min(len(data) - position, PAGE_SIZE - offset)
            page[offset : offset + chunk] = data[position : position + chunk]
            address += chunk
            position += chunk

    # ------------------------------------------------------------------
    # WordBacking protocol (trusted memory storage).
    # ------------------------------------------------------------------
    def load_word(self, address: int) -> int:
        if address % 8:
            raise MemoryAccessError("unaligned word load at 0x%x" % address)
        return self.load(address, 8)

    def store_word(self, address: int, value: int) -> None:
        if address % 8:
            raise MemoryAccessError("unaligned word store at 0x%x" % address)
        self.store(address, value, 8)

    @property
    def pages_allocated(self) -> int:
        return len(self._pages)
