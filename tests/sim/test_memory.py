"""Sparse physical memory."""

import pytest
from hypothesis import example, given, strategies as st

from repro.sim import MemoryAccessError, PhysicalMemory
from repro.sim import memory as memory_module
from repro.sim.memory import PAGE_SHIFT, PAGE_SIZE


class TestScalarAccess:
    def test_default_zero(self):
        memory = PhysicalMemory(size=1 << 20)
        assert memory.load(0x1000, 8) == 0

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_roundtrip_widths(self, width):
        memory = PhysicalMemory(size=1 << 20)
        value = (1 << 8 * width) - 3
        memory.store(0x100, value, width)
        assert memory.load(0x100, width) == value

    def test_little_endian(self):
        memory = PhysicalMemory(size=1 << 20)
        memory.store(0x100, 0x0102030405060708, 8)
        assert memory.load(0x100, 1) == 0x08
        assert memory.load(0x107, 1) == 0x01

    def test_store_truncates(self):
        memory = PhysicalMemory(size=1 << 20)
        memory.store(0x100, 0x1FF, 1)
        assert memory.load(0x100, 1) == 0xFF

    def test_out_of_range(self):
        memory = PhysicalMemory(size=1 << 12)
        with pytest.raises(MemoryAccessError):
            memory.load(1 << 12, 1)
        with pytest.raises(MemoryAccessError):
            memory.store((1 << 12) - 4, 0, 8)

    def test_cross_page_access(self):
        memory = PhysicalMemory(size=1 << 20)
        memory.store(0xFFC, 0x1122334455667788, 8)  # spans pages 0 and 1
        assert memory.load(0xFFC, 8) == 0x1122334455667788

    def test_base_offset(self):
        memory = PhysicalMemory(size=1 << 12, base=0x8000)
        memory.store(0x8000, 7, 8)
        with pytest.raises(MemoryAccessError):
            memory.load(0x0, 8)


class TestBulkAccess:
    def test_bytes_roundtrip(self):
        memory = PhysicalMemory(size=1 << 20)
        memory.store_bytes(0x200, b"hello world")
        assert memory.load_bytes(0x200, 11) == b"hello world"

    def test_bytes_cross_page(self):
        memory = PhysicalMemory(size=1 << 20)
        data = bytes(range(200)) * 30  # 6000 bytes, > one page
        memory.store_bytes(0xF00, data)
        assert memory.load_bytes(0xF00, len(data)) == data

    def test_pages_allocated_lazily(self):
        memory = PhysicalMemory(size=1 << 30)
        assert memory.pages_allocated == 0
        memory.store(0x10_0000, 1, 8)
        assert memory.pages_allocated == 1


class TestWordBacking:
    def test_word_roundtrip(self):
        memory = PhysicalMemory(size=1 << 20)
        memory.store_word(0x100, 0xDEAD)
        assert memory.load_word(0x100) == 0xDEAD

    def test_word_alignment_enforced(self):
        memory = PhysicalMemory(size=1 << 20)
        with pytest.raises(MemoryAccessError):
            memory.load_word(0x101)
        with pytest.raises(MemoryAccessError):
            memory.store_word(0x104 + 1, 0)


SIZE = 4 * PAGE_SIZE

#: Addresses that stress the word views: anywhere, 8-aligned, and within
#: 16 bytes of a page edge (the last word of a page, page-crossing
#: accesses, the first word of the next page).
ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=SIZE - 1),
    st.integers(min_value=0, max_value=SIZE // 8 - 1).map(lambda w: 8 * w),
    st.builds(lambda page, delta: (page * PAGE_SIZE + delta) % SIZE,
              st.integers(min_value=0, max_value=SIZE // PAGE_SIZE - 1),
              st.integers(min_value=-16, max_value=15)),
)
#: Values out of every width's range too, so a store must truncate.
VALUES = st.integers(min_value=-(1 << 64), max_value=(1 << 72) - 1)
OPERATIONS = st.one_of(
    st.tuples(st.just("store"), ADDRESSES, st.sampled_from([1, 2, 4, 8]),
              VALUES),
    st.tuples(st.just("load"), ADDRESSES, st.sampled_from([1, 2, 4, 8])),
    st.tuples(st.just("store_bytes"), ADDRESSES,
              st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("load_bytes"), ADDRESSES,
              st.integers(min_value=1, max_value=24)),
)


def touched_pages(address, length):
    return range(address >> PAGE_SHIFT,
                 ((address + length - 1) >> PAGE_SHIFT) + 1)


@given(st.lists(OPERATIONS, max_size=60))
# A page made by the byte path serves the word view, and the reverse,
# including across a page edge and for a word load of a fresh page.
@example([("store_bytes", PAGE_SIZE - 8, bytes(range(1, 9))),
          ("load", PAGE_SIZE - 8, 8), ("store", PAGE_SIZE - 8, 8, -1),
          ("load_bytes", PAGE_SIZE - 9, 10)])
@example([("store", 2 * PAGE_SIZE - 8, 8, -1),
          ("store", 2 * PAGE_SIZE - 8, 8, 1 << 64 | 5),
          ("load_bytes", 2 * PAGE_SIZE - 9, 10),
          ("load", 2 * PAGE_SIZE - 4, 4)])
@example([("load", PAGE_SIZE, 8), ("store", PAGE_SIZE + 3, 1, 0xAB),
          ("load", PAGE_SIZE, 8)])
def test_last_write_wins(operations):
    """Scalar and bulk accessors of every width, mixed in any order,
    read back exactly what a plain bytearray model holds, and each page
    is allocated once, by whichever path touched it first."""
    memory = PhysicalMemory(size=SIZE)
    model = bytearray(SIZE)
    pages = set()
    for name, address, arg, *value in operations:
        length = arg if isinstance(arg, int) else len(arg)
        address = min(address, SIZE - length)
        if name == "store":
            data = (value[0] & (1 << 8 * length) - 1).to_bytes(length, "little")
            memory.store(address, value[0], length)
            model[address:address + length] = data
        elif name == "store_bytes":
            memory.store_bytes(address, arg)
            model[address:address + length] = arg
        elif name == "load":
            expected = int.from_bytes(model[address:address + length], "little")
            assert memory.load(address, length) == expected
        else:
            assert memory.load_bytes(address, length) == \
                model[address:address + length]
        pages.update(touched_pages(address, length))
        assert memory.pages_allocated == len(pages)
    for word in range(0, SIZE, 8):
        assert memory.load(word, 8) == \
            int.from_bytes(model[word:word + 8], "little")
    assert memory.load_bytes(0, SIZE) == model


def test_big_endian_hosts_make_no_views(monkeypatch):
    """A host that cannot use native-endian word views keeps the byte
    path for every access."""
    monkeypatch.setattr(memory_module, "_WORD_VIEWS", False)
    memory = PhysicalMemory(size=SIZE)
    memory.store(PAGE_SIZE - 8, 0x0102030405060708, 8)
    memory.store_bytes(PAGE_SIZE, b"\x2a")
    assert memory._words == {}
    assert memory.load(PAGE_SIZE - 8, 8) == 0x0102030405060708
    assert memory.load_bytes(PAGE_SIZE - 8, 1) == b"\x08"
    assert memory.load(PAGE_SIZE, 8) == 0x2A
