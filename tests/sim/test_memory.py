"""Sparse physical memory."""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.sim import MemoryAccessError, PhysicalMemory
from repro.sim import memory as memory_module
from repro.sim.memory import PAGE_SHIFT, PAGE_SIZE

from ..profiles import NIGHTLY_SCALE, PROFILE
from .test_block_executor import seeded_mutant

NIGHTLY_FACTOR = NIGHTLY_SCALE if PROFILE == "nightly" else 1


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


# ----------------------------------------------------------------------
# The access a compiled block runs (DESIGN §3.18 "Generated blocks") is
# rendered by the memory: the aligned 8-byte page-view access, and a
# call of the method for any other.  It must be the method.
# ----------------------------------------------------------------------
def rendered_accessors():
    """The rendered load and store of each width, compiled on their own
    as ``load(cpu, a)`` and ``store(cpu, a, value)`` behind the prologue
    lines they read."""
    prologue = ["%s = %s" % pair for pair in PhysicalMemory.BLOCK_PROLOGUE]
    accessors = {}
    for width in (1, 2, 4, 8):
        for name, lines, result in (
                ("load", PhysicalMemory.load_source("a", width, "v"), "v"),
                ("store", PhysicalMemory.store_source("a", "value", width),
                 "None")):
            text = "def f(cpu, a, value=None):\n%s    return %s\n" % (
                "".join("    %s\n" % line for line in prologue + lines),
                result)
            scope = {}
            exec(compile(text, "<%s %d>" % (name, width), "exec"), {}, scope)
            accessors[name, width] = scope["f"]
    return accessors


#: A memory with a base that is neither zero nor page-aligned, and one
#: whose limit is not page-aligned: their first and last pages lie
#: partly out of range.
MEMORIES = {"base": lambda: PhysicalMemory(size=3 * PAGE_SIZE, base=0x8404),
            "limit": lambda: PhysicalMemory(size=3 * PAGE_SIZE + 0x804)}


def access_addresses(memory):
    """Anywhere in range, aligned words, within 16 bytes of a page edge,
    and out of range within 16 bytes of either end."""
    base, limit = memory.base, memory.limit
    return st.one_of(
        st.integers(min_value=base, max_value=limit - 1),
        st.integers(min_value=base // 8, max_value=limit // 8).map(
            lambda w: 8 * w),
        st.builds(lambda page, delta: page * PAGE_SIZE + delta,
                  st.integers(min_value=base // PAGE_SIZE,
                              max_value=limit // PAGE_SIZE),
                  st.integers(min_value=-16, max_value=15)),
        st.integers(min_value=base - 16, max_value=base + 16),
        st.integers(min_value=limit - 16, max_value=limit + 16))


def drive_accesses(make, accesses):
    """Run ``accesses`` through the methods on one memory and through
    the rendered accessors on another; return each one's results (a
    value, ``None`` for a store, or the exception's type), pages and
    pages with views."""
    accessors = rendered_accessors()
    method, rendered = make(), make()
    cpu = SimpleNamespace(memory=rendered)
    results = [[], []]
    for name, address, width, value in accesses:
        calls = ((method.load, (address, width)),
                 (accessors[name, width], (cpu, address)))
        if name == "store":
            calls = ((method.store, (address, value, width)),
                     (accessors[name, width], (cpu, address, value)))
        for outcome, (function, args) in zip(results, calls):
            try:
                outcome.append(function(*args))
            except MemoryAccessError:
                outcome.append(MemoryAccessError)
    # Pages as digests, so a failing draw's report stays short.
    return [(outcome, {number: hashlib.sha256(page).hexdigest()
                       for number, page in memory._pages.items()},
             set(memory._words))
            for outcome, memory in zip(results, (method, rendered))]


@st.composite
def accesses(draw, memory):
    return draw(st.lists(st.tuples(
        st.sampled_from(["load", "store"]), access_addresses(memory),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=0, max_value=(1 << 64) - 1)), max_size=80))


class TestRenderedAccess:
    @pytest.mark.parametrize("name", sorted(MEMORIES))
    # Without the explain phase: on a failing draw it re-ran the test
    # for minutes (over 110 s under a seeded alignment bug, 0.9 s
    # without it).
    @settings(max_examples=40 * NIGHTLY_FACTOR, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(data=st.data())
    def test_matches_the_methods(self, name, data):
        make = MEMORIES[name]
        method, rendered = drive_accesses(make, data.draw(accesses(make())))
        assert rendered == method

    @pytest.mark.parametrize("name", sorted(MEMORIES))
    def test_every_edge(self, name):
        # Each end of the range, each page edge, aligned and not, with a
        # first touch of each page by either path.
        memory = MEMORIES[name]()
        starts = [memory.base, memory.limit, *range(
            memory.base // PAGE_SIZE * PAGE_SIZE, memory.limit, PAGE_SIZE)]
        plan = [(kind, start + delta, 8, 0x0102030405060708 + delta)
                for start in starts for delta in range(-12, 12)
                for kind in ("load", "store", "load")]
        method, rendered = drive_accesses(MEMORIES[name], plan)
        assert rendered == method
        assert MemoryAccessError in method[0]
        # Exactly the pages that lie wholly in range have views.
        assert method[2] == {number for number in method[1]
                             if memory.base <= number * PAGE_SIZE
                             <= memory.limit - PAGE_SIZE}

    def test_seeded_view_without_alignment_test_is_caught(self, monkeypatch):
        # A view access that does not test alignment reads the aligned
        # word below a misaligned address.
        monkeypatch.setattr(memory_module, "_view_source", seeded_mutant(
            memory_module._view_source, '"if q is None or %s & 7:" % address,',
            '"if q is None:",'))
        plan = [("store", 0x9000, 8, 0x1122334455667788),
                ("load", 0x9003, 8, 0)]
        method, rendered = drive_accesses(MEMORIES["base"], plan)
        assert rendered[0][1] != method[0][1]

    def test_seeded_view_past_the_limit_is_caught(self, monkeypatch):
        # A page that runs past the limit gets a view: the rendered load
        # of an aligned word that runs past the limit reads it, where
        # the method raises.
        monkeypatch.setattr(PhysicalMemory, "_new_page", seeded_mutant(
            PhysicalMemory._new_page,
            "if _WORD_VIEWS and self.base <= start <= self.limit - PAGE_SIZE:",
            "if _WORD_VIEWS:"))
        limit = MEMORIES["limit"]().limit
        plan = [("store", limit - 8, 8, 1), ("load", limit - 4, 8, 0)]
        method, rendered = drive_accesses(MEMORIES["limit"], plan)
        assert method[0] == [None, MemoryAccessError]
        assert rendered[0] == [None, 0]
