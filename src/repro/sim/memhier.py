"""Cache hierarchy timing model (Table 3 of the paper).

Functional correctness is handled by :class:`~repro.sim.memory.
PhysicalMemory`; this module only models *latency*: each level keeps a
set-associative LRU tag array, and an access walks down the hierarchy
accumulating the latency of every level it misses in, plus the DRAM
latency on a full miss.

The x86 prototype uses the paper's Gem5 parameters (32 KB 4-way L1s,
256 KB 16-way L2, 2 MB 16-way L3, 30 ns DRAM); the Rocket prototype uses
a two-level arrangement so that a load/store miss costs >120 cycles as
reported in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CacheLevelStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


class CacheLevel:
    """One set-associative, LRU, write-allocate cache level (timing only)."""

    def __init__(self, name: str, size: int, line: int, ways: int, latency: int):
        if size % (line * ways):
            raise ValueError("%s: size must be a multiple of line*ways" % name)
        self.name = name
        self.size = size
        self.line = line
        self.ways = ways
        self.latency = latency
        self.n_sets = size // (line * ways)
        # set index -> list of tags, most-recently-used last
        self._sets: Dict[int, List[int]] = {}
        self.stats = CacheLevelStats()

    def access(self, address: int) -> bool:
        """Touch one line; returns True on hit, inserts on miss."""
        line_address = address // self.line
        set_index = line_address % self.n_sets
        tag = line_address // self.n_sets
        ways = self._sets.get(set_index)
        if ways is None:
            ways = []
            self._sets[set_index] = ways
        elif ways[-1] == tag:
            # MRU hit: re-promoting the last element is a no-op, and
            # sequential fetch makes this the overwhelmingly common case.
            self.stats.hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(tag)
        return False

    def flush(self) -> None:
        self._sets.clear()


class MemoryHierarchy:
    """I-side and D-side L1s in front of a shared L2/L3/DRAM chain."""

    def __init__(
        self,
        l1i: CacheLevel,
        l1d: CacheLevel,
        shared: Optional[List[CacheLevel]] = None,
        dram_latency: int = 90,
    ):
        self.l1i = l1i
        self.l1d = l1d
        self.shared = shared or []
        self.dram_latency = dram_latency
        # Hot-path handles for the inline L1 MRU checks below.  Safe to
        # cache: ``CacheLevel.flush`` clears ``_sets`` in place and
        # nothing replaces a level's ``stats`` object after construction.
        self._l1i_sets_get = l1i._sets.get
        self._l1i_stats = l1i.stats
        self._l1i_line = l1i.line
        self._l1i_n_sets = l1i.n_sets
        self._l1i_latency = l1i.latency
        self._l1d_sets_get = l1d._sets.get
        self._l1d_stats = l1d.stats
        self._l1d_line = l1d.line
        self._l1d_n_sets = l1d.n_sets
        self._l1d_latency = l1d.latency

    def _walk(self, first: CacheLevel, address: int) -> int:
        """Latency of an access starting at ``first``."""
        cycles = first.latency
        if first.access(address):
            return cycles
        for level in self.shared:
            cycles += level.latency
            if level.access(address):
                return cycles
        return cycles + self.dram_latency

    def access_instruction(self, address: int) -> int:
        """Fetch-side latency in cycles for one instruction address.

        The L1 MRU hit is checked inline (same arithmetic and stats as
        :meth:`CacheLevel.access`) so the per-instruction fetch — the
        single hottest call in the simulator — usually costs one frame
        instead of three.
        """
        line_address = address // self._l1i_line
        n_sets = self._l1i_n_sets
        ways = self._l1i_sets_get(line_address % n_sets)
        if ways is not None and ways[-1] == line_address // n_sets:
            self._l1i_stats.hits += 1
            return self._l1i_latency
        return self._walk(self.l1i, address)

    def access_data(self, address: int, write: bool = False) -> int:
        """Data-side latency in cycles (write-allocate, so same walk)."""
        line_address = address // self._l1d_line
        n_sets = self._l1d_n_sets
        ways = self._l1d_sets_get(line_address % n_sets)
        if ways is not None and ways[-1] == line_address // n_sets:
            self._l1d_stats.hits += 1
            return self._l1d_latency
        return self._walk(self.l1d, address)

    # ------------------------------------------------------------------
    # The L1 hit paths above, as source for a compiled block (DESIGN
    # §3.18 "Generated blocks").  The lines reach this hierarchy through
    # the CPU attributes :meth:`block_handles` names: the L1 getters and
    # stats through locals the block's prologue reads once per call
    # (``BLOCK_PROLOGUE``), the miss paths on the CPU.  They use the
    # scratch names ``e`` and ``w``.
    # ------------------------------------------------------------------
    #: What a block's prologue reads for the lines below, as
    #: ``(local, expression)``.  Nothing replaces a level's ``_sets`` or
    #: ``stats`` (see ``__init__``).
    BLOCK_PROLOGUE = (("l1i_get", "cpu._l1i_sets_get"),
                      ("l1i_stats", "cpu._l1i_stats"),
                      ("l1d_get", "cpu._l1d_sets_get"),
                      ("l1d_stats", "cpu._l1d_stats"))

    #: Counters the lines below bump in a local, as ``(local,
    #: counter)``: a block starts the local at zero and adds it to the
    #: counter once per call, and on its exception path.  Nothing reads
    #: the L1D hit counter during a call, and a miss path's own adds to
    #: it commute with that one.
    BLOCK_COUNTERS = (("l1d_hits", "l1d_stats.hits"),)

    def block_handles(self) -> Dict[str, object]:
        """The CPU attributes the rendered lines read, and their values."""
        return {
            "_fetch": self.access_instruction,
            "_l1i_sets_get": self._l1i_sets_get,
            "_l1i_stats": self._l1i_stats,
            "_data": self.access_data,
            "_l1d_sets_get": self._l1d_sets_get,
            "_l1d_stats": self._l1d_stats,
        }

    def render_key(self) -> tuple:
        """The constants the rendered lines hold besides a pc."""
        return (self._l1i_line, self._l1i_n_sets, self._l1i_latency,
                self._l1d_line, self._l1d_n_sets, self._l1d_latency)

    def fetch_source(self, pc: int) -> List[str]:
        """Statements that leave in ``f`` what :meth:`access_instruction`
        returns for the constant ``pc``: its L1I MRU-hit test, with the
        set and the tag folded from ``pc``, and a call of it on a miss."""
        line_address = pc // self._l1i_line
        n_sets = self._l1i_n_sets
        return ["w = l1i_get(%d)" % (line_address % n_sets),
                "if w is not None and w[-1] == %d:" % (line_address // n_sets),
                "    l1i_stats.hits += 1",
                "    f = %d" % self._l1i_latency,
                "else:",
                "    f = cpu._fetch(%d)" % pc]

    def data_source(self, address: str, write: bool) -> List[str]:
        """Statements that leave in ``d`` what :meth:`access_data`
        returns for the expression ``address``: its L1D MRU-hit test,
        counted in the local ``l1d_hits`` (``BLOCK_COUNTERS``), and a
        call of it on a miss."""
        n_sets = self._l1d_n_sets
        return ["e = (%s) // %d" % (address, self._l1d_line),
                "w = l1d_get(e %% %d)" % n_sets,
                "if w is not None and w[-1] == e // %d:" % n_sets,
                "    l1d_hits += 1",
                "    d = %d" % self._l1d_latency,
                "else:",
                "    d = cpu._data(%s, %r)" % (address, write)]

    def fetch_sets_distinct(self, pcs) -> bool:
        """Whether the L1I lines that hold ``pcs`` lie in distinct sets.

        Then a loop body's fetches leave each of its lines most
        recently used in its set after one iteration, and no later
        iteration moves any of them (DESIGN §3.18 "Loop blocks").  Code
        that spans less than the set count times the line size never
        shares a set; a followed jump can land anywhere.
        """
        lines = {pc // self._l1i_line for pc in pcs}
        return len({line % self._l1i_n_sets for line in lines}) == len(lines)

    @property
    def miss_path_latency(self) -> int:
        """Full L1-to-DRAM miss latency (the ">120 / >200 cycles" rows)."""
        return (
            self.l1d.latency
            + sum(level.latency for level in self.shared)
            + self.dram_latency
        )

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        for level in self.shared:
            level.flush()


def rocket_hierarchy() -> MemoryHierarchy:
    """Rocket-like: 16 KB L1s straight to DDR3 (~120-cycle miss path)."""
    return MemoryHierarchy(
        l1i=CacheLevel("L1I", size=16 * 1024, line=64, ways=4, latency=1),
        l1d=CacheLevel("L1D", size=16 * 1024, line=64, ways=4, latency=2),
        shared=[],
        dram_latency=120,
    )


def gem5_o3_hierarchy() -> MemoryHierarchy:
    """The paper's Table 3 hierarchy (x86 Gem5 O3 prototype)."""
    return MemoryHierarchy(
        l1i=CacheLevel("L1I", size=32 * 1024, line=64, ways=4, latency=2),
        l1d=CacheLevel("L1D", size=32 * 1024, line=64, ways=4, latency=2),
        shared=[
            CacheLevel("L2", size=256 * 1024, line=64, ways=16, latency=20),
            CacheLevel("L3", size=2 * 1024 * 1024, line=64, ways=16, latency=32),
        ],
        dram_latency=150,  # 30 ns DRAM at the simulated clock, >200-cycle path
    )
