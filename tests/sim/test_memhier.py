"""Cache-hierarchy timing model (Table 3 parameters), and the L1 hit
paths it renders for blocks."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CacheLevel, MemoryHierarchy, gem5_o3_hierarchy, rocket_hierarchy

from ..profiles import NIGHTLY_SCALE, PROFILE
from .test_block_executor import seeded_mutant

#: Hypothesis budgets scale by this under the nightly profile.
NIGHTLY_FACTOR = NIGHTLY_SCALE if PROFILE == "nightly" else 1


class TestCacheLevel:
    def test_first_access_misses(self):
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        assert level.access(0x100) is False
        assert level.access(0x100) is True

    def test_same_line_hits(self):
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        level.access(0x100)
        assert level.access(0x13F) is True  # same 64-byte line

    def test_set_conflict_eviction(self):
        # 2-way: three lines mapping to the same set evict the LRU one.
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        n_sets = level.n_sets
        a, b, c = (0, n_sets * 64, 2 * n_sets * 64)
        level.access(a)
        level.access(b)
        level.access(c)  # evicts a
        assert level.access(a) is False

    def test_lru_within_set(self):
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        n_sets = level.n_sets
        a, b, c = (0, n_sets * 64, 2 * n_sets * 64)
        level.access(a)
        level.access(b)
        level.access(a)  # promote a
        level.access(c)  # evicts b
        assert level.access(a) is True
        assert level.access(b) is False

    def test_stats(self):
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        level.access(0)
        level.access(0)
        assert level.stats.hits == 1 and level.stats.misses == 1
        assert level.stats.hit_rate == 0.5

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            CacheLevel("bad", size=1000, line=64, ways=3, latency=1)

    def test_flush(self):
        level = CacheLevel("L1", size=1024, line=64, ways=2, latency=2)
        level.access(0)
        level.flush()
        assert level.access(0) is False


class TestHierarchy:
    def test_l1_hit_latency(self):
        hierarchy = gem5_o3_hierarchy()
        hierarchy.access_data(0x1000)
        assert hierarchy.access_data(0x1000) == 2

    def test_full_miss_latency(self):
        hierarchy = gem5_o3_hierarchy()
        assert hierarchy.access_data(0x1000) == 2 + 20 + 32 + 150

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = gem5_o3_hierarchy()
        hierarchy.access_data(0x0)
        # Evict line 0 from the 4-way L1 by touching 4 conflicting lines.
        n_sets = hierarchy.l1d.n_sets
        for i in range(1, 5):
            hierarchy.access_data(i * n_sets * 64)
        latency = hierarchy.access_data(0x0)
        assert latency == 2 + 20  # L1 miss, L2 hit

    def test_i_and_d_side_separate(self):
        hierarchy = gem5_o3_hierarchy()
        hierarchy.access_instruction(0x1000)
        # same address on the D side still misses L1D (but hits shared L2)
        assert hierarchy.access_data(0x1000) == 2 + 20

    def test_miss_path_latencies_match_table4(self):
        """Rocket load/store miss >120 cycles; Gem5 >200 (Table 4)."""
        assert rocket_hierarchy().miss_path_latency > 120 or \
            rocket_hierarchy().miss_path_latency == 122
        assert rocket_hierarchy().miss_path_latency >= 120
        assert gem5_o3_hierarchy().miss_path_latency > 200

    def test_gem5_parameters_match_table3(self):
        hierarchy = gem5_o3_hierarchy()
        assert hierarchy.l1i.size == 32 * 1024 and hierarchy.l1i.ways == 4
        assert hierarchy.l1d.size == 32 * 1024
        assert hierarchy.shared[0].size == 256 * 1024
        assert hierarchy.shared[0].ways == 16
        assert hierarchy.shared[1].size == 2 * 1024 * 1024
        assert hierarchy.shared[1].latency == 32

    def test_flush_flushes_all_levels(self):
        hierarchy = gem5_o3_hierarchy()
        hierarchy.access_data(0x1000)
        hierarchy.flush()
        assert hierarchy.access_data(0x1000) == hierarchy.miss_path_latency


# ----------------------------------------------------------------------
# The L1 hit tests a compiled block runs (DESIGN §3.18 "Generated
# blocks") are rendered by the hierarchy from its constants; with the
# calls they make on a miss, they must be the methods.
# ----------------------------------------------------------------------
def small_hierarchy():
    """Two-set L1s of two ways, so a few lines conflict."""
    return MemoryHierarchy(
        l1i=CacheLevel("L1I", size=128, line=32, ways=2, latency=3),
        l1d=CacheLevel("L1D", size=256, line=64, ways=2, latency=1),
        shared=[CacheLevel("L2", size=1024, line=64, ways=4, latency=9)],
        dram_latency=40)


HIERARCHIES = {"gem5": gem5_o3_hierarchy, "rocket": rocket_hierarchy,
               "small": small_hierarchy}


def compiled(lines, result, argument=""):
    """``lines`` compiled on their own as ``f(cpu[, argument]) ->
    result``, behind the prologue lines they read, with the counters
    they bump in locals started at zero and added to their own after
    them, as a block does."""
    counters = MemoryHierarchy.BLOCK_COUNTERS
    lines = (["%s = %s" % pair for pair in MemoryHierarchy.BLOCK_PROLOGUE]
             + ["%s = 0" % local for local, _ in counters] + lines
             + ["%s += %s" % (counter, local) for local, counter in counters])
    source = "def f(cpu%s):\n%s    return %s\n" % (
        ", " + argument if argument else "",
        "".join("    %s\n" % line for line in lines), result)
    scope = {}
    exec(compile(source, "<rendered>", "exec"), {}, scope)
    return scope["f"]


def hierarchy_state(hierarchy):
    """Each level's hits, misses and sets, most recently used last."""
    levels = (hierarchy.l1i, hierarchy.l1d, *hierarchy.shared)
    return [(level.stats.hits, level.stats.misses,
             {index: list(ways) for index, ways in level._sets.items()})
            for level in levels]


def drive_both(make, operations, data_source=MemoryHierarchy.data_source):
    """Run ``operations`` through the methods on one hierarchy and
    through the rendered lines (the data ones from ``data_source``) on
    another; return each one's latencies and final state."""
    method, rendered = make(), make()
    cpu = SimpleNamespace(**rendered.block_handles())
    fetches = {}
    data = {write: compiled(data_source(rendered, "address", write), "d",
                            "address")
            for write in (False, True)}
    latencies = [[], []]
    for kind, address, write in operations:
        if kind == "flush":
            method.flush()
            rendered.flush()
            continue
        if kind == "fetch":
            if address not in fetches:
                fetches[address] = compiled(rendered.fetch_source(address), "f")
            latencies[0].append(method.access_instruction(address))
            latencies[1].append(fetches[address](cpu))
        else:
            latencies[0].append(method.access_data(address, write))
            latencies[1].append(data[write](cpu, address))
    return ((latencies[0], hierarchy_state(method)),
            (latencies[1], hierarchy_state(rendered)))


#: Addresses that share sets in every hierarchy above, and any other.
ADDRESSES = st.one_of(
    st.sampled_from([k * 64 * 128 + offset for k in range(6)
                     for offset in (0, 8, 40)]),
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=0, max_value=(1 << 64) - 1))
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("fetch"), ADDRESSES, st.just(False)),
    st.tuples(st.just("data"), ADDRESSES, st.booleans()),
    st.tuples(st.just("flush"), st.just(0), st.just(False))), max_size=300)


class TestRenderedHitPaths:
    @settings(max_examples=40 * NIGHTLY_FACTOR, deadline=None)
    @given(name=st.sampled_from(sorted(HIERARCHIES)), operations=OPERATIONS)
    def test_match_the_methods(self, name, operations):
        method, rendered = drive_both(HIERARCHIES[name], operations)
        assert rendered == method

    def test_render_key_holds_every_rendered_constant(self):
        assert small_hierarchy().render_key() == (32, 2, 3, 64, 2, 1)

    def test_seeded_uncounted_data_hit_is_caught(self):
        # A rendered L1D hit that returns its latency without counting
        # itself: latencies and LRU order agree, the L1D hits do not.
        mutant = seeded_mutant(
            MemoryHierarchy.data_source,
            '"    l1d_hits += 1",', '"    pass",')
        operations = [("data", 0x1000, False)] * 3 + [("data", 0x1008, True)]
        (latencies, levels), (observed, observed_levels) = drive_both(
            rocket_hierarchy, operations, mutant)
        assert observed == latencies
        (hits, misses, sets), l1d = levels[1], observed_levels[1]
        assert l1d[2] == sets
        assert (hits, misses) == (3, 1)
        assert l1d[:2] == (0, 1)
