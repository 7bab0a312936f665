"""PCU configurations and statistics counters."""

import pytest

from repro.core import (
    ALL_CONFIGS,
    CONFIG_16E,
    CONFIG_8E,
    CONFIG_8EN,
    CacheStats,
    ConfigurationError,
    PcuConfig,
    PcuStats,
)


class TestConfigs:
    def test_paper_configurations(self):
        assert CONFIG_16E.hpt_cache_entries == 16
        assert CONFIG_16E.sgt_cache_entries == 16
        assert CONFIG_8E.hpt_cache_entries == 8
        assert CONFIG_8EN.sgt_cache_entries == 0

    def test_has_sgt_cache(self):
        assert CONFIG_8E.has_sgt_cache
        assert not CONFIG_8EN.has_sgt_cache

    def test_all_configs_distinct_names(self):
        names = {c.name for c in ALL_CONFIGS}
        assert names == {"16E.", "8E.", "8E.N"}

    def test_with_refill_latency(self):
        before = CONFIG_8E.refill_latency
        derived = CONFIG_8E.with_refill_latency(204)
        assert derived.refill_latency == 204
        assert derived.hpt_cache_entries == CONFIG_8E.hpt_cache_entries
        assert CONFIG_8E.refill_latency == before == 120  # original untouched

    def test_invalid_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            PcuConfig(hpt_cache_entries=0)
        with pytest.raises(ConfigurationError):
            PcuConfig(sgt_cache_entries=-1)

    def test_invalid_draco_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            PcuConfig(draco_entries=-1)
        assert PcuConfig(draco_entries=0).draco_entries == 0


class TestCacheStats:
    def test_hit_rate_empty_is_one(self):
        assert CacheStats().hit_rate == 1.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert stats.accesses == 4

    def test_reset(self):
        stats = CacheStats(hits=3, misses=1, lookups=4)
        stats.reset()
        assert stats.hits == stats.misses == stats.lookups == 0

    def test_merge(self):
        a = CacheStats(hits=1, misses=2, lookups=3, fills=1)
        b = CacheStats(hits=10, misses=20, lookups=30, prefetch_fills=5)
        a.merge(b)
        assert (a.hits, a.misses, a.lookups) == (11, 22, 33)
        assert a.prefetch_fills == 5


class TestPcuStats:
    def test_total_cam_lookups(self):
        stats = PcuStats()
        stats.inst_cache.lookups = 5
        stats.sgt_cache.lookups = 3
        assert stats.total_cam_lookups == 8

    def test_record_fault(self):
        stats = PcuStats()
        stats.record_fault(ValueError("x"))
        stats.record_fault(ValueError("y"))
        assert stats.faults == {"ValueError": 2}
        assert stats.total_faults == 2

    def test_hit_rates_keys(self):
        assert set(PcuStats().hit_rates()) == {"inst", "reg", "mask", "sgt"}

    def test_reset_clears_everything(self):
        stats = PcuStats()
        stats.inst_checks = 7
        stats.domain_switches = 2
        stats.inst_cache.hits = 5
        stats.record_fault(ValueError("x"))
        stats.reset()
        assert stats.inst_checks == 0
        assert stats.domain_switches == 0
        assert stats.inst_cache.hits == 0
        assert not stats.faults

    def test_as_dict_is_serializable(self):
        import json

        stats = PcuStats()
        stats.inst_checks = 1
        json.dumps(stats.as_dict())
