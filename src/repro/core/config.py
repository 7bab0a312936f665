"""PCU configurations (Section 7, "Configuration").

The paper evaluates three configurations of the domain privilege cache,
each fully associative with LRU replacement:

* ``16E.`` — 16 entries in each of the three HPT caches and the SGT cache;
* ``8E.``  — 8 entries in each cache;
* ``8E.N`` — 8 entries in each HPT cache but *no* SGT cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError


@dataclass(frozen=True)
class PcuConfig:
    """Static parameters of one Privilege Check Unit instance.

    Attributes
    ----------
    name:
        Label used in reports ("16E.", "8E.", "8E.N").
    hpt_cache_entries:
        Entries in each of the three HPT caches (instruction bitmap,
        register bitmap, bit-mask).
    sgt_cache_entries:
        Entries in the SGT cache; 0 disables it (the ``8E.N`` variant),
        making every gate execution read the SGT from memory.
    refill_latency:
        Cycles to fetch one HPT/SGT word from memory on a cache miss.
        Stand-alone core uses this constant; a full Machine overrides it
        with its memory-hierarchy latency.
    bypass_enabled:
        Use the instruction privilege register so the instruction bitmap
        cache is only searched right after a domain switch (Section 4.3,
        "Cache Bypass For Saving Energy").
    prefetch_enabled:
        Honour the ``pfch`` instruction.
    draco_entries:
        Entries in the optional Draco-style legal-access cache the
        paper suggests in Section 8 ("Cache Optimization"): known-legal
        (domain, instruction, register, value) tuples skip the whole
        check pipeline.  0 disables it (the paper's baseline design).
    fast_path:
        Let the PCU serve warm-cache checks through its compiled
        verdict plan (the zero-stall short circuit) instead of walking
        the cache pipeline object by object.  Verdicts, faults, stall
        cycles and every statistics counter are bit-identical either
        way — this trades nothing but simulator wall-clock, and
        ``paper --slow-path`` sets it to False to prove exactly that.
    block_summaries:
        Let the CPUs execute warm straight-line blocks against one
        privilege-summary probe (:meth:`PrivilegeCheckUnit.
        check_block_summary`) instead of one check per instruction
        (DESIGN §3.18).  Like ``fast_path``, purely a simulator
        wall-clock optimization: cycles, stats, faults and contract
        events are bit-identical either way, and ``paper
        --no-block-cache`` sets it to False to prove exactly that.
        Block summaries require the compiled verdict plan to be the
        backing store, so they are inert when ``fast_path`` or
        ``bypass_enabled`` is off or a Draco cache is configured.
    flush_on_switch:
        Flush the domain privilege cache on every domain switch — the
        Section 8 performance/security trade-off against PRIME+PROBE
        on the privilege caches.
    max_domains / max_gates:
        Capacity of the HPT and SGT.
    """

    name: str = "8E."
    hpt_cache_entries: int = 8
    sgt_cache_entries: int = 8
    refill_latency: int = 120
    bypass_enabled: bool = True
    prefetch_enabled: bool = True
    draco_entries: int = 0
    fast_path: bool = True
    block_summaries: bool = True
    flush_on_switch: bool = False
    max_domains: int = 4096
    max_gates: int = 1024

    def __post_init__(self):
        if self.hpt_cache_entries < 1:
            raise ConfigurationError("HPT caches need at least one entry")
        if self.sgt_cache_entries < 0:
            raise ConfigurationError("SGT cache entries must be >= 0")
        if self.draco_entries < 0:
            raise ConfigurationError("draco_entries must be >= 0")

    @property
    def has_sgt_cache(self) -> bool:
        return self.sgt_cache_entries > 0

    def with_refill_latency(self, cycles: int) -> "PcuConfig":
        """Copy of this config with a machine-specific refill latency."""
        return replace(self, refill_latency=cycles)


#: The three configurations evaluated in the paper.
CONFIG_16E = PcuConfig(name="16E.", hpt_cache_entries=16, sgt_cache_entries=16)
CONFIG_8E = PcuConfig(name="8E.", hpt_cache_entries=8, sgt_cache_entries=8)
CONFIG_8EN = PcuConfig(name="8E.N", hpt_cache_entries=8, sgt_cache_entries=0)

ALL_CONFIGS = (CONFIG_16E, CONFIG_8E, CONFIG_8EN)
