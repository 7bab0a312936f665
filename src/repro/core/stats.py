"""Counters collected by the PCU.

These counters back the paper's cache-hit-rate result (Section 7.1, all
caches reach 99.9% on the decomposed kernel) and our energy-proxy
ablation (fully-associative CAM lookups saved by the bypass register).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict


@dataclass
class CacheStats:
    """Hit/miss/lookup counters for one privilege-cache module."""

    hits: int = 0
    misses: int = 0
    lookups: int = 0  # CAM searches performed — the dynamic-energy proxy
    fills: int = 0
    prefetch_fills: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1]; 1.0 when the cache was never accessed."""
        if not self.accesses:
            return 1.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = self.misses = self.lookups = 0
        self.fills = self.prefetch_fills = self.flushes = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.lookups += other.lookups
        self.fills += other.fills
        self.prefetch_fills += other.prefetch_fills
        self.flushes += other.flushes


@dataclass
class BlockSummaryStats:
    """Diagnostics for the block-level privilege summaries (§3.18).

    Deliberately *not* part of :class:`PcuStats`: the block cache is a
    simulator acceleration, so its hit/miss profile depends on whether
    the block path is enabled at all.  ``PcuStats`` must stay
    bit-identical between the per-instruction and block-summary paths
    (that equality is an acceptance gate), which is only possible if
    the block bookkeeping lives outside it.

    Every probe refusal and every executor fallback to one reference
    ``step()`` is counted by reason, and only on those paths, so a warm
    block pays nothing for the explanation.  ``coverage`` is the share
    of the executor's instructions that retired inside blocks: where
    ``hit_rate`` reads 1.0 for an executor that almost never probes,
    ``coverage`` reads near 0.  ``blocks`` counts block runs where an
    epoch settles and ``looped`` the runs a loop block's function
    retired past its first, where the executor exits, so ``dispatches``
    is the executor's calls into blocks and ``looped / blocks`` the share
    of block runs that stayed inside a loop block.  ``steady`` counts,
    where ``looped`` is counted, the loop iterations that ran in a loop
    block's steady body (DESIGN §3.18 "Loop blocks").
    """

    probes: int = 0         # check_block_summary calls (one per block per epoch)
    hits: int = 0           # probes that served the whole block
    insts: int = 0          # instructions retired under a block summary
    blocks: int = 0         # block runs retired (one ``block`` event each)
    looped: int = 0         # block runs retired inside a loop block's run
    steady: int = 0         # loop iterations run in a steady body
    invalidations: int = 0  # block-cache flushes (icache coherence)
    # Probe refusals, by reason.
    refused_decompiled: int = 0  # not block-capable, or no verdict plan
    refused_stale: int = 0       # recycled tenant slot (stale generation)
    refused_bypass: int = 0      # cold or foreign bypass register
    refused_class: int = 0       # a needed class word bit is not granted
    # Executor fallbacks to one reference step(), by reason.
    fallback_translated: int = 0  # RISC-V translation is not Bare
    fallback_no_block: int = 0    # head refused or undecodable
    fallback_budget: int = 0      # the block would overrun max_steps
    fallback_refused: int = 0     # the probe refused

    @property
    def refusals(self) -> int:
        """Probes that fell back to per-instruction checks."""
        return (self.refused_decompiled + self.refused_stale
                + self.refused_bypass + self.refused_class)

    @property
    def fallbacks(self) -> int:
        """Instructions the executor ran through the reference step()."""
        return (self.fallback_translated + self.fallback_no_block
                + self.fallback_budget + self.fallback_refused)

    @property
    def dispatches(self) -> int:
        """The executor's calls into blocks."""
        return self.blocks - self.looped

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1]; 1.0 when no block was ever probed."""
        if not self.probes:
            return 1.0
        return self.hits / self.probes

    @property
    def coverage(self) -> float:
        """Share in [0, 1] of the executor's instructions retired
        inside blocks; 0.0 when the executor never ran."""
        total = self.insts + self.fallbacks
        return self.insts / total if total else 0.0

    def add_fallbacks(self, no_block: int, budget: int, refused: int,
                      translated: int = 0) -> None:
        """Fold in one executor run's fallback counts."""
        self.fallback_no_block += no_block
        self.fallback_budget += budget
        self.fallback_refused += refused
        self.fallback_translated += translated

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def merge(self, other: "BlockSummaryStats") -> None:
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> Dict[str, object]:
        return {
            **asdict(self),
            "refusals": self.refusals,
            "fallbacks": self.fallbacks,
            "dispatches": self.dispatches,
            "hit_rate": self.hit_rate,
            "coverage": self.coverage,
        }


@dataclass
class PcuStats:
    """All counters of one Privilege Check Unit."""

    inst_checks: int = 0
    csr_read_checks: int = 0
    csr_write_checks: int = 0
    mask_checks: int = 0
    bypass_hits: int = 0       # instruction checks served by the bypass register
    bypass_fills: int = 0      # bypass-register refills after a domain switch
    draco_hits: int = 0        # checks skipped by the legal-access cache (§8)
    domain_switches: int = 0
    gate_calls: int = 0        # hccall
    gate_calls_extended: int = 0  # hccalls
    gate_returns: int = 0      # hcrets
    degraded_checks: int = 0   # checks served by direct HPT/SGT walks
    degraded_entries: int = 0  # times the PCU fell into degraded mode
    scrubs: int = 0            # integrity-scrub passes over trusted state
    scrub_repairs: int = 0     # trusted-memory words rewritten by scrubs
    reconfig_rollbacks: int = 0  # transactional reconfigurations rolled back
    faults: Dict[str, int] = field(default_factory=dict)
    stall_cycles: int = 0      # cycles spent waiting on privilege-structure fetches

    inst_cache: CacheStats = field(default_factory=CacheStats)
    reg_cache: CacheStats = field(default_factory=CacheStats)
    mask_cache: CacheStats = field(default_factory=CacheStats)
    sgt_cache: CacheStats = field(default_factory=CacheStats)

    def record_fault(self, fault: BaseException) -> None:
        name = type(fault).__name__
        self.faults[name] = self.faults.get(name, 0) + 1

    @property
    def total_checks(self) -> int:
        return self.inst_checks + self.csr_read_checks + self.csr_write_checks

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    @property
    def total_cam_lookups(self) -> int:
        """Energy proxy: fully-associative searches across all modules."""
        return (
            self.inst_cache.lookups
            + self.reg_cache.lookups
            + self.mask_cache.lookups
            + self.sgt_cache.lookups
        )

    def hit_rates(self) -> Dict[str, float]:
        return {
            "inst": self.inst_cache.hit_rate,
            "reg": self.reg_cache.hit_rate,
            "mask": self.mask_cache.hit_rate,
            "sgt": self.sgt_cache.hit_rate,
        }

    def reset(self) -> None:
        self.inst_checks = 0
        self.csr_read_checks = 0
        self.csr_write_checks = 0
        self.mask_checks = 0
        self.bypass_hits = 0
        self.bypass_fills = 0
        self.draco_hits = 0
        self.domain_switches = 0
        self.gate_calls = 0
        self.gate_calls_extended = 0
        self.gate_returns = 0
        self.degraded_checks = 0
        self.degraded_entries = 0
        self.scrubs = 0
        self.scrub_repairs = 0
        self.reconfig_rollbacks = 0
        self.stall_cycles = 0
        self.faults.clear()
        self.inst_cache.reset()
        self.reg_cache.reset()
        self.mask_cache.reset()
        self.sgt_cache.reset()

    def merge(self, other: "PcuStats") -> None:
        """Accumulate another PCU's counters (aggregating across runs)."""
        self.inst_checks += other.inst_checks
        self.csr_read_checks += other.csr_read_checks
        self.csr_write_checks += other.csr_write_checks
        self.mask_checks += other.mask_checks
        self.bypass_hits += other.bypass_hits
        self.bypass_fills += other.bypass_fills
        self.draco_hits += other.draco_hits
        self.domain_switches += other.domain_switches
        self.gate_calls += other.gate_calls
        self.gate_calls_extended += other.gate_calls_extended
        self.gate_returns += other.gate_returns
        self.degraded_checks += other.degraded_checks
        self.degraded_entries += other.degraded_entries
        self.scrubs += other.scrubs
        self.scrub_repairs += other.scrub_repairs
        self.reconfig_rollbacks += other.reconfig_rollbacks
        self.stall_cycles += other.stall_cycles
        for name, count in other.faults.items():
            self.faults[name] = self.faults.get(name, 0) + count
        self.inst_cache.merge(other.inst_cache)
        self.reg_cache.merge(other.reg_cache)
        self.mask_cache.merge(other.mask_cache)
        self.sgt_cache.merge(other.sgt_cache)

    def as_dict(self) -> Dict[str, object]:
        return {
            "inst_checks": self.inst_checks,
            "csr_read_checks": self.csr_read_checks,
            "csr_write_checks": self.csr_write_checks,
            "mask_checks": self.mask_checks,
            "bypass_hits": self.bypass_hits,
            "bypass_fills": self.bypass_fills,
            "draco_hits": self.draco_hits,
            "domain_switches": self.domain_switches,
            "gate_calls": self.gate_calls,
            "gate_calls_extended": self.gate_calls_extended,
            "gate_returns": self.gate_returns,
            "degraded_checks": self.degraded_checks,
            "degraded_entries": self.degraded_entries,
            "scrubs": self.scrubs,
            "scrub_repairs": self.scrub_repairs,
            "reconfig_rollbacks": self.reconfig_rollbacks,
            "stall_cycles": self.stall_cycles,
            "faults": dict(self.faults),
            "cam_lookups": self.total_cam_lookups,
            "hit_rates": self.hit_rates(),
        }
