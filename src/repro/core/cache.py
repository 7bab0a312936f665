"""The domain privilege cache (Section 4.3).

Four fully-associative LRU modules sit inside the PCU:

* the **instruction-bitmap cache** — one entry per (domain, word group);
* the **register-bitmap cache** — one entry per (domain, CSR group);
* the **bit-mask cache** — one entry per (domain, mask slot);
* the **SGT cache** — one entry per gate id.

A hit costs no extra cycles; a miss stalls for the configured refill
latency while the PCU reads the HPT/SGT word(s) from trusted memory.
Tags include the domain id, so no flush is needed on a domain switch.

The **instruction privilege register** implements the paper's cache
bypass: after a domain switch the instruction bitmap of the new domain is
pulled into a plain register once, and subsequent per-instruction checks
read that register instead of searching the CAM, cutting dynamic energy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Tuple

from .config import PcuConfig
from .errors import GateFault
from .hpt import HybridPrivilegeTable
from .sgt import GateEntry, SwitchingGateTable
from .stats import CacheStats


class FullyAssociativeCache:
    """A tag → payload cache with true-LRU replacement.

    Fault-injection hooks (``repro.faults``): :meth:`corrupt` rewrites a
    resident payload in place (a CAM data-array bit flip) and
    :meth:`pin` marks an entry *stuck* — a pinned entry survives
    invalidation and flush, modelling a CAM line whose valid bit is stuck
    at one, so a stale privilege can outlive the coherence sweep that
    should have dropped it.  Both leave the functional lookup/fill path
    untouched; the integrity scrubber is what must catch the damage.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._pinned: "set[Hashable]" = set()

    def lookup(self, tag: Hashable) -> Optional[object]:
        """Search the CAM; promotes the entry to most-recently-used."""
        if tag in self._entries:
            self._entries.move_to_end(tag)
            return self._entries[tag]
        return None

    def fill(self, tag: Hashable, payload: object) -> None:
        """Insert an entry, evicting the LRU victim when full."""
        if tag in self._entries:
            self._entries.move_to_end(tag)
            self._entries[tag] = payload
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[tag] = payload

    def invalidate(self, tag: Hashable) -> None:
        if tag in self._pinned:
            return
        self._entries.pop(tag, None)

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose tag satisfies ``predicate``.

        Reconfiguration needs group invalidation — e.g. sweeping every
        cached word of one domain — which an exact-tag :meth:`invalidate`
        cannot express.  Returns the number of entries dropped.
        """
        victims = [tag for tag in self._entries
                   if predicate(tag) and tag not in self._pinned]
        for tag in victims:
            del self._entries[tag]
        return len(victims)

    def flush(self) -> None:
        if self._pinned:
            survivors = [(tag, self._entries[tag]) for tag in self._entries
                         if tag in self._pinned]
            self._entries = OrderedDict(survivors)
            return
        self._entries.clear()

    # -- fault-injection hooks ------------------------------------------
    def corrupt(self, tag: Hashable, transform: Callable[[object], object]) -> bool:
        """Rewrite a resident payload in place; False if not resident."""
        if tag not in self._entries:
            return False
        self._entries[tag] = transform(self._entries[tag])
        return True

    def pin(self, tag: Hashable) -> bool:
        """Make an entry immune to invalidation/flush (stuck CAM line)."""
        if tag not in self._entries:
            return False
        self._pinned.add(tag)
        return True

    def unpin_all(self) -> None:
        """Clear every stuck line (the scrubber's repair action)."""
        self._pinned.clear()

    def items(self):
        """Resident (tag, payload) pairs — the scrubber's audit surface."""
        return list(self._entries.items())

    def tags(self):
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tag: Hashable) -> bool:
        return tag in self._entries


class HptCacheSet:
    """The three HPT caches plus refill logic against trusted memory."""

    def __init__(self, config: PcuConfig, hpt: HybridPrivilegeTable):
        self.config = config
        self.hpt = hpt
        self.inst = FullyAssociativeCache(config.hpt_cache_entries)
        self.reg = FullyAssociativeCache(config.hpt_cache_entries)
        self.mask = FullyAssociativeCache(config.hpt_cache_entries)

    # -- instruction bitmap -------------------------------------------
    def inst_word(
        self, domain: int, word_index: int, stats: CacheStats
    ) -> Tuple[int, int]:
        """Return (bitmap word, stall cycles) for one instruction group."""
        tag = (domain, word_index)
        stats.lookups += 1
        cached = self.inst.lookup(tag)
        if cached is not None:
            stats.hits += 1
            return cached, 0
        stats.misses += 1
        word = self.hpt.read_inst_word(domain, word_index)
        self.inst.fill(tag, word)
        stats.fills += 1
        return word, self.config.refill_latency

    # -- register bitmap ----------------------------------------------
    def reg_word(
        self, domain: int, word_index: int, stats: CacheStats
    ) -> Tuple[int, int]:
        """Return (R/W bitmap word, stall cycles) for one CSR group."""
        tag = (domain, word_index)
        stats.lookups += 1
        cached = self.reg.lookup(tag)
        if cached is not None:
            stats.hits += 1
            return cached, 0
        stats.misses += 1
        word = self.hpt.read_reg_word(domain, word_index)
        self.reg.fill(tag, word)
        stats.fills += 1
        return word, self.config.refill_latency

    # -- bit-mask array -------------------------------------------------
    def mask_word(self, domain: int, slot: int, stats: CacheStats) -> Tuple[int, int]:
        """Return (write mask, stall cycles) for one bitwise CSR."""
        tag = (domain, slot)
        stats.lookups += 1
        cached = self.mask.lookup(tag)
        if cached is not None:
            stats.hits += 1
            return cached, 0
        stats.misses += 1
        word = self.hpt.read_mask(domain, slot)
        self.mask.fill(tag, word)
        stats.fills += 1
        return word, self.config.refill_latency

    # -- software cache management --------------------------------------
    def prefetch_csr(
        self, domain: int, csr: int, reg_stats: CacheStats, mask_stats: CacheStats
    ) -> None:
        """``pfch #csr``: pull one CSR's bitmap word and mask into cache.

        Prefetch requests are lower priority than demand misses
        (Section 4.3), so they add no stall cycles here; they only warm
        the cache.
        """
        word_index = (2 * csr) // 64
        if self.reg.lookup((domain, word_index)) is None:
            self.reg.fill((domain, word_index), self.hpt.read_reg_word(domain, word_index))
            reg_stats.prefetch_fills += 1
        slot = self.hpt.isa_map.mask_slot(csr)
        if slot is not None and self.mask.lookup((domain, slot)) is None:
            self.mask.fill((domain, slot), self.hpt.read_mask(domain, slot))
            mask_stats.prefetch_fills += 1

    def prefetch_all(
        self, domain: int, reg_stats: CacheStats, mask_stats: CacheStats
    ) -> None:
        """``pfch`` with a zero operand: prefetch every CSR's structures."""
        for csr in range(self.hpt.isa_map.n_csrs):
            self.prefetch_csr(domain, csr, reg_stats, mask_stats)


class SgtCache:
    """SGT cache: gate id → SGT entry (Section 4.3).

    Configured with zero entries (the ``8E.N`` variant) every access
    misses and pays the refill latency, modelling a PCU that always reads
    the SGT from memory.
    """

    def __init__(self, config: PcuConfig, sgt: SwitchingGateTable):
        self.config = config
        self.sgt = sgt
        self._cache = (
            FullyAssociativeCache(config.sgt_cache_entries)
            if config.has_sgt_cache
            else None
        )

    def entry(self, gate_id: int, stats: CacheStats) -> Tuple[GateEntry, int]:
        """Return (gate entry, stall cycles); faults on unregistered gates."""
        if self._cache is not None:
            stats.lookups += 1
            cached = self._cache.lookup(gate_id)
            if cached is not None:
                stats.hits += 1
                return cached, 0
            stats.misses += 1
        entry = self.sgt.read_entry(gate_id)  # may raise GateFault
        if self._cache is not None:
            self._cache.fill(gate_id, entry)
            stats.fills += 1
        return entry, self.config.refill_latency

    def invalidate(self, gate_id: int) -> None:
        """Drop a cached gate (after domain-0 re-registers the slot)."""
        if self._cache is not None:
            self._cache.invalidate(gate_id)

    def flush(self) -> None:
        if self._cache is not None:
            self._cache.flush()


class InstPrivilegeRegister:
    """The cache-bypass register holding the current domain's inst bitmap.

    Filled lazily when the first instruction of a freshly-entered domain
    is checked; afterwards instruction checks read this register and skip
    the CAM entirely (Section 4.3, "Cache Bypass For Saving Energy").
    """

    def __init__(self) -> None:
        self._domain: Optional[int] = None
        self._words: List[int] = []

    @property
    def loaded_domain(self) -> Optional[int]:
        return self._domain

    def invalidate(self) -> None:
        self._domain = None
        self._words = []

    def load(self, domain: int, words: List[int]) -> None:
        self._domain = domain
        self._words = list(words)

    def allowed(self, domain: int, inst_class: int) -> Optional[bool]:
        """Check a class against the register; ``None`` if not loaded."""
        if domain != self._domain:
            return None
        word, offset = divmod(inst_class, 64)
        return bool(self._words[word] >> offset & 1)
