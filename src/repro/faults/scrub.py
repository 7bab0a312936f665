"""Integrity scrubbing over the trusted privilege state.

The scrubber is domain-0 software (plus a PCU assist for the stack
digest).  One ``scrub()`` pass:

1. **Memory vs mirror** — per-domain checksums of the HPT regions
   (instruction bitmap, register bitmap, bit-mask array) and of every SGT
   entry against domain-0's python-side mirrors.  A mismatching word is
   *repairable*: the mirror is the configuration domain-0 intended, so
   the word is rewritten from it.
2. **Cache vs memory** — every resident payload of the three HPT caches
   and the SGT cache, the bypass instruction-privilege register, and
   every Draco proven-legal tuple is re-verified against the (freshly
   repaired) trusted-memory words.  Any mismatch means the PCU may have
   been serving wrong answers: the PCU enters **degraded mode** (all
   caches flushed and distrusted, checks served by direct HPT walks)
   until a later scrub passes clean.
3. **Trusted stack** — the PCU's running XOR digest of live frames is
   recomputed from memory.  A mismatch is *unrepairable* (stack frames
   have no software mirror) and reported for the caller to halt on.

Ordering matters: memory is repaired before caches are verified, so a
shared-word fault does not masquerade as cache divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import DomainManager, PrivilegeCheckUnit
from repro.core.errors import GateFault, IntegrityFault
from repro.core.trusted_memory import WORD_BYTES


@dataclass
class ScrubReport:
    """Everything one scrub pass found (and fixed)."""

    memory_repairs: int = 0
    cache_detections: List[str] = field(default_factory=list)
    unrepairable: List[str] = field(default_factory=list)
    entered_degraded: bool = False
    exited_degraded: bool = False
    # Which structures pass 1 rewrote — the targets of the single-pass
    # confirmation check (see IntegrityScrubber.verify_repaired).
    repaired_domains: List[int] = field(default_factory=list)
    repaired_gates: List[int] = field(default_factory=list)
    # Domain-virtualization repairs: slots whose generation word was
    # rewritten from the mirror, and bound slots whose descriptor was
    # flushed and replayed from the tenant manifest.
    repaired_generations: List[int] = field(default_factory=list)
    repaired_slots: List[int] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.memory_repairs or self.cache_detections
                    or self.unrepairable)

    @property
    def clean(self) -> bool:
        return not self.detected

    def to_dict(self) -> Dict[str, object]:
        return {
            "memory_repairs": self.memory_repairs,
            "cache_detections": list(self.cache_detections),
            "unrepairable": list(self.unrepairable),
            "entered_degraded": self.entered_degraded,
            "exited_degraded": self.exited_degraded,
        }


def _fold(words) -> int:
    """Order-sensitive checksum of a word sequence."""
    digest = 0
    for word in words:
        digest = (digest * 0x100000001B3 ^ word) & (1 << 64) - 1
    return digest


class IntegrityScrubber:
    """Domain-0's integrity-verification pass over one PCU's state."""

    def __init__(self, pcu: PrivilegeCheckUnit, manager: DomainManager):
        self.pcu = pcu
        self.manager = manager

    # ------------------------------------------------------------------
    # Expected (mirror-derived) words.
    # ------------------------------------------------------------------
    def _domains_to_scrub(self) -> List[int]:
        hpt = self.pcu.hpt
        domains = set(hpt._inst) | set(hpt._regs) | set(hpt._masks)
        domains |= set(self.manager.domains)
        return sorted(d for d in domains if 0 <= d < hpt.max_domains)

    def _expected_seal_inst(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        words = hpt._seal_inst.get(domain)
        if words is None:
            return [0] * hpt.inst_words_per_domain
        return list(words)

    def _expected_seal_regs(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        words = hpt._seal_regs.get(domain)
        if words is None:
            return [0] * hpt.reg_words_per_domain
        return list(words)

    def _expected_seal_masks(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        words = hpt._seal_masks.get(domain)
        if words is None:
            return [0] * hpt.mask_words_per_domain
        return list(words)

    def _granted_inst_words(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        bitmap = hpt._inst.get(domain)
        if bitmap is None:
            return [0] * hpt.inst_words_per_domain
        return [bitmap.word(i) for i in range(hpt.inst_words_per_domain)]

    def _granted_reg_words(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        bitmap = hpt._regs.get(domain)
        if bitmap is None:
            return [0] * hpt.reg_words_per_domain
        return [bitmap.word(i) for i in range(hpt.reg_words_per_domain)]

    def _granted_masks(self, domain: int) -> List[int]:
        hpt = self.pcu.hpt
        masks = hpt._masks.get(domain)
        if masks is None:
            return [0] * hpt.mask_words_per_domain
        return [masks.get_mask(s) for s in range(hpt.mask_words_per_domain)]

    def _regions(self, domain: int):
        """``(address_of, read, words, seals)`` per HPT region of a domain.

        ``words`` are what domain-0's mirrors say the region holds.  The
        read path ANDs seals out, so a word is expected to *read* back as
        ``word & ~seal`` — otherwise a seal under a live grant would look
        like permanent corruption and the scrubber would "repair"
        forever.  The seal regions themselves read raw (zero seals).
        """
        hpt = self.pcu.hpt
        seal_inst = self._expected_seal_inst(domain)
        seal_regs = self._expected_seal_regs(domain)
        seal_masks = self._expected_seal_masks(domain)
        return (
            (hpt.inst_word_address, hpt.read_inst_word,
             self._granted_inst_words(domain), seal_inst),
            (hpt.reg_word_address, hpt.read_reg_word,
             self._granted_reg_words(domain), seal_regs),
            (hpt.mask_address, hpt.read_mask,
             self._granted_masks(domain), seal_masks),
            (hpt.seal_inst_address, hpt.read_seal_inst_word,
             seal_inst, [0] * len(seal_inst)),
            (hpt.seal_reg_address, hpt.read_seal_reg_word,
             seal_regs, [0] * len(seal_regs)),
            (hpt.seal_mask_address, hpt.read_seal_mask,
             seal_masks, [0] * len(seal_masks)),
        )

    def domain_checksum(self, domain: int) -> int:
        """Checksum of one domain's HPT regions as held in trusted memory.

        Covers the seal overlay too (raw seal words): a flipped seal bit
        has no lockstep signature — both PCU and oracle read the same
        flipped word — so this audit is the detector of record for
        un-seal attempts against trusted memory.
        """
        hpt = self.pcu.hpt
        words = [hpt.read_inst_word(domain, i)
                 for i in range(hpt.inst_words_per_domain)]
        words += [hpt.read_reg_word(domain, i)
                  for i in range(hpt.reg_words_per_domain)]
        words += [hpt.read_mask(domain, s)
                  for s in range(hpt.mask_words_per_domain)]
        words += [hpt.read_seal_inst_word(domain, i)
                  for i in range(hpt.inst_words_per_domain)]
        words += [hpt.read_seal_reg_word(domain, i)
                  for i in range(hpt.reg_words_per_domain)]
        words += [hpt.read_seal_mask(domain, s)
                  for s in range(hpt.mask_words_per_domain)]
        return _fold(words)

    def expected_domain_checksum(self, domain: int) -> int:
        """The same checksum derived from domain-0's mirrors."""
        return _fold([word & ~seal
                      for _, _, words, seals in self._regions(domain)
                      for word, seal in zip(words, seals)])

    # ------------------------------------------------------------------
    # Pass 1: memory vs mirrors (repairable).
    # ------------------------------------------------------------------
    def _scrub_hpt_memory(self, report: ScrubReport, repair: bool) -> None:
        memory = self.pcu.trusted_memory
        for domain in self._domains_to_scrub():
            if self.domain_checksum(domain) == self.expected_domain_checksum(domain):
                continue
            for address_of, read, words, seals in self._regions(domain):
                for index, (word, seal) in enumerate(zip(words, seals)):
                    if read(domain, index) == word & ~seal:
                        continue
                    if repair:
                        # The whole granted word, not its sealed view:
                        # a seal retired later must uncover the grant.
                        memory.store_word(address_of(domain, index), word,
                                          origin="scrub")
                        self.pcu.stats.scrub_repairs += 1
                    report.memory_repairs += 1
            report.repaired_domains.append(domain)
            # The PCU may have cached the corrupt word already.
            if repair:
                self.pcu.invalidate_privileges(domain)

    def _scrub_sgt_memory(self, report: ScrubReport, repair: bool) -> None:
        sgt = self.pcu.sgt
        memory = self.pcu.trusted_memory
        for gate_id in range(sgt.gate_nr):
            address = sgt.entry_address(gate_id)
            entry = self.manager.gates.get(gate_id)
            if entry is not None:
                expected = [entry.gate_address, entry.destination_address,
                            entry.destination_domain, 1]
            else:
                # Unregistered slot: only the valid word is architectural
                # (register() rewrites the triple before setting valid).
                expected = [None, None, None, 0]
            for offset, want in enumerate(expected):
                if want is None:
                    continue
                word_address = address + offset * WORD_BYTES
                if memory.load_word(word_address) == want:
                    continue
                if repair:
                    memory.store_word(word_address, want, origin="scrub")
                    self.pcu.stats.scrub_repairs += 1
                    self.pcu.sgt_cache.invalidate(gate_id)
                report.memory_repairs += 1
                if gate_id not in report.repaired_gates:
                    report.repaired_gates.append(gate_id)

    def _scrub_virtualizer(self, report: ScrubReport, repair: bool) -> None:
        """Domain-virtualization state (DESIGN §3.17), two checks.

        * Every slot's trusted-memory generation word against the
          domain-0 mirror the PCU guards with — a flipped word is
          repairable from the mirror.
        * Every *bound* slot's descriptor against its tenant's manifest —
          a mismatch means a flush-on-reuse (or grant replay) was lost
          and the slot carries a prior tenant's grants; the repair
          flushes the slot and replays the manifest.
        """
        virtualizer = getattr(self.manager, "virtualizer", None)
        if virtualizer is None:
            return
        memory = self.pcu.trusted_memory
        for physical in sorted(virtualizer._slot_index):
            address = virtualizer.generation_address_of(physical)
            want = virtualizer.generations.get(physical, 0)
            if memory.load_word(address) == want:
                continue
            if repair:
                memory.store_word(address, want, origin="scrub")
                self.pcu.stats.scrub_repairs += 1
            report.memory_repairs += 1
            report.repaired_generations.append(physical)
        for physical in sorted(virtualizer.slot_owner):
            if virtualizer.slot_conforms(physical):
                continue
            if repair:
                virtualizer.refresh_slot(physical)
                self.pcu.stats.scrub_repairs += 1
            report.memory_repairs += 1
            report.repaired_slots.append(physical)

    # ------------------------------------------------------------------
    # Pass 2: cache layer vs (repaired) memory.
    # ------------------------------------------------------------------
    def _verify_hpt_caches(self, report: ScrubReport) -> None:
        hpt = self.pcu.hpt
        modules = (
            ("inst", self.pcu.hpt_cache.inst, hpt.read_inst_word),
            ("reg", self.pcu.hpt_cache.reg, hpt.read_reg_word),
            ("mask", self.pcu.hpt_cache.mask, hpt.read_mask),
        )
        for name, cache, read in modules:
            for tag, payload in cache.items():
                domain, index = tag
                try:
                    want = read(domain, index)
                except Exception:
                    report.cache_detections.append(
                        "%s cache holds out-of-range tag %r" % (name, tag))
                    continue
                if payload != want:
                    report.cache_detections.append(
                        "%s cache entry %r holds 0x%x, memory says 0x%x"
                        % (name, tag, payload, want))

    def _verify_sgt_cache(self, report: ScrubReport) -> None:
        cache = self.pcu.sgt_cache._cache
        if cache is None:
            return
        for gate_id, payload in cache.items():
            try:
                want = self.pcu.sgt.read_entry(gate_id)
            except GateFault:
                report.cache_detections.append(
                    "SGT cache holds unregistered gate %d" % gate_id)
                continue
            if payload != want:
                report.cache_detections.append(
                    "SGT cache entry %d diverges from memory" % gate_id)

    def _verify_bypass(self, report: ScrubReport) -> None:
        bypass = self.pcu.bypass
        domain = bypass.loaded_domain
        if domain is None:
            return
        if bypass._words != self.pcu.hpt.read_inst_words(domain):
            report.cache_detections.append(
                "bypass instruction-privilege register diverges from HPT "
                "(domain %d)" % domain)

    def _draco_key_legal(self, key) -> bool:
        """Re-derive one proven-legal tuple from the HPT memory words."""
        domain, inst_class, csr, csr_read, csr_write, value, old = key
        hpt = self.pcu.hpt
        word = hpt.read_inst_word(domain, inst_class // 64)
        if not word >> (inst_class % 64) & 1:
            return False
        if csr is None:
            return True
        reg_word = hpt.read_reg_word(domain, (2 * csr) // 64)
        if csr_read and not reg_word >> ((2 * csr) % 64) & 1:
            return False
        if csr_write:
            slot = self.pcu.isa_map.mask_slot(csr)
            if slot is not None:
                if value is None or old is None:
                    return False
                if (old ^ value) & ~hpt.read_mask(domain, slot):
                    return False
            elif not reg_word >> ((2 * csr) % 64 + 1) & 1:
                return False
        return True

    def _verify_draco(self, report: ScrubReport) -> None:
        draco = self.pcu.draco
        if draco is None:
            return
        for key, _ in draco.items():
            try:
                legal = self._draco_key_legal(key)
            except Exception:
                legal = False
            if not legal:
                report.cache_detections.append(
                    "Draco cache proves a now-illegal tuple %r" % (key,))

    # ------------------------------------------------------------------
    # Pass 3: trusted stack digest (unrepairable on mismatch).
    # ------------------------------------------------------------------
    def _verify_stack(self, report: ScrubReport) -> None:
        try:
            self.pcu.trusted_stack.verify_digest()
        except IntegrityFault as fault:
            report.unrepairable.append(str(fault))

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = True) -> ScrubReport:
        """One full integrity pass; repairs what has a good copy."""
        report = ScrubReport()
        self.pcu.stats.scrubs += 1
        self._scrub_hpt_memory(report, repair)
        self._scrub_sgt_memory(report, repair)
        self._scrub_virtualizer(report, repair)
        self._verify_hpt_caches(report)
        self._verify_sgt_cache(report)
        self._verify_bypass(report)
        self._verify_draco(report)
        self._verify_stack(report)
        if report.cache_detections:
            if repair:
                # The cache layer lied: unstick every line, flush, and
                # distrust caches until a later scrub comes back clean.
                for cache in (self.pcu.hpt_cache.inst, self.pcu.hpt_cache.reg,
                              self.pcu.hpt_cache.mask):
                    cache.unpin_all()
                if self.pcu.sgt_cache._cache is not None:
                    self.pcu.sgt_cache._cache.unpin_all()
                if self.pcu.draco is not None:
                    self.pcu.draco.unpin_all()
                self.pcu.enter_degraded_mode()
                report.entered_degraded = True
        elif self.pcu.degraded and not report.unrepairable:
            # Caches verified clean while degraded: trust them again.
            if repair:
                self.pcu.exit_degraded_mode()
                report.exited_degraded = True
        return report

    def verify_repaired(self, report: ScrubReport) -> bool:
        """Confirm one repairing scrub left the state clean — targeted.

        The recovery claim used to be backed by a *second* full scrub
        after the final audit; this re-checks only what that audit
        actually touched, at O(repaired) instead of O(whole state):

        * every domain whose HPT words were rewritten must now checksum
          against its mirror;
        * every rewritten SGT entry must match the registration record;
        * if the cache layer lied, the audit flushed everything and
          entered degraded mode — confirm the caches really are empty;
        * the trusted-stack digest (already recomputed by the audit)
          must not have flagged unrepairable corruption.

        Nothing else can have changed between the audit and this check
        (no events run in between), so passing here is equivalent to a
        full confirmation scrub coming back clean.
        """
        if report.unrepairable:
            return False
        for domain in report.repaired_domains:
            if self.domain_checksum(domain) != \
                    self.expected_domain_checksum(domain):
                return False
        memory = self.pcu.trusted_memory
        sgt = self.pcu.sgt
        for gate_id in report.repaired_gates:
            entry = self.manager.gates.get(gate_id)
            expected = ([entry.gate_address, entry.destination_address,
                         entry.destination_domain, 1]
                        if entry is not None else [None, None, None, 0])
            address = sgt.entry_address(gate_id)
            for offset, want in enumerate(expected):
                if want is not None and \
                        memory.load_word(address + offset * WORD_BYTES) != want:
                    return False
        virtualizer = getattr(self.manager, "virtualizer", None)
        if virtualizer is not None:
            for physical in report.repaired_generations:
                address = virtualizer.generation_address_of(physical)
                if memory.load_word(address) != \
                        virtualizer.generations.get(physical, 0):
                    return False
            for physical in report.repaired_slots:
                if not virtualizer.slot_conforms(physical):
                    return False
        if report.cache_detections:
            caches = [self.pcu.hpt_cache.inst, self.pcu.hpt_cache.reg,
                      self.pcu.hpt_cache.mask]
            if self.pcu.sgt_cache._cache is not None:
                caches.append(self.pcu.sgt_cache._cache)
            if self.pcu.draco is not None:
                caches.append(self.pcu.draco)
            if any(len(cache) for cache in caches):
                return False
            if not self.pcu.degraded:
                return False
        return True

    def scrub_or_halt(self, repair: bool = True) -> ScrubReport:
        """Scrub; raise IntegrityFault on unrepairable corruption."""
        report = self.scrub(repair=repair)
        if report.unrepairable:
            raise IntegrityFault("; ".join(report.unrepairable),
                                 region="trusted_stack")
        return report


def make_scrubber(world) -> IntegrityScrubber:
    """Scrubber for a conformance world (``pcu`` + ``manager`` holder)."""
    return IntegrityScrubber(world.pcu, world.manager)
