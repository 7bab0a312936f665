"""The Privilege Check Unit (Sections 3.3 and 4).

The PCU is the single hardware unit ISA-Grid adds to a core.  It owns

* the architectural registers of Table 2 (:class:`PcuRegisters`),
* the hybrid-grained privilege check engine (against the HPT),
* the unforgeable domain switching engine (against the SGT and the
  trusted stack), and
* the domain privilege cache with its bypass register.

The host CPU calls :meth:`check` for every issued instruction and
:meth:`execute_gate` for the three gate instructions.  Both return the
stall cycles the check added (0 on every cache hit); privilege
violations raise :class:`~repro.core.errors.PrivilegeFault` subclasses,
which the simulated machine turns into architectural traps.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .cache import FullyAssociativeCache, HptCacheSet, InstPrivilegeRegister, SgtCache
from .config import PcuConfig
from .errors import (
    BitMaskViolationFault,
    ConfigurationError,
    GateFault,
    InstructionPrivilegeFault,
    RegisterReadFault,
    RegisterWriteFault,
    StaleGenerationFault,
    TrustedMemoryFault,
)
from .hpt import HybridPrivilegeTable
from .isa_extension import AccessInfo, CacheId, GateKind, IsaGridIsaMap, PcuRegisters
from .sgt import SwitchingGateTable
from .stats import BlockSummaryStats, PcuStats
from .trusted_memory import TrustedMemory, TrustedStack

DOMAIN_0 = 0

#: Verdict modes of :meth:`PrivilegeCheckUnit.check_block_summary`.
#: ``BLOCK_REFUSED`` sends the CPU back to the per-instruction check
#: path for this block; the other three authorize executing the whole
#: block against the one probe, and name the statistics profile
#: :meth:`~PrivilegeCheckUnit.account_block` must replay afterwards.
BLOCK_REFUSED = 0
BLOCK_DOMAIN0 = 1   # domain-0: per-inst checks would count inst_checks only
BLOCK_BYPASS = 2    # warm bypass: per-inst checks would also count bypass_hits
BLOCK_SILENT = 3    # PCU disabled: per-inst checks would count nothing


class PrivilegeCheckUnit:
    """One PCU instance attached to one simulated core."""

    def __init__(
        self,
        isa_map: IsaGridIsaMap,
        config: PcuConfig,
        trusted_memory: TrustedMemory,
    ):
        self.isa_map = isa_map
        self.config = config
        self.trusted_memory = trusted_memory
        self.registers = PcuRegisters(
            tmemb=trusted_memory.base, tmeml=trusted_memory.limit
        )
        # The trusted range as :meth:`check_memory_access` tests it:
        # ``TrustedMemory.contains``'s mask compare, read once, since
        # nothing reassigns a TrustedMemory's base or size.
        self._tmem_mask = ~(trusted_memory.size - 1)
        self._tmem_base = trusted_memory.base

        self.hpt = HybridPrivilegeTable(
            isa_map, trusted_memory, max_domains=config.max_domains
        )
        self.sgt = SwitchingGateTable(trusted_memory, max_gates=config.max_gates)
        self.registers.inst_cap = self.hpt.inst_cap
        self.registers.csr_cap = self.hpt.csr_cap
        self.registers.csr_bit_mask = self.hpt.csr_bit_mask
        self.registers.gate_addr = self.sgt.base

        self.hpt_cache = HptCacheSet(config, self.hpt)
        self.sgt_cache = SgtCache(config, self.sgt)
        self.bypass = InstPrivilegeRegister()
        # Optional Draco-style cache of known-legal accesses (Section 8):
        # a hit proves legality without running the check pipeline.
        self.draco = (
            FullyAssociativeCache(config.draco_entries)
            if config.draco_entries
            else None
        )
        self.trusted_stack = TrustedStack(trusted_memory, self.registers)
        self.stats = PcuStats()
        self.enabled = True
        # Degraded mode (fault recovery): after the scrubber detects
        # cache-vs-HPT divergence the PCU stops trusting its caches and
        # serves every check via direct trusted-memory walks — correct
        # but paying the refill latency on each access — until a clean
        # scrub re-enables caching.
        self.degraded = False
        # Compiled verdict plan (simulator fast path, DESIGN §3.14).
        # Eligibility is static per config: the warm-bypass short
        # circuit in :meth:`check` is only a faithful compression of
        # the pipeline when the bypass register exists to be its
        # backing store and no Draco cache wants its hit/fill
        # bookkeeping run.  ``_fast`` is the live switch — cleared for
        # the duration of degraded mode, where every check must pay
        # the direct-walk path.  ``_csr_plan`` holds the per-CSR bit
        # geometry (word index, read/write shifts, mask slot), which
        # depends only on the immutable ISA map, never on privileges,
        # so it is computed once and never invalidated.
        self._fast_capable = (
            config.fast_path and config.bypass_enabled and self.draco is None
        )
        self._fast = self._fast_capable
        self._csr_plan: dict = {}
        # Block-summary eligibility (DESIGN §3.18).  Static per config:
        # the summary probe is only a faithful compression of N warm
        # bypass checks when the compiled verdict plan is the backing
        # store, so every condition that forbids ``_fast_capable``
        # (bypass disabled, armed Draco entries, ``fast_path=False``)
        # forbids block summaries too, plus the dedicated
        # ``block_summaries`` escape hatch.  The machine campaigns'
        # lockstep monitor, which must see every per-instruction
        # ``check``, clears it while installed; it is the only observer
        # that does (an armed contract tap gets one ``block`` event per
        # retired block from :meth:`account_block` instead).  The
        # *live* conditions (degraded mode, cold or foreign bypass,
        # stale generation) are re-tested on every probe in
        # :meth:`check_block_summary`.
        self._block_capable = config.block_summaries and self._fast_capable
        self.block_stats = BlockSummaryStats()
        # Contract-monitor tap (repro.contracts, DESIGN §3.16).  ``None``
        # keeps every hot path on its original instruction sequence, so
        # an unmonitored run is bit-identical to pre-tap builds; a
        # ContractMonitor installs itself here via ``attach``.
        self._tap = None
        # Slot-generation table (domain virtualization, DESIGN §3.17).
        # ``None`` keeps every check path generation-blind (one
        # is-not-None test when dormant); a DomainVirtualizer installs
        # its live {physical domain: generation} mapping here.  The PCU
        # latches the destination's generation on every domain switch;
        # a later mismatch means the slot was recycled under the
        # running core and the check must hard-fault, never serve a
        # stale verdict.
        self.generation_table = None
        self._entry_generation = 0

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------
    @property
    def current_domain(self) -> int:
        return self.registers.domain

    @property
    def previous_domain(self) -> int:
        return self.registers.pdomain

    def reset(self) -> None:
        """Processor reset: back to the all-privileged domain-0."""
        self.registers.domain = DOMAIN_0
        self.registers.pdomain = DOMAIN_0
        self.bypass.invalidate()
        self._entry_generation = 0

    def _enter_domain(self, destination: int) -> None:
        if self.config.flush_on_switch:
            # Section 8 trade-off: flush privilege state on every switch
            # so one domain cannot PRIME+PROBE another's check history.
            self.flush(CacheId.ALL)
            if self.draco is not None:
                self.draco.flush()
        self.registers.pdomain = self.registers.domain
        self.registers.domain = destination
        self.bypass.invalidate()
        self.stats.domain_switches += 1
        table = self.generation_table
        if table is not None:
            self._entry_generation = table.get(destination, 0)

    # ------------------------------------------------------------------
    # Hybrid-grained privilege check engine (Section 4.1).
    # ------------------------------------------------------------------
    def check(self, access: AccessInfo) -> int:
        """Check one issued instruction; return added stall cycles.

        Domain-0 holds every privilege by default (Section 4.4), so its
        checks always pass without touching the caches.

        The warm-cache common case — bypass register loaded for the
        current domain, no Draco cache, not degraded — is served by the
        compiled verdict plan inline here: the instruction verdict is
        one shift of the live bypass words, and CSR accesses go through
        :meth:`_fast_csr` with precomputed bit geometry.  Everything
        else falls back to :meth:`_check_slow`, the original pipeline.
        The two paths are bit-identical in verdicts, faults, stall
        cycles and statistics (see DESIGN §3.14 and the fast-vs-slow
        differential tests); only the number of Python frames differs.
        """
        if not self.enabled:
            return 0
        if self._tap is not None:
            return self._traced_check(access)
        stats = self.stats
        stats.inst_checks += 1
        domain = self.registers.domain
        if domain == DOMAIN_0:
            return 0
        table = self.generation_table
        if table is not None and table.get(domain, 0) != self._entry_generation:
            self._fault(
                StaleGenerationFault(
                    domain, table.get(domain, 0), self._entry_generation,
                    address=access.address,
                )
            )
        if self._fast:
            bypass = self.bypass
            if bypass._domain == domain:
                # Mirrors _check_instruction's bypass-hit arm: the live
                # register words are the verdict vector (reading them
                # live keeps fault-injected corruption visible, exactly
                # like InstPrivilegeRegister.allowed would).
                stats.bypass_hits += 1
                inst_class = access.inst_class
                if not bypass._words[inst_class >> 6] >> (inst_class & 63) & 1:
                    self._fault(
                        InstructionPrivilegeFault(
                            inst_class, domain=domain, address=access.address
                        )
                    )
                if access.csr is None:
                    return 0
                return self._fast_csr(domain, access)
        return self._check_slow(domain, access)

    def _traced_check(self, access: AccessInfo) -> int:
        """Run :meth:`check` with the tap muted, then emit one event.

        The class-qualified inner call sidesteps both recursion through
        this wrapper and instance-attribute shadowing (the machine
        campaigns' lockstep monitor replaces ``pcu.check`` on the
        instance), so the traced verdict — stall cycles, faults and
        statistics included — is exactly the untraced one.
        """
        tap, self._tap = self._tap, None
        status = "ok"
        try:
            return PrivilegeCheckUnit.check(self, access)
        except BaseException as error:
            status = type(error).__name__
            raise
        finally:
            self._tap = tap
            tap.on_check(self, access, status)

    def _check_slow(self, domain: int, access: AccessInfo) -> int:
        """The uncompiled pipeline: cold bypass, Draco, degraded mode."""
        if self.degraded:
            return self._check_degraded(domain, access)

        # Draco-style shortcut (Section 8): a previously proven-legal
        # access tuple skips the whole check pipeline.
        draco_key = None
        if self.draco is not None:
            # The written value only decides legality for bit-masked
            # CSRs; folding it into every key would make ordinary CSR
            # writes with varying values miss forever.
            masked = (
                access.csr is not None
                and access.csr_write
                and self.isa_map.mask_slot(access.csr) is not None
            )
            draco_key = (
                domain, access.inst_class, access.csr,
                access.csr_read, access.csr_write,
                access.write_value if masked else None,
                access.old_value if masked else None,
            )
            if self.draco.lookup(draco_key) is not None:
                self.stats.draco_hits += 1
                return 0

        stall = self._check_instruction(domain, access)
        if access.csr is not None:
            stall += self._check_csr(domain, access)
        if draco_key is not None:
            self.draco.fill(draco_key, True)  # only reached if legal
        self.stats.stall_cycles += stall
        return stall

    def _fast_csr(self, domain: int, access: AccessInfo) -> int:
        """Verdict-plan CSR check: _check_csr with precompiled geometry.

        Replays the exact statistics, LRU promotion, fill and fault
        sequence of ``hpt_cache.reg_word`` + ``_check_csr``, but with
        the per-CSR shifts and mask slot fetched from the static
        ``_csr_plan`` and the cache touched through its dict directly
        (fetched fresh each call — ``flush`` may replace the dict when
        lines are pinned).
        """
        csr = access.csr
        plan = self._csr_plan.get(csr)
        if plan is None:
            shift = (2 * csr) % 64
            plan = ((2 * csr) // 64, shift, shift + 1,
                    self.isa_map.mask_slot(csr))
            self._csr_plan[csr] = plan
        word_index, read_shift, write_shift, mask_slot = plan
        stats = self.stats
        reg_stats = stats.reg_cache
        reg_stats.lookups += 1
        reg = self.hpt_cache.reg
        entries = reg._entries
        tag = (domain, word_index)
        word = entries.get(tag)
        if word is not None:
            reg_stats.hits += 1
            entries.move_to_end(tag)
            stall = 0
        else:
            reg_stats.misses += 1
            word = self.hpt.read_reg_word(domain, word_index)
            reg.fill(tag, word)
            reg_stats.fills += 1
            stall = self.config.refill_latency

        if access.csr_read:
            stats.csr_read_checks += 1
            if not word >> read_shift & 1:
                self._fault(
                    RegisterReadFault(csr, domain=domain, address=access.address)
                )
        if access.csr_write:
            stats.csr_write_checks += 1
            if mask_slot is not None:
                stall += self._check_mask(domain, mask_slot, access)
            elif not word >> write_shift & 1:
                self._fault(
                    RegisterWriteFault(csr, domain=domain, address=access.address)
                )
        stats.stall_cycles += stall
        return stall

    def verdict_plan(self):
        """The active compiled verdict, or ``None`` when decompiled.

        Introspection for the coherence tests: returns
        ``(domain, instruction_words)`` exactly when the next warm
        check would be served by the fast path.  Every invalidation
        entry point (``invalidate_privileges``, ``flush``, degraded
        mode, domain switches) must leave this ``None`` or freshly
        reloaded, never stale.
        """
        if not self._fast:
            return None
        domain = self.bypass._domain
        if domain is None:
            return None
        return domain, tuple(self.bypass._words)

    # ------------------------------------------------------------------
    # Block-level privilege summaries (DESIGN §3.18).
    # ------------------------------------------------------------------
    def check_block_summary(self, summary) -> int:
        """One probe deciding a whole straight-line block.

        ``summary`` is the union of everything the block's instructions
        would ask :meth:`check` for: the inst-bitmap bits they need, as
        sparse ``(word_index, mask)`` pairs (blocks never contain CSR
        accesses, gates or other self-checking instructions).  Returns a
        ``BLOCK_*`` mode: anything but :data:`BLOCK_REFUSED` proves
        that running :meth:`check` once per member would pass with zero
        stall and touch only the counters
        :meth:`account_block` replays — so the CPU may execute the
        block and skip the N per-instruction calls.  Its answer holds
        until the epoch ends (DESIGN §3.18 "Epochs"): block members
        change none of the state read here, so the executor asks once
        per block per epoch, and every answer but a refusal within one
        epoch is the same mode.

        Refusal is always safe (the CPU falls back to per-instruction
        checks, the reference semantics), so every live condition the
        verdict plan invalidates on refuses here: degraded mode and
        decompiled plans (``_fast``), a cleared ``_block_capable`` (the
        machine campaigns' lockstep monitor must see every call), a
        recycled tenant slot (generation mismatch — the per-instruction
        path raises the architectural :class:`StaleGenerationFault`),
        and a cold or foreign bypass register.  Each refusal is counted
        by reason.  An armed contract tap does not refuse: the block's
        one ``block`` event from :meth:`account_block` stands for the
        member ``check`` events the per-instruction path would emit.
        The probe itself never mutates privilege or statistics state
        beyond :attr:`block_stats`, which is deliberately outside
        :class:`PcuStats`.
        """
        if not self.enabled:
            return BLOCK_SILENT
        block_stats = self.block_stats
        block_stats.probes += 1
        if not self._block_capable or not self._fast:
            block_stats.refused_decompiled += 1
            return BLOCK_REFUSED
        domain = self.registers.domain
        if domain == DOMAIN_0:
            block_stats.hits += 1
            return BLOCK_DOMAIN0
        table = self.generation_table
        if table is not None and table.get(domain, 0) != self._entry_generation:
            block_stats.refused_stale += 1
            return BLOCK_REFUSED
        bypass = self.bypass
        if bypass._domain != domain:
            block_stats.refused_bypass += 1
            return BLOCK_REFUSED
        words = bypass._words
        for index, needed in summary:
            if words[index] & needed != needed:
                block_stats.refused_class += 1
                return BLOCK_REFUSED
        block_stats.hits += 1
        return BLOCK_BYPASS

    def account_block(self, mode: int, retired) -> None:
        """Replay what the per-instruction checks of an epoch's retired
        blocks would have done under ``mode``.

        ``retired`` holds one tuple of decoded instruction classes per
        retired block, in retirement order: a whole block, or, last, its
        prefix up to and including a faulting member (the check of a
        faulting instruction precedes its trap, so the caller includes
        it and calls this before dispatching the trap).  Every probe of
        an epoch that did not refuse returned ``mode``, and nothing in
        an epoch changes the domain (DESIGN §3.18 "Epochs"), so the
        executor settles the whole epoch in this one call.  The counters
        those checks would have bumped are replayed, and an armed
        contract tap receives one ``block`` event per tuple, in order,
        naming the classes, which a contract judges exactly as the
        member ``check`` events it stands for.  A disabled PCU
        (:data:`BLOCK_SILENT`) runs no checks, so it emits nothing.
        """
        count = sum(map(len, retired))
        self.block_stats.insts += count
        if mode == BLOCK_SILENT:
            return
        stats = self.stats
        stats.inst_checks += count
        if mode == BLOCK_BYPASS:
            stats.bypass_hits += count
        tap = self._tap
        if tap is not None:
            for classes in retired:
                tap.on_block(self, classes)

    def _check_instruction(self, domain: int, access: AccessInfo) -> int:
        if self.config.bypass_enabled:
            verdict = self.bypass.allowed(domain, access.inst_class)
            if verdict is not None:
                self.stats.bypass_hits += 1
                if not verdict:
                    self._fault(
                        InstructionPrivilegeFault(
                            access.inst_class, domain=domain, address=access.address
                        )
                    )
                return 0
            stall = self._fill_bypass(domain)
            if not self.bypass.allowed(domain, access.inst_class):
                self._fault(
                    InstructionPrivilegeFault(
                        access.inst_class, domain=domain, address=access.address
                    )
                )
            return stall

        word_index, offset = divmod(access.inst_class, 64)
        word, stall = self.hpt_cache.inst_word(
            domain, word_index, self.stats.inst_cache
        )
        if not word >> offset & 1:
            self._fault(
                InstructionPrivilegeFault(
                    access.inst_class, domain=domain, address=access.address
                )
            )
        return stall

    def _fill_bypass(self, domain: int) -> int:
        """Pull the whole instruction bitmap into the bypass register."""
        words = []
        stall = 0
        for index in range(self.hpt.inst_words_per_domain):
            word, cycles = self.hpt_cache.inst_word(
                domain, index, self.stats.inst_cache
            )
            words.append(word)
            stall += cycles
        self.bypass.load(domain, words)
        self.stats.bypass_fills += 1
        return stall

    def _check_csr(self, domain: int, access: AccessInfo) -> int:
        csr = access.csr
        word_index = (2 * csr) // 64
        word, stall = self.hpt_cache.reg_word(domain, word_index, self.stats.reg_cache)
        read_bit = word >> ((2 * csr) % 64) & 1
        write_bit = word >> ((2 * csr) % 64 + 1) & 1

        if access.csr_read:
            self.stats.csr_read_checks += 1
            if not read_bit:
                self._fault(
                    RegisterReadFault(csr, domain=domain, address=access.address)
                )
        if access.csr_write:
            self.stats.csr_write_checks += 1
            slot = self.isa_map.mask_slot(csr)
            if slot is not None:
                # Bitwise-controlled CSR: the mask decides writability.
                stall += self._check_mask(domain, slot, access)
            elif not write_bit:
                self._fault(
                    RegisterWriteFault(csr, domain=domain, address=access.address)
                )
        return stall

    def _check_mask(self, domain: int, slot: int, access: AccessInfo) -> int:
        self.stats.mask_checks += 1
        mask, stall = self.hpt_cache.mask_word(domain, slot, self.stats.mask_cache)
        if access.write_value is None or access.old_value is None:
            raise ConfigurationError(
                "bitwise CSR write check requires old and new values"
            )
        if (access.old_value ^ access.write_value) & ~mask:
            self._fault(
                BitMaskViolationFault(
                    access.csr,
                    access.old_value,
                    access.write_value,
                    mask,
                    domain=domain,
                    address=access.address,
                )
            )
        return stall

    def _check_degraded(self, domain: int, access: AccessInfo) -> int:
        """Serve one check via direct HPT walks, bypassing every cache.

        Semantically identical to the cached pipeline (the oracle path):
        only the latency differs — each structure read pays the full
        refill latency because nothing may be cached while degraded.
        """
        self.stats.degraded_checks += 1
        stall = self.config.refill_latency
        word_index, offset = divmod(access.inst_class, 64)
        if not self.hpt.read_inst_word(domain, word_index) >> offset & 1:
            self._fault(
                InstructionPrivilegeFault(
                    access.inst_class, domain=domain, address=access.address
                )
            )
        csr = access.csr
        if csr is not None:
            stall += self.config.refill_latency
            word = self.hpt.read_reg_word(domain, (2 * csr) // 64)
            read_bit = word >> ((2 * csr) % 64) & 1
            write_bit = word >> ((2 * csr) % 64 + 1) & 1
            if access.csr_read:
                self.stats.csr_read_checks += 1
                if not read_bit:
                    self._fault(
                        RegisterReadFault(csr, domain=domain, address=access.address)
                    )
            if access.csr_write:
                self.stats.csr_write_checks += 1
                slot = self.isa_map.mask_slot(csr)
                if slot is not None:
                    self.stats.mask_checks += 1
                    stall += self.config.refill_latency
                    mask = self.hpt.read_mask(domain, slot)
                    if access.write_value is None or access.old_value is None:
                        raise ConfigurationError(
                            "bitwise CSR write check requires old and new values"
                        )
                    if (access.old_value ^ access.write_value) & ~mask:
                        self._fault(
                            BitMaskViolationFault(
                                access.csr, access.old_value, access.write_value,
                                mask, domain=domain, address=access.address,
                            )
                        )
                elif not write_bit:
                    self._fault(
                        RegisterWriteFault(csr, domain=domain, address=access.address)
                    )
        self.stats.stall_cycles += stall
        return stall

    def _fault(self, fault) -> None:
        self.stats.record_fault(fault)
        raise fault

    # ------------------------------------------------------------------
    # Unforgeable domain switching engine (Section 4.2).
    # ------------------------------------------------------------------
    def execute_gate(
        self,
        kind: GateKind,
        gate_id: int,
        pc: int,
        return_address: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Execute a gate instruction at ``pc``.

        Returns ``(target_pc, stall_cycles)``.  Gate instructions are
        executable from every domain; the SGT entry, not the HPT, decides
        legality.  Raises :class:`GateFault` when the runtime address
        does not match the registered gate address (defeating injected or
        ROP-constructed gates) or the gate is unregistered.
        """
        if self._tap is not None:
            return self._traced_gate(kind, gate_id, pc, return_address)
        table = self.generation_table
        if table is not None:
            domain = self.registers.domain
            if domain != DOMAIN_0 and \
                    table.get(domain, 0) != self._entry_generation:
                self._fault(
                    StaleGenerationFault(
                        domain, table.get(domain, 0),
                        self._entry_generation, address=pc,
                    )
                )
        if kind is GateKind.HCRETS:
            return self._execute_return(pc)

        try:
            if self.degraded:
                # No SGT caching while degraded: read the entry straight
                # from trusted memory (may raise GateFault when invalid).
                self.stats.degraded_checks += 1
                entry = self.sgt.read_entry(gate_id)
                stall = self.config.refill_latency
            else:
                entry, stall = self.sgt_cache.entry(gate_id, self.stats.sgt_cache)
        except GateFault as fault:
            fault.domain = self.registers.domain
            fault.address = pc
            self._fault(fault)
            raise  # unreachable; _fault always raises

        if not entry.matches_call_site(pc):
            self._fault(
                GateFault(
                    "gate %d called from 0x%x, registered at 0x%x"
                    % (gate_id, pc, entry.gate_address),
                    gate_id=gate_id,
                    domain=self.registers.domain,
                    address=pc,
                )
            )

        if kind is GateKind.HCCALLS:
            if return_address is None:
                raise ConfigurationError("hccalls requires a return address")
            self.trusted_stack.push(return_address, self.registers.domain)
            self.stats.gate_calls_extended += 1
        else:
            self.stats.gate_calls += 1

        self._enter_domain(entry.destination_domain)
        self.stats.stall_cycles += stall
        return entry.destination_address, stall

    def _traced_gate(
        self,
        kind: GateKind,
        gate_id: int,
        pc: int,
        return_address: Optional[int],
    ) -> Tuple[int, int]:
        """Run :meth:`execute_gate` tap-muted, then emit one gate event.

        Same shape as :meth:`_traced_check`: the pre-domain is captured
        before the call and the event carries both sides of the switch,
        so the gate-only-switches contract can judge the transition.
        """
        tap, self._tap = self._tap, None
        pre_domain = self.registers.domain
        status = "ok"
        try:
            return PrivilegeCheckUnit.execute_gate(
                self, kind, gate_id, pc, return_address
            )
        except BaseException as error:
            status = type(error).__name__
            raise
        finally:
            self._tap = tap
            tap.on_gate(self, kind, gate_id, pre_domain, status)

    def _execute_return(self, pc: int) -> Tuple[int, int]:
        """``hcrets``: pop the trusted stack and return cross-domain."""
        return_address, domain = self.trusted_stack.pop()
        if domain == DOMAIN_0:
            # Section 4.4: hcrets must never re-enter the all-privileged
            # init domain at a non-registered address.
            self._fault(
                GateFault(
                    "hcrets may not return to domain-0",
                    domain=self.registers.domain,
                    address=pc,
                )
            )
        self.stats.gate_returns += 1
        self._enter_domain(domain)
        return return_address, 0

    # ------------------------------------------------------------------
    # Cache management instructions (Section 5.1).
    # ------------------------------------------------------------------
    def prefetch(self, csr: int = 0) -> None:
        """``pfch #csr``: warm the HPT caches; ``csr == 0`` fetches all.

        (CSR index 0 is reserved by the ISA maps for this encoding.)
        """
        if not self.config.prefetch_enabled:
            return
        domain = self.registers.domain
        if csr == 0:
            self.hpt_cache.prefetch_all(
                domain, self.stats.reg_cache, self.stats.mask_cache
            )
        else:
            self.hpt_cache.prefetch_csr(
                domain, csr, self.stats.reg_cache, self.stats.mask_cache
            )

    def flush(self, cache_id: CacheId = CacheId.ALL) -> None:
        """``pflh #bufid``: flush one privilege-cache module (0 = all)."""
        if cache_id in (CacheId.ALL, CacheId.INST_BITMAP):
            self.hpt_cache.inst.flush()
            self.bypass.invalidate()
            self.stats.inst_cache.flushes += 1
        if cache_id in (CacheId.ALL, CacheId.REG_BITMAP):
            self.hpt_cache.reg.flush()
            self.stats.reg_cache.flushes += 1
        if cache_id in (CacheId.ALL, CacheId.BIT_MASK):
            self.hpt_cache.mask.flush()
            self.stats.mask_cache.flushes += 1
        if cache_id in (CacheId.ALL, CacheId.SGT):
            self.sgt_cache.flush()
            self.stats.sgt_cache.flushes += 1
        if cache_id is CacheId.ALL and self.draco is not None:
            self.draco.flush()

    def invalidate_privileges(
        self,
        domain: Optional[int] = None,
        *,
        inst: bool = True,
        regs: bool = True,
        masks: bool = True,
        csr: Optional[int] = None,
    ) -> None:
        """Coherence sweep after domain-0 edits the HPT.

        A cached word filled before the edit would keep granting (or
        denying) the *old* privileges, so every HPT mutation must drop
        the affected entries.  Tags in all three HPT caches (and keys in
        the Draco cache) lead with the domain id, so one predicate sweep
        per module covers every group the domain shares.  ``domain=None``
        sweeps every domain.

        When the edit touched a single CSR, passing ``csr`` narrows the
        sweep: only the register-bitmap word and mask slot covering that
        CSR are dropped, and only the Draco tuples proven against that
        CSR — warm entries for the domain's other registers survive the
        reconfigure instead of being collateral damage.
        """
        def hits(tag) -> bool:
            return domain is None or tag[0] == domain

        narrow = csr is not None and domain is not None
        if inst:
            self.hpt_cache.inst.invalidate_where(hits)
            if domain is None or self.bypass.loaded_domain == domain:
                self.bypass.invalidate()
        if regs:
            if narrow:
                self.hpt_cache.reg.invalidate((domain, (2 * csr) // 64))
            else:
                self.hpt_cache.reg.invalidate_where(hits)
        if masks:
            if narrow:
                slot = self.isa_map.mask_slot(csr)
                if slot is not None:
                    self.hpt_cache.mask.invalidate((domain, slot))
            else:
                self.hpt_cache.mask.invalidate_where(hits)
        if self.draco is not None:
            # Draco caches whole proven-legal tuples; a privilege edit
            # can retroactively falsify them.  A CSR-scoped edit only
            # falsifies tuples proven against that CSR (key layout:
            # (domain, inst_class, csr, ...)); instruction edits falsify
            # the whole domain.
            if narrow and not inst:
                self.draco.invalidate_where(
                    lambda tag: tag[0] == domain and tag[2] == csr
                )
            else:
                self.draco.invalidate_where(hits)

    # ------------------------------------------------------------------
    # Degraded (cache-distrust) operation — fault recovery support.
    # ------------------------------------------------------------------
    def enter_degraded_mode(self) -> None:
        """Stop trusting the privilege caches until the next clean scrub.

        Flushes everything (including the Draco cache and the bypass
        register) and routes all subsequent checks through direct
        trusted-memory walks.  Idempotent.
        """
        self.flush(CacheId.ALL)
        # Decompile the verdict plan explicitly: while degraded, even a
        # freshly refilled bypass register must not short-circuit the
        # direct-HPT-walk path.
        self._fast = False
        if not self.degraded:
            self.degraded = True
            self.stats.degraded_entries += 1

    def exit_degraded_mode(self) -> None:
        """Re-enable caching; only the scrubber calls this, post-repair."""
        self.degraded = False
        self._fast = self._fast_capable

    # ------------------------------------------------------------------
    # Trusted memory enforcement (Section 4.5).
    # ------------------------------------------------------------------
    def check_memory_access(self, address: int, pc: int = 0) -> None:
        """Software load/store filter: trusted memory is domain-0-only.

        Every load and store a CPU performs on behalf of software goes
        through this check.  The CPUs look it up on ``cpu.pcu`` at each
        access, so an instance attribute shadowing it (the lockstep
        monitor's) sees every one.  Thanks to the power-of-two range,
        the bound test is one mask compare.
        """
        if not self.enabled:
            return
        domain = self.registers.domain
        if domain == DOMAIN_0:
            return
        table = self.generation_table
        if table is not None and table.get(domain, 0) != self._entry_generation:
            self._fault(
                StaleGenerationFault(
                    domain, table.get(domain, 0), self._entry_generation,
                    address=pc,
                )
            )
        if (address & self._tmem_mask) == self._tmem_base:
            self._fault(
                TrustedMemoryFault(address, domain=domain, address=pc)
            )
