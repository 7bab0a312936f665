"""Domain-ID virtualization: unbounded tenants over fixed HPT slots.

The paper's HPT/bitmap tables hold a fixed number of domain slots
(``PcuConfig.max_domains``), but a production deployment — ERIM-style
per-tenant in-process isolation — means thousands-to-millions of
short-lived *logical* domains with constant create/grant/revoke/destroy
churn.  :class:`DomainVirtualizer` multiplexes that unbounded logical id
space onto a small pool of *physical* slots with free-list recycling.

The dangerous failure mode is a classic use-after-free: a recycled
physical slot serving a stale privilege verdict for a dead tenant.
Three mechanisms close it (DESIGN §3.17):

* **Per-slot generation counters.**  Every slot owns one trusted-memory
  word (and a domain-0 software mirror shared with the PCU as
  ``pcu.generation_table``).  The PCU latches the slot's generation when
  the core enters a domain; any later check or gate against a bumped
  generation raises :class:`~repro.core.errors.StaleGenerationFault` —
  a hard fault, never a stale verdict.
* **Transactional flush-on-reuse.**  Rebinding a slot clears its HPT
  words, descriptor and gate inside one
  :meth:`DomainManager._transaction`, riding the existing trusted-memory
  journal: a fault mid-recycle rolls the whole rebind back rather than
  leaving the new tenant with the old tenant's grants.
* **Graceful degradation.**  When every slot is live the virtualizer
  applies bounded backpressure: it evicts the least-recently-used
  *evictable* binding (never a pinned tenant, never the current /
  previous domain, never a domain live on the trusted stack) and counts
  the event in ``stats.slot_exhausted``.  Only when nothing is evictable
  does it raise the catchable :class:`SlotExhausted` — it never crashes
  and never silently reuses a live slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from .errors import ConfigurationError
from .pcu import DOMAIN_0
from .trusted_memory import WORD_BYTES

#: Per-slot gate call sites and destination entry points live outside
#: trusted memory at fixed strides so a slot's gate address is a pure
#: function of its index (stable across recycling).
GATE_BASE = 0x50_0000
DEST_BASE = 0x58_0000
_GATE_STRIDE = 0x40


class SlotExhausted(ConfigurationError):
    """Every physical slot is live and none may be evicted.

    Raised as *bounded backpressure*, not a crash: callers (the churn
    workload, a scheduler) catch it and retry after retiring a tenant or
    letting gate traffic drain the trusted stack.
    """

    def __init__(self, max_slots: int):
        super().__init__(
            "all %d domain slots are live and none is evictable" % max_slots
        )
        self.max_slots = max_slots


@dataclass
class TenantManifest:
    """The privilege set a logical tenant *should* hold when bound.

    The manifest is the durable, slot-independent record of a tenant's
    grants: binding a slot replays it through the
    :class:`~repro.core.domain.DomainManager` grant API, and the
    integrity scrubber compares a bound slot's descriptor against it to
    catch a dropped flush-on-reuse (stale grants from the slot's prior
    tenant surviving into the new binding).
    """

    instructions: Set[str] = field(default_factory=set)
    readable_csrs: Set[str] = field(default_factory=set)
    writable_csrs: Set[str] = field(default_factory=set)


@dataclass
class VirtualizerStats:
    """Lifetime counters of one virtualizer (reported by churn campaigns)."""

    spawned: int = 0
    retired: int = 0
    binds: int = 0
    recycles: int = 0
    evictions: int = 0
    slot_exhausted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "spawned": self.spawned,
            "retired": self.retired,
            "binds": self.binds,
            "recycles": self.recycles,
            "evictions": self.evictions,
            "slot_exhausted": self.slot_exhausted,
        }


class DomainVirtualizer:
    """Maps unbounded logical tenant ids onto a bounded slot pool.

    Physical slots are ordinary :class:`DomainManager` domains, created
    lazily (at most ``max_slots`` of them) and *never* destroyed — their
    descriptors stay alive across recycling and only their contents are
    flushed and replayed.  Python-side binding state is mutated strictly
    after the enclosing trusted-memory transaction commits, so an
    injected fault that aborts a bind or recycle leaves the virtualizer
    agreeing with the rolled-back tables.
    """

    def __init__(self, manager, max_slots: int = 64):
        if max_slots < 1:
            raise ConfigurationError("need at least one domain slot")
        if max_slots >= manager.pcu.config.max_domains:
            raise ConfigurationError(
                "max_slots %d must leave room under max_domains %d"
                % (max_slots, manager.pcu.config.max_domains)
            )
        self.manager = manager
        self.pcu = manager.pcu
        self.max_slots = max_slots
        memory = self.pcu.trusted_memory
        # One generation word per slot, in trusted memory (scrub target).
        self._gen_base = memory.allocate(max_slots)
        #: physical domain id -> slot index (0..max_slots-1)
        self._slot_index: Dict[int, int] = {}
        #: physical domain id -> generation (domain-0 software mirror;
        #: shared with the PCU/oracle as their ``generation_table``)
        self.generations: Dict[int, int] = {}
        #: logical tenant id -> manifest
        self.tenants: Dict[int, TenantManifest] = {}
        #: logical tenant id -> physical domain id (bound tenants only)
        self.bindings: Dict[int, int] = {}
        #: physical domain id -> logical tenant id
        self.slot_owner: Dict[int, int] = {}
        #: physical domain id -> registered gate id
        self.slot_gate: Dict[int, int] = {}
        #: physical domain id -> last-activation tick (LRU eviction key)
        self.last_use: Dict[int, int] = {}
        self.free_slots: List[int] = []
        self.pinned: Set[int] = set()
        self._next_logical = 1
        self._tick = 0
        self.stats = VirtualizerStats()
        # Install: the manager exposes us to the scrubber / contract
        # monitor, and the PCU starts latching slot generations.
        manager.virtualizer = self
        self.pcu.generation_table = self.generations

    # ------------------------------------------------------------------
    # Slot geometry.
    # ------------------------------------------------------------------
    def generation_address_of(self, physical: int) -> int:
        """Trusted-memory address of a slot's generation word."""
        return self._gen_base + self._slot_index[physical] * WORD_BYTES

    def gate_address_of(self, physical: int) -> int:
        return GATE_BASE + self._slot_index[physical] * _GATE_STRIDE

    def dest_address_of(self, physical: int) -> int:
        return DEST_BASE + self._slot_index[physical] * _GATE_STRIDE

    def gate_id_of(self, physical: int) -> int:
        return self.slot_gate[physical]

    @property
    def live_tenants(self) -> int:
        return len(self.tenants)

    @property
    def bound_slots(self) -> int:
        return len(self.slot_owner)

    def _new_slot(self) -> int:
        index = len(self._slot_index)
        descriptor = self.manager.create_domain("vslot%d" % index)
        physical = descriptor.domain_id
        self._slot_index[physical] = index
        self.generations[physical] = 0
        try:
            self.pcu.trusted_memory.store_word(
                self.generation_address_of(physical), 0, origin="d0"
            )
        except BaseException:
            # The slot exists now, so a faulted store must not strand it
            # outside the pool: it joins the front of the free list,
            # where a retried bind finds it.  Its freshly allocated word
            # was never written and reads the mirrored generation 0.
            self.free_slots.insert(0, physical)
            raise
        return physical

    # ------------------------------------------------------------------
    # Tenant lifecycle.
    # ------------------------------------------------------------------
    def spawn(self, manifest: Optional[TenantManifest] = None) -> int:
        """Create a logical tenant; no slot is consumed until activation."""
        logical = self._next_logical
        self._next_logical += 1
        self.tenants[logical] = manifest if manifest is not None else TenantManifest()
        self.stats.spawned += 1
        return logical

    def retire(self, logical: int) -> None:
        """Destroy a logical tenant, recycling its slot if bound."""
        if logical not in self.tenants:
            raise ConfigurationError("unknown logical tenant %d" % logical)
        if logical in self.bindings:
            self._unbind(logical)
        del self.tenants[logical]
        self.stats.retired += 1

    def activate(self, logical: int) -> int:
        """Return the tenant's physical slot, binding one if needed.

        Raises :class:`SlotExhausted` when the pool is saturated with
        unevictable bindings — the caller's backpressure signal.
        """
        if logical not in self.tenants:
            raise ConfigurationError("unknown logical tenant %d" % logical)
        self._tick += 1
        physical = self.bindings.get(logical)
        if physical is None:
            physical = self._bind(logical)
        self.last_use[physical] = self._tick
        return physical

    def pin(self, logical: int) -> None:
        """Exempt a tenant's binding from LRU eviction."""
        self.pinned.add(logical)

    def unpin(self, logical: int) -> None:
        self.pinned.discard(logical)

    # ------------------------------------------------------------------
    # Tenant reconfiguration (DomainManager grants on logical ids).
    # ------------------------------------------------------------------
    def allow_instructions(self, logical: int, class_names: Iterable[str]) -> None:
        names = list(class_names)
        manifest = self._manifest(logical)
        physical = self.bindings.get(logical)
        if physical is not None:
            self.manager.allow_instructions(physical, names)
        manifest.instructions.update(names)

    def deny_instruction(self, logical: int, class_name: str) -> None:
        manifest = self._manifest(logical)
        physical = self.bindings.get(logical)
        if physical is not None:
            self.manager.deny_instruction(physical, class_name)
        manifest.instructions.discard(class_name)

    def grant_register(
        self, logical: int, csr_name: str, *, read: bool = False, write: bool = False
    ) -> None:
        manifest = self._manifest(logical)
        physical = self.bindings.get(logical)
        if physical is not None:
            self.manager.grant_register(physical, csr_name, read=read, write=write)
        if read:
            manifest.readable_csrs.add(csr_name)
        if write:
            manifest.writable_csrs.add(csr_name)

    def revoke_register(
        self, logical: int, csr_name: str, *, read: bool = False, write: bool = False
    ) -> None:
        manifest = self._manifest(logical)
        physical = self.bindings.get(logical)
        if physical is not None:
            self.manager.revoke_register(physical, csr_name, read=read, write=write)
        if read:
            manifest.readable_csrs.discard(csr_name)
        if write:
            manifest.writable_csrs.discard(csr_name)

    def seal_privileges(
        self, logical: int, instructions: Iterable[str] = (),
        csrs: Iterable[str] = (), *, read: bool = True, write: bool = True,
    ) -> None:
        """One-way seal on the tenant's *current* slot incarnation.

        Seals are slot state, not manifest state: they retire with the
        binding (``_reset_seals`` on recycle) and are deliberately not
        replayed on a rebind — a seal pins down a live incarnation, it
        is not a durable grant-shaped intent.  Sealing an unbound
        tenant is therefore a no-op.
        """
        self._manifest(logical)
        physical = self.bindings.get(logical)
        if physical is not None:
            self.manager.seal_privileges(physical, instructions=instructions,
                                         csrs=csrs, read=read, write=write)

    def _manifest(self, logical: int) -> TenantManifest:
        try:
            return self.tenants[logical]
        except KeyError:
            raise ConfigurationError("unknown logical tenant %d" % logical) from None

    # ------------------------------------------------------------------
    # Slot conformance (scrubber surface).
    # ------------------------------------------------------------------
    def slot_conforms(self, physical: int) -> bool:
        """Does a bound slot's descriptor match its tenant's manifest?

        A mismatch means the flush-on-reuse (or a grant replay) was lost:
        the slot holds grants its tenant never asked for — exactly the
        stale-privilege escape recycling must prevent.
        """
        logical = self.slot_owner.get(physical)
        if logical is None:
            return True
        manifest = self.tenants[logical]
        descriptor = self.manager.domains[physical]
        return (
            descriptor.instructions == manifest.instructions
            and descriptor.readable_csrs == manifest.readable_csrs
            and descriptor.writable_csrs == manifest.writable_csrs
        )

    def refresh_slot(self, physical: int) -> None:
        """Scrubber repair: flush the slot and replay its manifest."""
        logical = self.slot_owner.get(physical)
        if logical is None:
            return
        manifest = self.tenants[logical]
        with self.manager._transaction((physical,)):
            self._do_flush(physical)
            self.manager._emit("clear_domain", domain=physical)
            self._apply_manifest(physical, manifest)

    # ------------------------------------------------------------------
    # Bind / recycle (the transactional slot machinery).
    # ------------------------------------------------------------------
    def _recycle_window(self, physical: int) -> None:
        """Fault-injection hook: runs inside every bind/recycle
        transaction, before the stores, so campaigns can arm a trusted-
        memory store fault squarely in the recycle window."""

    def _flush_slot(self, physical: int) -> None:
        """The droppable flush-on-reuse step (fault-injection hook)."""
        self._do_flush(physical)

    def _reset_seals(self, physical: int) -> None:
        """The droppable seal-retirement step (fault-injection hook).

        Runs with the generation bump so a recycled slot never inherits
        the retired tenant's seal overlay; if dropped, the stale seals
        only *narrow* the next tenant until bind-time flush clears them.
        """
        self.pcu.hpt.clear_seals(physical)

    def _do_flush(self, physical: int) -> None:
        descriptor = self.manager.domains[physical]
        self.pcu.hpt.clear_domain(physical)
        descriptor.instructions.clear()
        descriptor.readable_csrs.clear()
        descriptor.writable_csrs.clear()
        descriptor.bit_grants.clear()
        self.pcu.invalidate_privileges(physical)

    def _apply_manifest(self, physical: int, manifest: TenantManifest) -> None:
        if manifest.instructions:
            self.manager.allow_instructions(physical, sorted(manifest.instructions))
        for csr_name in sorted(manifest.readable_csrs):
            self.manager.grant_register(physical, csr_name, read=True)
        for csr_name in sorted(manifest.writable_csrs):
            self.manager.grant_register(physical, csr_name, write=True)

    def _bind(self, logical: int) -> int:
        physical = self._acquire_slot()
        manifest = self.tenants[logical]
        index = self._slot_index[physical]
        gate_id = index  # stable per-slot gate id, reused across recycling
        generation = self.generations[physical]
        try:
            with self.manager._transaction((physical,), gates=True):
                self._recycle_window(physical)
                self._flush_slot(physical)
                # Narrated independently of the (droppable) flush itself:
                # the contract monitor must model the *intended* table
                # state.
                self.manager._emit("clear_domain", domain=physical)
                self._apply_manifest(physical, manifest)
                self.manager.register_gate(
                    self.gate_address_of(physical),
                    self.dest_address_of(physical),
                    physical,
                    gate_id=gate_id,
                )
                self.manager._emit(
                    "bind_slot", domain=physical, bits=generation, dest=logical
                )
        except BaseException:
            # The acquired slot was already popped off the free list; an
            # aborted bind must hand it back (front of the FIFO, so a
            # retried bind deterministically reuses the same slot).
            self.free_slots.insert(0, physical)
            raise
        self.bindings[logical] = physical
        self.slot_owner[physical] = logical
        self.slot_gate[physical] = gate_id
        self.stats.binds += 1
        return physical

    def _unbind(self, logical: int) -> None:
        physical = self.bindings[logical]
        gate_id = self.slot_gate[physical]
        new_generation = self.generations[physical] + 1
        memory = self.pcu.trusted_memory
        with self.manager._transaction((physical,), gates=True):
            self._recycle_window(physical)
            # Bump the slot generation *first*: from this commit on, any
            # core still holding the old entry generation hard-faults.
            memory.store_word(
                self.generation_address_of(physical), new_generation, origin="sw"
            )
            # Retire the tenant's seal overlay with the generation bump:
            # the seal belongs to the tenant, not the slot.  These clears
            # are journalled, and the seal mirrors merge back on abort,
            # so a rolled-back recycle leaves the tenant still sealed.
            self._reset_seals(physical)
            self.manager.unregister_gate(gate_id)
            self.manager._emit(
                "recycle_slot", domain=physical, bits=new_generation, dest=logical
            )
        self.generations[physical] = new_generation
        del self.bindings[logical]
        del self.slot_owner[physical]
        del self.slot_gate[physical]
        self.free_slots.append(physical)
        self.pcu.invalidate_privileges(physical)
        self.stats.recycles += 1

    def _acquire_slot(self) -> int:
        if self.free_slots:
            return self.free_slots.pop(0)
        if len(self._slot_index) < self.max_slots:
            return self._new_slot()
        # Pool saturated: bounded backpressure, not a crash.
        self.stats.slot_exhausted += 1
        candidates = self._evictable()
        if not candidates:
            raise SlotExhausted(self.max_slots)
        victim = min(
            candidates,
            key=lambda p: (self.last_use.get(p, -1), self._slot_index[p]),
        )
        self._unbind(self.slot_owner[victim])
        self.stats.evictions += 1
        return self.free_slots.pop()

    def _evictable(self) -> List[int]:
        """Bound slots that may be recycled right now.

        Never the current or previous domain (the core could retire a
        check against them this instant), never a domain live in a
        trusted-stack frame (an ``hcrets`` would return into the
        recycled slot), never a pinned tenant's slot.
        """
        live = {self.pcu.current_domain, self.pcu.previous_domain}
        live |= self._stack_live_domains()
        return [
            physical
            for physical, logical in self.slot_owner.items()
            if logical not in self.pinned and physical not in live
        ]

    def _stack_live_domains(self) -> Set[int]:
        registers = self.pcu.registers
        memory = self.pcu.trusted_memory
        frame_bytes = 2 * WORD_BYTES
        live = set()
        for sp in range(registers.hcsb, registers.hcsp, frame_bytes):
            domain = memory.load_word(sp + WORD_BYTES)
            if domain != DOMAIN_0:
                live.add(domain)
        return live
