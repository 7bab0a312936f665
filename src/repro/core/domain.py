"""Domain-0 software runtime: domain and gate registration (Section 5.2).

:class:`DomainManager` is the software that runs in domain-0.  It owns
the id spaces of domains and gates, edits the HPT and SGT through the
PCU, and applies a pluggable :class:`RegistrationPolicy` so deployments
can e.g. reject domains with overlapping privileges (the paper notes
ISA-Grid itself does not force exclusivity; policy is software's job).

The API is name-based: callers grant ``"csrrw"`` or ``"satp"`` rather
than raw indices, using the architecture's
:class:`~repro.core.isa_extension.IsaGridIsaMap`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .errors import ConfigurationError
from .pcu import DOMAIN_0, PrivilegeCheckUnit
from .sgt import GateEntry


@dataclass
class DomainDescriptor:
    """Bookkeeping for one ISA domain (domain-0 software state)."""

    domain_id: int
    name: str
    instructions: Set[str] = field(default_factory=set)
    readable_csrs: Set[str] = field(default_factory=set)
    writable_csrs: Set[str] = field(default_factory=set)
    bit_grants: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        return "%s(id=%d): %d inst classes, %d readable, %d writable CSRs" % (
            self.name,
            self.domain_id,
            len(self.instructions),
            len(self.readable_csrs),
            len(self.writable_csrs),
        )


class RegistrationRejected(ConfigurationError):
    """A registration policy refused a domain or gate registration."""


#: A policy receives (manager, descriptor-or-gate) and raises
#: :class:`RegistrationRejected` to refuse; return value is ignored.
RegistrationPolicy = Callable[["DomainManager", object], None]


def allow_all_policy(manager: "DomainManager", request: object) -> None:
    """Default policy: accept every registration."""


def exclusive_writers_policy(manager: "DomainManager", request: object) -> None:
    """Example policy: no two domains may both write the same CSR.

    The paper suggests domain-0 software may "reject creating domains
    with overlapping privileges"; this is the natural reading for write
    privileges, where overlap defeats least-privilege decomposition.
    """
    if not isinstance(request, DomainDescriptor):
        return
    for other in manager.domains.values():
        if other.domain_id in (request.domain_id, DOMAIN_0):
            continue
        overlap = other.writable_csrs & request.writable_csrs
        if overlap:
            raise RegistrationRejected(
                "domain %s overlaps write privileges %s with %s"
                % (request.name, sorted(overlap), other.name)
            )


class DomainManager:
    """The domain-0 runtime controlling one PCU."""

    def __init__(
        self,
        pcu: PrivilegeCheckUnit,
        policy: RegistrationPolicy = allow_all_policy,
    ):
        self.pcu = pcu
        self.isa_map = pcu.isa_map
        self.policy = policy
        self.domains: Dict[int, DomainDescriptor] = {
            DOMAIN_0: DomainDescriptor(DOMAIN_0, "domain-0")
        }
        self._names: Dict[str, int] = {"domain-0": DOMAIN_0}
        self._next_domain = 1
        self.gates: Dict[int, GateEntry] = {}
        # Commit-window accounting: how many top-level reconfiguration
        # transactions ran to completion or rolled back, and how many
        # journalled stores the most recent one performed.  Machine-level
        # fault campaigns use these to verify their faults landed inside
        # (or outside) a window.
        self.transactions_committed = 0
        self.transactions_rolled_back = 0
        # Contract-monitor tap (repro.contracts, DESIGN §3.16).  Every
        # mutating method narrates its table edits through ``_emit``;
        # ``None`` makes that a no-op.
        self._tap = None
        # Domain virtualization layer (DESIGN §3.17).  A
        # :class:`~repro.core.domain_virtualization.DomainVirtualizer`
        # installs itself here so the integrity scrubber and the
        # contract monitor can discover slot bindings and generation
        # words without any call-site plumbing.
        self.virtualizer = None

    def _emit(self, op: str, **fields) -> None:
        """Narrate one table mutation to the attached contract tap."""
        if self._tap is not None:
            self._tap.on_reconfig(op, **fields)

    # ------------------------------------------------------------------
    # Transactional reconfiguration (fault containment, Section 4.4).
    # ------------------------------------------------------------------
    @contextmanager
    def _transaction(self, domains: Tuple[int, ...] = (), gates: bool = False):
        """Run one reconfiguration atomically against faults.

        Arms the trusted-memory journal and snapshots the python-side
        mirrors (HPT bitmaps, descriptors, gate table) the update will
        touch.  If anything raises mid-update — most importantly an
        injected trusted-memory store fault — every journalled word is
        restored, the mirrors are rolled back, and the privilege caches
        are swept so a half-applied grant can never widen privileges.
        Nested calls (destroy_domain → unregister_gate) join the open
        transaction instead of starting their own.
        """
        memory = self.pcu.trusted_memory
        if memory.in_transaction:
            yield
            return
        hpt = self.pcu.hpt
        grant_mirrors = (hpt._inst, hpt._regs, hpt._masks)
        domain_snaps = []
        seal_snaps = []
        for d in domains:
            desc = self.domains.get(d)
            # Copies, not references: grants mutate the live mirrors in
            # place.  ``None`` records a mirror the domain did not have.
            grants = []
            for mirror in grant_mirrors:
                value = mirror.get(d)
                grants.append(None if value is None else value.copy())
            domain_snaps.append((
                d,
                grants,
                desc,
                None if desc is None else (
                    set(desc.instructions), set(desc.readable_csrs),
                    set(desc.writable_csrs), dict(desc.bit_grants),
                ),
            ))
            # Seal mirrors are restored by OR-merging the snapshot with
            # whatever is sealed at abort time: a journalled seal *clear*
            # (teardown/recycle) rolls back with the memory journal, but
            # a journal-bypassed seal *set* can never be reverted — the
            # merge only ever moves toward more sealed.
            seal_snaps.append((
                d,
                list(hpt._seal_inst.get(d, ())),
                list(hpt._seal_regs.get(d, ())),
                list(hpt._seal_masks.get(d, ())),
            ))
        gate_snap = None
        if gates:
            gate_snap = (dict(self.gates), self.pcu.sgt._next_id,
                         self.pcu.registers.gate_nr)
        memory.begin_transaction()
        try:
            yield
        except BaseException:
            memory.abort_transaction()
            for d, grants, desc, fields in domain_snaps:
                for mirror, value in zip(grant_mirrors, grants):
                    if value is None:
                        mirror.pop(d, None)
                    else:
                        mirror[d] = value
                if desc is not None:
                    (desc.instructions, desc.readable_csrs,
                     desc.writable_csrs, desc.bit_grants) = fields
                    self.domains[d] = desc
                    self._names[desc.name] = d
            for d, seal_inst, seal_regs, seal_masks in seal_snaps:
                for mirror, snap, n_words in (
                    (hpt._seal_inst, seal_inst, hpt.inst_words_per_domain),
                    (hpt._seal_regs, seal_regs, hpt.reg_words_per_domain),
                    (hpt._seal_masks, seal_masks, hpt.mask_words_per_domain),
                ):
                    current = mirror.get(d, ())
                    merged = [
                        (snap[i] if i < len(snap) else 0)
                        | (current[i] if i < len(current) else 0)
                        for i in range(n_words)
                    ]
                    if any(merged):
                        mirror[d] = merged
                    else:
                        mirror.pop(d, None)
            if gate_snap is not None:
                self.gates, self.pcu.sgt._next_id = gate_snap[0], gate_snap[1]
                self.pcu.registers.gate_nr = gate_snap[2]
                self.pcu.sgt_cache.flush()
            # The PCU may have cached words filled mid-update; sweep the
            # touched domains so refills see only the rolled-back truth.
            for d in domains:
                self.pcu.invalidate_privileges(d)
            if not domains:
                self.pcu.invalidate_privileges()
            self.pcu.stats.reconfig_rollbacks += 1
            self.transactions_rolled_back += 1
            raise
        else:
            memory.commit_transaction()
            self.transactions_committed += 1

    @property
    def last_transaction_stores(self) -> int:
        """Journalled stores of the current or most recent transaction."""
        return self.pcu.trusted_memory.transaction_stores

    # ------------------------------------------------------------------
    # Domain registration.
    # ------------------------------------------------------------------
    def create_domain(self, name: Optional[str] = None) -> DomainDescriptor:
        """Create a fresh, fully de-privileged ISA domain.

        New domains start with *no* privileges; code in them must be
        granted instruction classes and CSR access explicitly
        (Section 8, "Development Complexity").
        """
        domain_id = self._next_domain
        if domain_id >= self.pcu.config.max_domains:
            raise ConfigurationError("out of domain ids")
        if name is None:
            name = "domain-%d" % domain_id
        if name in self._names:
            raise ConfigurationError("duplicate domain name %r" % name)
        descriptor = DomainDescriptor(domain_id, name)
        self.policy(self, descriptor)
        self._next_domain += 1
        self.domains[domain_id] = descriptor
        self._names[name] = domain_id
        self.pcu.registers.domain_nr = self._next_domain
        self._emit("create_domain", domain=domain_id)
        return descriptor

    def domain_id(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise ConfigurationError("unknown domain %r" % name) from None

    # ------------------------------------------------------------------
    # Privilege grants (write-through to the HPT in trusted memory).
    # ------------------------------------------------------------------
    def allow_instructions(self, domain_id: int, class_names: Iterable[str]) -> None:
        descriptor = self._descriptor(domain_id)
        names = list(class_names)
        classes = [self.isa_map.inst_class(n) for n in names]
        with self._transaction((domain_id,)):
            self.pcu.hpt.allow_instructions(domain_id, classes)
            descriptor.instructions.update(names)
            for inst_class in classes:
                self._emit("allow_inst", domain=domain_id, inst=inst_class)
            # Grants need invalidation too: a word cached while the class
            # was denied would keep faulting the freshly-granted
            # instruction.
            self.pcu.invalidate_privileges(domain_id, regs=False, masks=False)
            self._refresh_policy(descriptor)

    def allow_all_instructions(self, domain_id: int) -> None:
        descriptor = self._descriptor(domain_id)
        with self._transaction((domain_id,)):
            self.pcu.hpt.allow_all_instructions(domain_id)
            descriptor.instructions.update(self.isa_map.inst_class_names)
            for inst_class in range(self.isa_map.n_inst_classes):
                self._emit("allow_inst", domain=domain_id, inst=inst_class)
            self.pcu.invalidate_privileges(domain_id, regs=False, masks=False)
            self._refresh_policy(descriptor)

    def deny_instruction(self, domain_id: int, class_name: str) -> None:
        descriptor = self._descriptor(domain_id)
        inst_class = self.isa_map.inst_class(class_name)
        with self._transaction((domain_id,)):
            self.pcu.hpt.deny_instruction(domain_id, inst_class)
            descriptor.instructions.discard(class_name)
            self._emit("deny_inst", domain=domain_id, inst=inst_class)
            # Revocation: drop stale cached privileges of this domain only.
            self.pcu.invalidate_privileges(domain_id, regs=False, masks=False)

    def grant_register(
        self, domain_id: int, csr_name: str, *, read: bool = False, write: bool = False
    ) -> None:
        descriptor = self._descriptor(domain_id)
        csr = self.isa_map.csr_index(csr_name)
        with self._transaction((domain_id,)):
            self.pcu.hpt.grant_register(domain_id, csr, read=read, write=write)
            self._emit("grant_csr", domain=domain_id, csr=csr,
                       read=read, write=write)
            if read:
                descriptor.readable_csrs.add(csr_name)
            if write:
                descriptor.writable_csrs.add(csr_name)
                if self.isa_map.mask_slot(csr) is not None and csr_name not in descriptor.bit_grants:
                    # A full write grant on a bitwise CSR exposes every bit.
                    width = self.isa_map.csr_descriptor(csr).width
                    self.pcu.hpt.set_mask(domain_id, csr, (1 << width) - 1)
                    descriptor.bit_grants[csr_name] = (1 << width) - 1
                    self._emit("set_mask", domain=domain_id, csr=csr,
                               bits=(1 << width) - 1)
            self.pcu.invalidate_privileges(domain_id, inst=False, csr=csr)
            self._refresh_policy(descriptor)

    def grant_register_bits(self, domain_id: int, csr_name: str, bits: int) -> None:
        """Bit-level grant: expose only ``bits`` of a bitwise CSR."""
        descriptor = self._descriptor(domain_id)
        csr = self.isa_map.csr_index(csr_name)
        if self.isa_map.mask_slot(csr) is None:
            raise ConfigurationError(
                "CSR %s is not bitwise-controlled; use grant_register" % csr_name
            )
        with self._transaction((domain_id,)):
            self.pcu.hpt.grant_register(domain_id, csr, write=True)
            self.pcu.hpt.allow_bits(domain_id, csr, bits)
            descriptor.writable_csrs.add(csr_name)
            descriptor.bit_grants[csr_name] = descriptor.bit_grants.get(csr_name, 0) | bits
            self._emit("grant_csr", domain=domain_id, csr=csr, write=True)
            self._emit("set_mask", domain=domain_id, csr=csr,
                       bits=descriptor.bit_grants[csr_name])
            self.pcu.invalidate_privileges(domain_id, inst=False, csr=csr)
            self._refresh_policy(descriptor)

    def set_register_mask(self, domain_id: int, csr_name: str, mask: int) -> None:
        """Set the *exact* write mask of a bitwise CSR (replacing grants)."""
        descriptor = self._descriptor(domain_id)
        csr = self.isa_map.csr_index(csr_name)
        if self.isa_map.mask_slot(csr) is None:
            raise ConfigurationError(
                "CSR %s is not bitwise-controlled" % csr_name
            )
        with self._transaction((domain_id,)):
            self.pcu.hpt.set_mask(domain_id, csr, mask)
            descriptor.bit_grants[csr_name] = mask
            self._emit("set_mask", domain=domain_id, csr=csr, bits=mask)
            self.pcu.invalidate_privileges(domain_id, inst=False, csr=csr)
            self._refresh_policy(descriptor)

    def revoke_register(
        self, domain_id: int, csr_name: str, *, read: bool = False, write: bool = False
    ) -> None:
        descriptor = self._descriptor(domain_id)
        csr = self.isa_map.csr_index(csr_name)
        with self._transaction((domain_id,)):
            self.pcu.hpt.revoke_register(domain_id, csr, read=read, write=write)
            self._emit("revoke_csr", domain=domain_id, csr=csr,
                       read=read, write=write)
            if read:
                descriptor.readable_csrs.discard(csr_name)
            if write:
                descriptor.writable_csrs.discard(csr_name)
                if self.isa_map.mask_slot(csr) is not None:
                    self.pcu.hpt.set_mask(domain_id, csr, 0)
                    descriptor.bit_grants.pop(csr_name, None)
                    self._emit("set_mask", domain=domain_id, csr=csr, bits=0)
            # Revocation: drop stale cached privileges of this domain only.
            self.pcu.invalidate_privileges(domain_id, inst=False, csr=csr)

    # ------------------------------------------------------------------
    # Seals: one-way privilege drops (Efficient Sealable Protection
    # Keys' seal operation, generalized to instruction classes and CSRs).
    # ------------------------------------------------------------------
    def seal_privileges(
        self,
        domain_id: int,
        instructions: Iterable[str] = (),
        csrs: Iterable[str] = (),
        *,
        read: bool = True,
        write: bool = True,
    ) -> None:
        """Irrevocably drop privileges of ``domain_id``.

        Sealed instruction classes and CSR accesses are ANDed out of
        every HPT read below the verdict paths, so later domain-0
        re-grants, slot recycling under a stale flush, and transactional
        rollback all leave the seal in force.  There is deliberately no
        unseal: the seal words are written journal-bypassed (a rolled
        back transaction cannot restore the pre-seal value) and only a
        full domain teardown (``destroy_domain`` / slot recycle under a
        fresh generation) retires them.

        The descriptor keeps the sealed names: it records what was
        *granted*; the seal is an enforcement overlay the PCU applies
        below it.  ``sealed_privileges`` reports the overlay.
        """
        if domain_id == DOMAIN_0:
            raise ConfigurationError("domain-0 privileges cannot be sealed")
        self._descriptor(domain_id)  # domain must exist
        inst_names = list(instructions)
        csr_names = list(csrs)
        if not read and not write:
            csr_names = []
        classes = [self.isa_map.inst_class(n) for n in inst_names]
        csr_indices = [self.isa_map.csr_index(n) for n in csr_names]
        for inst_class in classes:
            self.pcu.hpt.seal_instruction(domain_id, inst_class)
            self._emit("seal", domain=domain_id, inst=inst_class)
        for csr in csr_indices:
            self.pcu.hpt.seal_register(domain_id, csr, read=read, write=write)
            self._emit("seal", domain=domain_id, csr=csr,
                       read=read, write=write)
        if classes or csr_indices:
            # Pre-seal verdicts may still sit in the caches, the bypass
            # register and the Draco proven-legal table; sweep them.
            self.pcu.invalidate_privileges(domain_id)

    def sealed_privileges(self, domain_id: int) -> Dict[str, Set[str]]:
        """The seal overlay of one domain, by resource name."""
        self._descriptor(domain_id)
        hpt = self.pcu.hpt
        sealed_insts = {
            self.isa_map.inst_class_name(i)
            for i in hpt.sealed_instructions(domain_id)
        }
        sealed_reads: Set[str] = set()
        sealed_writes: Set[str] = set()
        for csr, (r, w) in hpt.sealed_registers(domain_id).items():
            name = self.isa_map.csr_name(csr)
            if r:
                sealed_reads.add(name)
            if w:
                sealed_writes.add(name)
        return {
            "instructions": sealed_insts,
            "read_csrs": sealed_reads,
            "write_csrs": sealed_writes,
        }

    def destroy_domain(self, domain_id: int) -> None:
        """Retire a domain: revoke every privilege and drop its gates.

        Domain ids are never reused by this allocator (it is monotonic),
        but the HPT words are zeroed write-through and the privilege
        caches swept so no refill can resurrect the dead domain's
        grants.  (Slot *recycling* — mapping many logical tenants onto
        one physical id — lives a layer above, in
        :mod:`~repro.core.domain_virtualization`, which keeps the
        descriptor alive and guards reuse with generation counters.)
        """
        if domain_id == DOMAIN_0:
            raise ConfigurationError("domain-0 cannot be destroyed")
        descriptor = self._descriptor(domain_id)
        with self._transaction((domain_id,), gates=True):
            self.pcu.hpt.clear_domain(domain_id)
            for gate_id, entry in list(self.gates.items()):
                if entry.destination_domain == domain_id:
                    self.unregister_gate(gate_id)
            self.pcu.invalidate_privileges(domain_id)
            del self.domains[domain_id]
            del self._names[descriptor.name]
            self._emit("clear_domain", domain=domain_id)

    def _descriptor(self, domain_id: int) -> DomainDescriptor:
        try:
            return self.domains[domain_id]
        except KeyError:
            raise ConfigurationError("unknown domain id %d" % domain_id) from None

    def _refresh_policy(self, descriptor: DomainDescriptor) -> None:
        self.policy(self, descriptor)

    # ------------------------------------------------------------------
    # Gate registration.
    # ------------------------------------------------------------------
    def register_gate(
        self,
        gate_address: int,
        destination_address: int,
        destination_domain: int,
        *,
        gate_id: Optional[int] = None,
    ) -> int:
        """Register an unforgeable switching gate; returns the gate id.

        Passing ``gate_id`` re-registers an existing slot (e.g. after a
        module reload); the stale SGT-cache entry is invalidated so the
        next ``hccall`` sees the new triple.
        """
        self._descriptor(destination_domain)  # destination must exist
        # A half-written SGT entry is privilege-widening (a valid bit
        # over a stale triple), so registration is transactional too.
        with self._transaction(gates=True):
            entry = self.pcu.sgt.register(
                gate_address, destination_address, destination_domain, gate_id=gate_id
            )
            self.policy(self, entry)
            self.gates[entry.gate_id] = entry
            self.pcu.sgt_cache.invalidate(entry.gate_id)
            self.pcu.registers.gate_nr = self.pcu.sgt.gate_nr
            self._emit("register_gate", gate=entry.gate_id,
                       dest=destination_domain)
        return entry.gate_id

    def unregister_gate(self, gate_id: int) -> None:
        with self._transaction(gates=True):
            self.pcu.sgt.unregister(gate_id)
            self.pcu.sgt_cache.invalidate(gate_id)
            self.gates.pop(gate_id, None)
            self._emit("unregister_gate", gate=gate_id)

    # ------------------------------------------------------------------
    # Trusted stack management (per-thread contexts, Section 5.2).
    # ------------------------------------------------------------------
    def allocate_trusted_stack(self, frames: int = 64) -> Tuple[int, int]:
        """Carve a trusted-stack window out of trusted memory."""
        words = frames * 2
        base = self.pcu.trusted_memory.allocate(words)
        limit = base + words * 8
        self.pcu.trusted_stack.configure(base, limit)
        return base, limit

    def create_thread_stack(
        self,
        frames: int = 64,
        *,
        entry_address: Optional[int] = None,
        entry_domain: Optional[int] = None,
    ) -> Tuple[int, int, int]:
        """Allocate a trusted stack for another thread (Section 5.2).

        Returns the thread's ``(hcsp, hcsb, hcsl)`` context without
        touching the live registers.  With an entry point given, the
        stack is seeded with one frame so the first ``hcrets`` executed
        on this context "returns" into the thread's entry — the idiom a
        domain-0 scheduler uses to start a fresh thread.
        """
        words = frames * 2
        base = self.pcu.trusted_memory.allocate(words)
        limit = base + words * 8
        pointer = base
        if entry_address is not None:
            if entry_domain is None or entry_domain == DOMAIN_0:
                raise ConfigurationError(
                    "thread entries need a non-domain-0 entry domain"
                )
            self.pcu.trusted_memory.store_word(base, entry_address,
                                               origin="d0")
            self.pcu.trusted_memory.store_word(base + 8, entry_domain,
                                               origin="d0")
            pointer = base + 16
        # The seed frame was written with raw stores, not push(): adopt it
        # into the stack's integrity digest so the first scrub after a
        # switch onto this context doesn't flag the frame as corruption.
        self.pcu.trusted_stack.reseed_digest(base, pointer)
        return pointer, base, limit

    def describe(self) -> List[str]:
        """Human-readable inventory of all registered domains."""
        return [self.domains[i].summary() for i in sorted(self.domains)]
