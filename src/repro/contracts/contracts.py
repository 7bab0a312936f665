"""The universal contracts: ISA-Grid's informal guarantees, made checkable.

Each contract is a small stateful checker over the normalized trace
vocabulary (:mod:`repro.contracts.events`).  A contract keeps its own
*shadow* of the privilege state, rebuilt purely from ``reconfig``
events, and judges every observable event against it — so a checker
never trusts the hardware model it is checking.  ``observe`` returns a
list of human-readable problem strings (empty almost always); the
:class:`~repro.contracts.monitor.ContractMonitor` turns those into
violation records with reproducer context.  The monitor only hands a
contract the event kinds its ``vocabulary`` names; ``observe`` still
returns ``[]`` and leaves its shadow alone for any other kind.

A ``block`` event stands for one ``ok`` ``check`` event per member
class.  Every contract that consumes checks judges it exactly as it
would judge that expansion, with the same number of problems: one per
offending member for C1, C5 and C8, one per member for C7, and at most
one for C3, whose first member check would resync its shadow.  C2
ignores blocks, which never hold a CSR access.

Contracts are deliberately *strict*: they state what the architecture
guarantees, not what the current implementation happens to do.  In a
fault campaign an injected HPT flip legitimately makes the hardware
disagree with the shadow — those violations are expected and get
*waived* by the monitor's fault attribution (DESIGN §3.16); an unwaived
violation is always a real finding.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .events import TraceEvent

#: The architectural root domain (mirrors ``repro.core.domain.DOMAIN_0``;
#: kept literal so this package stays importable without the core).
DOMAIN_0 = 0

#: The shadow of a domain no reconfig has mentioned yet.
_EMPTY: frozenset = frozenset()


class Contract:
    """Base class: a named, stateful checker over trace events."""

    name = "contract"
    description = ""
    #: Event kinds this contract consumes (its trace vocabulary).
    vocabulary: tuple = ()

    def __init__(self):
        self.geometry: Dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Drop all shadow state (called once at construction)."""

    def configure(self, geometry: Dict[str, object]) -> None:
        """Learn the backend geometry (class/CSR counts, masked CSRs)."""
        self.geometry = dict(geometry)

    def _masked(self, csr: int) -> bool:
        return csr in self.geometry.get("masked_csrs", ())

    def observe(self, event: TraceEvent) -> List[str]:
        """Judge one event; return problem strings (usually empty)."""
        raise NotImplementedError


class InstRetirementContract(Contract):
    """C1 — no instruction retires without its inst-bitmap bit set.

    Shadow: the per-domain set of granted instruction classes.  Any
    ``ok`` check outside domain-0 whose class is not currently granted
    is a violation — the defining HPT guarantee of the paper's §4.1.
    """

    name = "inst_retirement"
    description = ("an ok verdict outside domain-0 requires the issuing "
                   "domain's inst-bitmap bit for that instruction class")
    vocabulary = ("check", "block", "reconfig")

    def reset(self) -> None:
        self.allowed: Dict[int, Set[int]] = {}

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            if event.op == "create_domain" or event.op == "clear_domain":
                self.allowed[event.domain] = set()
            elif event.op == "allow_inst":
                self.allowed.setdefault(event.domain, set()).add(event.inst)
            elif event.op == "deny_inst":
                self.allowed.setdefault(event.domain,
                                        set()).discard(event.inst)
            return []
        if event.status != "ok" or event.domain == DOMAIN_0:
            return []
        allowed = self.allowed.get(event.domain, _EMPTY)
        if event.kind == "block":
            if allowed.issuperset(event.classes):
                return []
            return [self._ungranted(inst, event.domain)
                    for inst in event.classes if inst not in allowed]
        if event.kind != "check" or event.inst < 0 or event.inst in allowed:
            return []
        return [self._ungranted(event.inst, event.domain)]

    @staticmethod
    def _ungranted(inst: int, domain: int) -> str:
        return ("instruction class %d retired in domain %d without an "
                "inst-bitmap grant" % (inst, domain))


class CsrRetirementContract(Contract):
    """C2 — CSR accesses honour the register bitmap and write masks.

    Shadow: per-domain readable/writable CSR sets plus per-CSR write
    masks.  An ``ok`` read needs the read bit; an ``ok`` write to an
    unmasked CSR needs the write bit; an ``ok`` write to a *masked* CSR
    must not change bits outside the granted mask — the mask rule
    replaces the write bit entirely for masked registers (§4.2).
    """

    name = "csr_retirement"
    description = ("an ok CSR access outside domain-0 requires the "
                   "read/write bitmap bit, and masked writes may only "
                   "change bits inside the granted mask")
    vocabulary = ("check", "reconfig")

    def reset(self) -> None:
        self.readable: Dict[int, Set[int]] = {}
        self.writable: Dict[int, Set[int]] = {}
        self.masks: Dict[int, Dict[int, int]] = {}

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            domain = event.domain
            if event.op == "create_domain" or event.op == "clear_domain":
                self.readable[domain] = set()
                self.writable[domain] = set()
                self.masks[domain] = {}
            elif event.op == "grant_csr":
                if event.read:
                    self.readable.setdefault(domain, set()).add(event.csr)
                if event.write:
                    self.writable.setdefault(domain, set()).add(event.csr)
            elif event.op == "revoke_csr":
                if event.read:
                    self.readable.setdefault(domain,
                                             set()).discard(event.csr)
                if event.write:
                    self.writable.setdefault(domain,
                                             set()).discard(event.csr)
            elif event.op == "set_mask":
                self.masks.setdefault(domain, {})[event.csr] = event.bits
            return []
        if event.kind != "check" or event.status != "ok":
            return []
        if event.domain == DOMAIN_0 or event.csr < 0:
            return []
        problems: List[str] = []
        if event.read and event.csr not in self.readable.get(event.domain,
                                                             ()):
            problems.append("CSR %d read in domain %d without a read grant"
                            % (event.csr, event.domain))
        if event.write:
            if self._masked(event.csr):
                mask = self.masks.get(event.domain, {}).get(event.csr, 0)
                if (event.old ^ event.value) & ~mask:
                    problems.append(
                        "masked CSR %d write in domain %d changed bits "
                        "0x%x outside the granted mask 0x%x"
                        % (event.csr, event.domain,
                           (event.old ^ event.value) & ~mask, mask))
            elif event.csr not in self.writable.get(event.domain, ()):
                problems.append("CSR %d written in domain %d without a "
                                "write grant" % (event.csr, event.domain))
        return problems


class GateOnlySwitchContract(Contract):
    """C3 — every domain switch passes through a registered gate.

    Shadow: the expected current domain plus the gate table.  Every
    domain-bearing event must occur in the expected domain; successful
    calls must land exactly on the called gate's registered destination;
    successful returns may land anywhere except domain-0; failed gates
    must leave the domain untouched.  (The trusted *stack* is contract
    C6's and the lockstep oracle's business — this contract only polices
    that no switch bypasses the SGT.)
    """

    name = "gate_only_switches"
    description = ("the core's domain only ever changes through a "
                   "successful, registered gate instruction")
    vocabulary = ("check", "block", "gate", "mem_write", "reconfig")

    def reset(self) -> None:
        self.expected = DOMAIN_0
        self.gates: Dict[int, int] = {}

    def _resync(self, event: TraceEvent, where: str) -> List[str]:
        problem = ("%s observed in domain %d but the last gate left the "
                   "core in domain %d" % (where, event.domain, self.expected))
        self.expected = event.domain  # resync: one finding, not a storm
        return [problem]

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            if event.op == "register_gate":
                self.gates[event.gate] = event.dest
            elif event.op == "unregister_gate":
                self.gates.pop(event.gate, None)
            elif event.op == "sync_domain":
                self.expected = event.domain
            return []
        if event.kind == "check" or event.kind == "block":
            if event.domain != self.expected:
                return self._resync(event, "a " + event.kind)
            return []
        if event.kind == "mem_write":
            if event.domain >= 0 and event.domain != self.expected:
                return self._resync(event, "a trusted-memory store")
            return []
        if event.kind != "gate":
            return []
        problems: List[str] = []
        if event.pre_domain != self.expected:
            problems.append("gate executed from domain %d but the core was "
                            "last seen in domain %d"
                            % (event.pre_domain, self.expected))
            self.expected = event.pre_domain
        if event.status != "ok":
            if event.domain != self.expected:
                problems.append("faulted %s changed the domain from %d to %d"
                                % (event.op, self.expected, event.domain))
                self.expected = event.domain
            return problems
        if event.op in ("hccall", "hccalls"):
            dest = self.gates.get(event.gate)
            if dest is None:
                problems.append("successful %s through unregistered gate %d"
                                % (event.op, event.gate))
            elif event.domain != dest:
                problems.append(
                    "gate %d switched the core to domain %d; its registered "
                    "destination is domain %d"
                    % (event.gate, event.domain, dest))
        elif event.op == "hcrets" and event.domain == DOMAIN_0:
            problems.append("successful hcrets returned into domain-0")
        self.expected = event.domain
        return problems


class TrustedMemConfinementContract(Contract):
    """C4 — trusted memory is only written by software from domain-0.

    Software stores must sit inside a domain-0 manager transaction;
    hardware pushes (``hw``), domain-0 provisioning (``d0``) and
    scrubber repairs (``scrub``) are the architecture's own writers and
    are exempt by origin.
    """

    name = "trusted_mem_d0"
    description = ("software writes to trusted memory only occur inside "
                   "domain-0 manager transactions")
    vocabulary = ("mem_write", "txn")

    def reset(self) -> None:
        self.in_txn = False

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "txn":
            self.in_txn = event.op == "begin"
            return []
        if event.kind != "mem_write" or event.op != "sw":
            return []
        if not self.in_txn and event.domain not in (-1, DOMAIN_0):
            return ["software stored 0x%x to trusted word 0x%x from domain "
                    "%d outside any domain-0 transaction"
                    % (event.value, event.address, event.domain)]
        return []


class CoherenceAfterRevokeContract(Contract):
    """C5 — no verdict uses a privilege revoked before the check.

    Shadow: per-domain sets of *revoked* privileges — ever granted,
    later removed, not re-granted since.  An ``ok`` check consuming a
    revoked grant means a stale cached privilege survived the revoke's
    invalidation sweep (§5's cache-coherence obligation).  Masked-CSR
    write staleness is covered by C2's mask rule (revokes zero the
    mask), so only unmasked writes are tracked here.
    """

    name = "coherence_after_revoke"
    description = ("an ok verdict never consumes a privilege whose grant "
                   "was revoked before the check (no stale caches)")
    vocabulary = ("check", "block", "reconfig")

    def reset(self) -> None:
        self.inst_allowed: Dict[int, Set[int]] = {}
        self.inst_revoked: Dict[int, Set[int]] = {}
        self.read_allowed: Dict[int, Set[int]] = {}
        self.read_revoked: Dict[int, Set[int]] = {}
        self.write_allowed: Dict[int, Set[int]] = {}
        self.write_revoked: Dict[int, Set[int]] = {}

    @staticmethod
    def _grant(allowed, revoked, domain, item) -> None:
        allowed.setdefault(domain, set()).add(item)
        revoked.setdefault(domain, set()).discard(item)

    @staticmethod
    def _revoke(allowed, revoked, domain, item) -> None:
        if item in allowed.get(domain, ()):
            allowed[domain].discard(item)
            revoked.setdefault(domain, set()).add(item)

    @staticmethod
    def _clear(allowed, revoked, domain) -> None:
        revoked.setdefault(domain, set()).update(allowed.get(domain, ()))
        allowed[domain] = set()

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            domain = event.domain
            if event.op == "create_domain":
                for table in (self.inst_allowed, self.inst_revoked,
                              self.read_allowed, self.read_revoked,
                              self.write_allowed, self.write_revoked):
                    table[domain] = set()
            elif event.op == "clear_domain":
                self._clear(self.inst_allowed, self.inst_revoked, domain)
                self._clear(self.read_allowed, self.read_revoked, domain)
                self._clear(self.write_allowed, self.write_revoked, domain)
            elif event.op == "allow_inst":
                self._grant(self.inst_allowed, self.inst_revoked, domain,
                            event.inst)
            elif event.op == "deny_inst":
                self._revoke(self.inst_allowed, self.inst_revoked, domain,
                             event.inst)
            elif event.op == "grant_csr":
                if event.read:
                    self._grant(self.read_allowed, self.read_revoked,
                                domain, event.csr)
                if event.write:
                    self._grant(self.write_allowed, self.write_revoked,
                                domain, event.csr)
            elif event.op == "revoke_csr":
                if event.read:
                    self._revoke(self.read_allowed, self.read_revoked,
                                 domain, event.csr)
                if event.write:
                    self._revoke(self.write_allowed, self.write_revoked,
                                 domain, event.csr)
            return []
        if event.status != "ok" or event.domain == DOMAIN_0:
            return []
        revoked = self.inst_revoked.get(event.domain, _EMPTY)
        if event.kind == "block":
            if revoked.isdisjoint(event.classes):
                return []
            return [self._stale(inst, event.domain)
                    for inst in event.classes if inst in revoked]
        if event.kind != "check":
            return []
        problems: List[str] = []
        if event.inst in revoked:
            problems.append(self._stale(event.inst, event.domain))
        if event.csr >= 0:
            if event.read and event.csr in self.read_revoked.get(
                    event.domain, ()):
                problems.append(
                    "verdict honoured a read of CSR %d in domain %d after "
                    "the read grant was revoked" % (event.csr, event.domain))
            if (event.write and not self._masked(event.csr)
                    and event.csr in self.write_revoked.get(event.domain,
                                                            ())):
                problems.append(
                    "verdict honoured a write of CSR %d in domain %d after "
                    "the write grant was revoked" % (event.csr, event.domain))
        return problems

    @staticmethod
    def _stale(inst: int, domain: int) -> str:
        return ("verdict honoured instruction class %d in domain %d after "
                "its grant was revoked (stale cached privilege)"
                % (inst, domain))


class RollbackAtomicityContract(Contract):
    """C6 — an aborted transaction restores pre-transaction memory.

    Shadow: the first-touch journal of the open transaction — each
    touched address mapped to the value it held *before* the first
    store.  Abort events carry the post-abort contents of every touched
    word; any mismatch means the HPT/SGT backing store rolled back to
    something other than the pre-transaction state.
    """

    name = "rollback_atomicity"
    description = ("after an aborted transaction, every touched trusted "
                   "word holds its pre-transaction value")
    vocabulary = ("mem_write", "txn")

    def reset(self) -> None:
        self.in_txn = False
        self.first_touch: Dict[int, int] = {}

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "mem_write":
            # Seal-word sets bypass the journal by design (sealing is
            # one-way); the abort replay will not restore them, so they
            # must not enter the first-touch shadow.
            if self.in_txn and event.op != "seal":
                self.first_touch.setdefault(event.address, event.old)
            return []
        if event.kind != "txn":
            return []
        if event.op == "begin":
            self.in_txn = True
            self.first_touch = {}
            return []
        if event.op == "commit":
            self.in_txn = False
            self.first_touch = {}
            return []
        # abort: compare the post-abort snapshot with first-touch values
        problems: List[str] = []
        observed = event.values or {}
        for address in sorted(self.first_touch):
            want = self.first_touch[address]
            got = observed.get(address, want)
            if got != want:
                problems.append(
                    "post-abort trusted word 0x%x holds 0x%x; the "
                    "pre-transaction value was 0x%x" % (address, got, want))
        self.in_txn = False
        self.first_touch = {}
        return problems


class NoStaleGenerationContract(Contract):
    """C7 — no check retires against a recycled slot's prior tenant.

    Shadow of the domain-virtualization layer (DESIGN §3.17): per-slot
    generation counters driven by ``bind_slot``/``recycle_slot``
    reconfigs, plus the generation the core *entered* each slot at
    (latched from successful gate events).  An ``ok`` check in a
    slot-managed domain is a violation when the slot is unbound (its
    tenant was recycled away) or when the core's entry generation no
    longer matches the slot's — either way the verdict was served
    against a dead tenant's tables.  A generation mismatch surfacing as
    a *hard fault* is the architecture working as specified and never
    violates.
    """

    name = "no_stale_generation"
    description = ("an ok verdict in a virtualized slot requires the slot "
                   "to be bound and the core's entry generation to match "
                   "the slot's current generation")
    vocabulary = ("check", "block", "gate", "reconfig")

    def reset(self) -> None:
        #: physical slot -> current generation (tracked slots only)
        self.slot_gen: Dict[int, int] = {}
        #: physical slot -> bound logical tenant
        self.bound: Dict[int, int] = {}
        #: physical slot -> generation the core last entered it at
        self.entry_gen: Dict[int, int] = {}

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            if event.op == "bind_slot":
                self.slot_gen[event.domain] = event.bits
                self.bound[event.domain] = event.dest
            elif event.op == "recycle_slot":
                self.slot_gen[event.domain] = event.bits
                self.bound.pop(event.domain, None)
            return []
        if event.status != "ok":
            return []
        if event.kind == "gate":
            if event.domain in self.slot_gen:
                self.entry_gen[event.domain] = self.slot_gen[event.domain]
            return []
        if event.kind != "check" and event.kind != "block":
            return []
        domain = event.domain
        if domain == DOMAIN_0 or domain not in self.slot_gen:
            return []
        current = self.slot_gen[domain]
        entered = self.entry_gen.get(domain, current)
        if domain not in self.bound:
            problem = ("check retired ok in slot %d after its tenant was "
                       "recycled away (generation %d)" % (domain, current))
        elif entered != current:
            problem = ("check retired ok in slot %d at generation %d but "
                       "the core entered at generation %d — a prior "
                       "tenant's verdict" % (domain, current, entered))
        else:
            return []
        if event.kind == "block":
            return [problem] * len(event.classes)
        return [problem]


class NoUnsealContract(Contract):
    """C8 — a sealed privilege is never honoured again.

    Shadow: per-domain sets of sealed instruction classes and sealed
    CSR read/write sides, built from ``seal`` reconfigs.  Seals only
    retire with the domain itself (``create_domain``/``clear_domain``
    reset, and ``recycle_slot`` — the seal belongs to the tenant, and
    the virtualizer clears it with the generation bump).  Any later
    ``ok`` check consuming a sealed privilege is a violation — however
    it came back: a domain-0 re-grant, a rolled-back transaction, a
    recycled slot under a stale flush, or a flipped seal word.

    A masked-CSR write that changes no bits is not *consuming* the
    sealed write privilege (the PCU legitimately allows it: the seal
    forces the effective mask to zero, and a no-change write passes a
    zero mask), so only bit-changing masked writes violate.
    """

    name = "no_unseal"
    description = ("an ok verdict never consumes a privilege that was "
                   "sealed earlier in the domain's lifetime")
    vocabulary = ("check", "block", "reconfig")

    def reset(self) -> None:
        self.sealed_inst: Dict[int, Set[int]] = {}
        self.sealed_read: Dict[int, Set[int]] = {}
        self.sealed_write: Dict[int, Set[int]] = {}

    def observe(self, event: TraceEvent) -> List[str]:
        if event.kind == "reconfig":
            domain = event.domain
            if event.op in ("create_domain", "clear_domain", "recycle_slot"):
                self.sealed_inst[domain] = set()
                self.sealed_read[domain] = set()
                self.sealed_write[domain] = set()
            elif event.op == "seal":
                if event.inst >= 0:
                    self.sealed_inst.setdefault(domain,
                                                set()).add(event.inst)
                if event.csr >= 0:
                    if event.read:
                        self.sealed_read.setdefault(domain,
                                                    set()).add(event.csr)
                    if event.write:
                        self.sealed_write.setdefault(domain,
                                                     set()).add(event.csr)
            return []
        if event.status != "ok" or event.domain == DOMAIN_0:
            return []
        sealed = self.sealed_inst.get(event.domain, _EMPTY)
        if event.kind == "block":
            if sealed.isdisjoint(event.classes):
                return []
            return [self._unsealed(inst, event.domain)
                    for inst in event.classes if inst in sealed]
        if event.kind != "check":
            return []
        problems: List[str] = []
        if event.inst in sealed:
            problems.append(self._unsealed(event.inst, event.domain))
        if event.csr >= 0:
            if event.read and event.csr in self.sealed_read.get(
                    event.domain, ()):
                problems.append(
                    "verdict honoured a read of sealed CSR %d in domain %d"
                    % (event.csr, event.domain))
            if event.write and event.csr in self.sealed_write.get(
                    event.domain, ()):
                if not (self._masked(event.csr)
                        and event.old == event.value):
                    problems.append(
                        "verdict honoured a write of sealed CSR %d in "
                        "domain %d" % (event.csr, event.domain))
        return problems

    @staticmethod
    def _unsealed(inst: int, domain: int) -> str:
        return ("verdict honoured instruction class %d in domain %d after "
                "it was sealed" % (inst, domain))


#: Registry, in canonical report order.
CONTRACT_CLASSES = (
    InstRetirementContract,
    CsrRetirementContract,
    GateOnlySwitchContract,
    TrustedMemConfinementContract,
    CoherenceAfterRevokeContract,
    RollbackAtomicityContract,
    NoStaleGenerationContract,
    NoUnsealContract,
)

#: Canonical contract names, matching :data:`CONTRACT_CLASSES` order.
CONTRACT_NAMES = tuple(cls.name for cls in CONTRACT_CLASSES)


def make_contracts() -> List[Contract]:
    """Fresh instances of every registered contract, canonical order."""
    return [cls() for cls in CONTRACT_CLASSES]
