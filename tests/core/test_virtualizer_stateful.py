"""Stateful ABA property: recycling never serves a stale tenant verdict.

Hypothesis drives random tenant lifecycles — spawns, retires, rebinds,
gate entries, context switches — against one DomainVirtualizer, and
after every step checks the core-visible property the generation guard
exists for: a check retired in a domain whose slot generation moved
since the core entered MUST raise StaleGenerationFault, and a check in
a generation-coherent domain must NEVER raise it.  That is exactly the
ABA confusion (old core, recycled slot, possibly a brand-new tenant
bound in it) shrunk to its minimal reproduction when it fails.

The machine also drives one-way seals through the tenant lifecycle and
pins their slot-scoped lifetime: while a tenant stays bound, a sealed
class MUST deny even though the manifest still grants it; once the
binding dies (retire, eviction, recycle), the next tenant in that slot
MUST NOT inherit the seal mask — a granted class checks ok again.

Under the machine's trusted memory sits a fault-injecting backing, so a
drawn step can fail the next trusted-memory store of one tenant op.  A
bind, grant or retire that the fault aborts MUST roll back in full (the
domain-0 transaction restores every word it journalled); a faulted seal
is mirror-first, so a repairing scrub MUST complete it.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core import (
    CONFIG_8E,
    AccessInfo,
    CsrDescriptor,
    DomainManager,
    DomainVirtualizer,
    GateKind,
    InjectedFault,
    IsaGridIsaMap,
    PrivilegeCheckUnit,
    SlotExhausted,
    StaleGenerationFault,
    TenantManifest,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault
from repro.core.pcu import DOMAIN_0
from repro.faults import FaultyWordBacking, IntegrityScrubber

from ..profiles import stateful_settings
from .test_domain_transactions import hpt_words, mirror_words, sgt_words

CLASSES = ["alu", "load", "store", "csr", "sysop", "halt"]
MAX_SLOTS = 3


class VirtualizerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        isa_map = IsaGridIsaMap("testarch", CLASSES,
                                [CsrDescriptor("ctrl", 0, bitwise=True)])
        memory = TrustedMemory(base=0x100000, size=1 << 20)
        self.backing = FaultyWordBacking(memory._backing)
        memory._backing = self.backing
        self.pcu = PrivilegeCheckUnit(isa_map, CONFIG_8E, memory)
        self.manager = DomainManager(self.pcu)
        self.virtualizer = DomainVirtualizer(self.manager,
                                             max_slots=MAX_SLOTS)
        self.alive = []
        #: generation the core latched when it last entered its domain —
        #: the independent mirror of ``pcu._entry_generation``
        self.entry_generation = 0
        #: spawn-time manifest mirror: logical -> granted class names
        self.grants = {}
        #: live seal mirror: logical -> (physical, generation, classes);
        #: valid only while that exact binding incarnation persists
        self.seals = {}

    def _pick(self, index):
        return self.alive[index % len(self.alive)]

    @rule(grants=st.sets(st.sampled_from(CLASSES), max_size=3))
    def spawn(self, grants):
        logical = self.virtualizer.spawn(
            TenantManifest(instructions=set(grants)))
        self.alive.append(logical)
        self.grants[logical] = set(grants)

    @precondition(lambda self: self.alive)
    @rule(index=st.integers(min_value=0, max_value=99))
    def retire(self, index):
        logical = self._pick(index)
        self.virtualizer.retire(logical)
        self._forget(logical)

    def _forget(self, logical):
        self.alive.remove(logical)
        self.grants.pop(logical, None)
        self.seals.pop(logical, None)

    @precondition(lambda self: self.alive)
    @rule(index=st.integers(min_value=0, max_value=99),
          inst=st.integers(min_value=0, max_value=5))
    def seal(self, index, inst):
        """Seal one class on a tenant; slot state when bound, no-op when
        unbound (deliberately not replayed on a later rebind)."""
        logical = self._pick(index)
        self.virtualizer.seal_privileges(logical,
                                         instructions=[CLASSES[inst]])
        self._record_seal(logical, inst)

    def _record_seal(self, logical, inst):
        physical = self.virtualizer.bindings.get(logical)
        if physical is None:
            return
        generation = self.virtualizer.generations[physical]
        entry = self.seals.get(logical)
        if entry is None or entry[0] != physical or entry[1] != generation:
            entry = (physical, generation, set())
            self.seals[logical] = entry
        entry[2].add(inst)

    def _sealed_classes(self, physical):
        """Classes sealed in the *current incarnation* of ``physical``."""
        for logical, bound in self.virtualizer.bindings.items():
            if bound != physical:
                continue
            entry = self.seals.get(logical)
            if (entry and entry[0] == physical
                    and entry[1] == self.virtualizer.generations[physical]):
                return logical, entry[2]
            return logical, set()
        return None, set()

    @precondition(lambda self: self.alive)
    @rule(index=st.integers(min_value=0, max_value=99))
    def activate(self, index):
        try:
            self.virtualizer.activate(self._pick(index))
        except SlotExhausted:
            pass  # legal backpressure, never a crash

    @precondition(lambda self: self.alive)
    @rule(op=st.sampled_from(["bind", "grant", "retire", "seal"]),
          index=st.integers(min_value=0, max_value=99),
          inst=st.integers(min_value=0, max_value=5))
    def faulted_op(self, op, index, inst):
        """Fail the next trusted-memory store, then run one tenant op."""
        logical = self._pick(index)
        before = {domain: (hpt_words(self.pcu, domain),
                           mirror_words(self.pcu, domain))
                  for domain in self.manager.domains}
        gates = sgt_words(self.pcu)
        bindings = dict(self.virtualizer.bindings)
        self.backing.arm_store_fault()
        try:
            if op == "bind":
                self.virtualizer.activate(logical)
            elif op == "grant":
                self.virtualizer.allow_instructions(logical, [CLASSES[inst]])
            elif op == "retire":
                self.virtualizer.retire(logical)
            else:
                self.virtualizer.seal_privileges(
                    logical, instructions=[CLASSES[inst]])
        except SlotExhausted:
            pass
        except InjectedFault:
            self._assert_slots_conserved()
            if op == "seal":
                # The seal mirror is ahead of memory: the repair
                # completes the seal instead of unwinding it.
                IntegrityScrubber(self.pcu, self.manager).scrub()
                assert IntegrityScrubber(self.pcu, self.manager).scrub().clean
                self._record_seal(logical, inst)
                return
            # Rolled back in full.  A faulted first bind keeps its
            # freshly created slot, on the free list.
            for domain, words in before.items():
                assert (hpt_words(self.pcu, domain),
                        mirror_words(self.pcu, domain)) == words, (
                    "%s aborted by a store fault left domain %d changed"
                    % (op, domain))
            assert sgt_words(self.pcu) == gates
            assert self.virtualizer.bindings == bindings
            assert IntegrityScrubber(self.pcu, self.manager).scrub(
                repair=False).clean
            return
        # The op stored nothing, so the one-shot fault is still pending.
        self._assert_slots_conserved()
        assert self.backing.store_fault_armed
        self.backing._store_fault_armed = False
        if op == "grant":
            self.grants[logical].add(CLASSES[inst])
        elif op == "retire":
            self._forget(logical)
        elif op == "seal":
            self._record_seal(logical, inst)

    def _assert_slots_conserved(self):
        """Every slot ever created is either bound or free."""
        virtualizer = self.virtualizer
        assert len(virtualizer._slot_index) == (
            len(virtualizer.bindings) + len(virtualizer.free_slots)), (
            "slot leaked: %d created, %d bound, %d free"
            % (len(virtualizer._slot_index), len(virtualizer.bindings),
               len(virtualizer.free_slots)))

    @precondition(lambda self: self.alive)
    @rule(index=st.integers(min_value=0, max_value=99))
    def enter(self, index):
        """Context-switch to domain-0 and HCCALL into a tenant's slot."""
        self.pcu.reset()
        self.entry_generation = 0
        try:
            physical = self.virtualizer.activate(self._pick(index))
        except SlotExhausted:
            return
        self.pcu.execute_gate(
            GateKind.HCCALL, self.virtualizer.gate_id_of(physical),
            self.virtualizer.gate_address_of(physical), None)
        self.entry_generation = self.virtualizer.generations[physical]

    @rule()
    def context_switch_out(self):
        self.pcu.reset()
        self.entry_generation = 0

    @rule(inst=st.integers(min_value=0, max_value=5))
    def check(self, inst):
        """The property: staleness and StaleGenerationFault coincide."""
        domain = self.pcu.current_domain
        if domain == DOMAIN_0:
            self.pcu.check(AccessInfo(inst))  # domain-0 checks always pass
            return
        stale = (self.virtualizer.generations.get(domain, 0)
                 != self.entry_generation)
        try:
            self.pcu.check(AccessInfo(inst))
            outcome = "ok"
        except StaleGenerationFault:
            outcome = "stale"
        except PrivilegeFault:
            outcome = "denied"
        if stale:
            assert outcome == "stale", (
                "slot generation moved under the core (domain %d) but the "
                "check returned %r — a stale/ABA verdict escaped"
                % (domain, outcome))
            return
        assert outcome != "stale", (
            "generation-coherent check in domain %d raised "
            "StaleGenerationFault" % domain)
        logical, sealed = self._sealed_classes(domain)
        if inst in sealed:
            assert outcome == "denied", (
                "class %r is sealed for tenant %s in slot %d but the check "
                "returned %r — a seal was lost" % (CLASSES[inst], logical,
                                                   domain, outcome))
        elif logical is not None and CLASSES[inst] in self.grants[logical]:
            assert outcome == "ok", (
                "tenant %s in slot %d is granted unsealed class %r but the "
                "check returned %r — the slot inherited a stale seal mask"
                % (logical, domain, CLASSES[inst], outcome))


TestVirtualizerMachine = VirtualizerMachine.TestCase
TestVirtualizerMachine.settings = stateful_settings(
    max_examples=25, stateful_step_count=40)
