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
    IsaGridIsaMap,
    PrivilegeCheckUnit,
    SlotExhausted,
    StaleGenerationFault,
    TenantManifest,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault
from repro.core.pcu import DOMAIN_0

from ..profiles import stateful_settings

CLASSES = ["alu", "load", "store", "csr", "sysop", "halt"]
MAX_SLOTS = 3


class VirtualizerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        isa_map = IsaGridIsaMap("testarch", CLASSES,
                                [CsrDescriptor("ctrl", 0, bitwise=True)])
        memory = TrustedMemory(base=0x100000, size=1 << 20)
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
        self.alive.remove(logical)
        self.virtualizer.retire(logical)
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
