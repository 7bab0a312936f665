"""Stateful conformance: hypothesis drives the lockstep pair.

A :class:`RuleBasedStateMachine` interleaves domain create/config/
switch/destroy with privilege checks, gate chains and cache flush/
prefetch — hypothesis explores orderings the seeded fuzzer's fixed
weights never would, and shrinks any divergence to a minimal rule
sequence by itself.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.conformance import CONFORMANCE_CONFIGS, ConformanceWorld, make_backend
from repro.conformance.events import (
    GATE_KINDS,
    MASK64,
    N_CSR_SLOTS,
    N_DOMAIN_SLOTS,
    N_GATE_SLOTS,
    N_INST_SLOTS,
    Event,
)

from ..profiles import stateful_settings

DOMAIN_SLOT = st.integers(min_value=1, max_value=N_DOMAIN_SLOTS)
INST_SLOT = st.integers(min_value=0, max_value=N_INST_SLOTS - 1)
CSR_SLOT = st.integers(min_value=0, max_value=N_CSR_SLOTS - 1)
#: One past the last registered slot, so unregistered gates get executed.
GATE_SLOT = st.integers(min_value=0, max_value=N_GATE_SLOTS)
VALUE = st.integers(min_value=0, max_value=MASK64)
BIT = st.integers(min_value=0, max_value=63)


class ConformancePair(RuleBasedStateMachine):
    """Every rule applies one abstract event to both implementations and
    requires identical architecturally-visible outcomes."""

    config_name = "stress"

    def __init__(self):
        super().__init__()
        self.world = ConformanceWorld(
            make_backend("riscv"), CONFORMANCE_CONFIGS[self.config_name])
        self.steps = 0

    def apply(self, event):
        self.steps += 1
        cached, oracle = self.world.apply(event)
        assert cached == oracle, (
            "divergence on %r: cached=%r oracle=%r" % (event, cached, oracle))

    # -- data path -----------------------------------------------------
    @rule(inst=INST_SLOT)
    def check_instruction(self, inst):
        self.apply(Event("check", inst=inst))

    @rule(inst=INST_SLOT, csr=CSR_SLOT, read=st.booleans(),
          write=st.booleans(), old=VALUE, flip=BIT)
    def check_csr_bit_flip(self, inst, csr, read, write, old, flip):
        self.apply(Event("check", inst=inst, csr=csr, read=read,
                         write=write or not read, old=old,
                         value=old ^ (1 << flip)))

    @rule(inst=INST_SLOT, csr=CSR_SLOT, old=VALUE, new=VALUE)
    def check_csr_wild_write(self, inst, csr, old, new):
        self.apply(Event("check", inst=inst, csr=csr, write=True,
                         old=old, value=new))

    @rule(kind=st.sampled_from(GATE_KINDS), gate=GATE_SLOT,
          site_ok=st.booleans())
    def gate(self, kind, gate, site_ok):
        self.apply(Event("gate", kind=kind, gate=gate, site_ok=site_ok,
                         address=0x9000 + 8 * self.steps))

    @rule(inside=st.booleans(), offset=st.integers(0, (1 << 20) - 8))
    def memory_access(self, inside, offset):
        base = 0x100000 if inside else 0x300000
        self.apply(Event("mem", address=base + offset))

    # -- cache management ----------------------------------------------
    @rule(csr=st.integers(min_value=-1, max_value=N_CSR_SLOTS - 1))
    def prefetch(self, csr):
        self.apply(Event("pfch", csr=csr))

    @rule(cache=st.integers(min_value=0, max_value=4))
    def flush(self, cache):
        self.apply(Event("pflh", cache=cache))

    # -- domain-0 reconfiguration --------------------------------------
    @rule(domain=DOMAIN_SLOT, inst=INST_SLOT)
    def allow_instruction(self, domain, inst):
        self.apply(Event("allow_inst", domain=domain, inst=inst))

    @rule(domain=DOMAIN_SLOT, inst=INST_SLOT)
    def deny_instruction(self, domain, inst):
        self.apply(Event("deny_inst", domain=domain, inst=inst))

    @rule(domain=DOMAIN_SLOT, csr=CSR_SLOT, read=st.booleans(),
          write=st.booleans())
    def grant_csr(self, domain, csr, read, write):
        self.apply(Event("grant_csr", domain=domain, csr=csr,
                         read=read, write=write))

    @rule(domain=DOMAIN_SLOT, csr=CSR_SLOT, read=st.booleans())
    def revoke_csr(self, domain, csr, read):
        self.apply(Event("revoke_csr", domain=domain, csr=csr,
                         read=read, write=True))

    @rule(domain=DOMAIN_SLOT, bits=VALUE)
    def set_mask(self, domain, bits):
        self.apply(Event("set_mask", domain=domain, bits=bits))

    @rule(gate=st.integers(min_value=0, max_value=N_GATE_SLOTS - 1),
          domain=DOMAIN_SLOT)
    def register_gate(self, gate, domain):
        self.apply(Event("register_gate", gate=gate, domain=domain))

    @rule(gate=st.integers(min_value=0, max_value=N_GATE_SLOTS - 1))
    def unregister_gate(self, gate):
        self.apply(Event("unregister_gate", gate=gate))

    @rule(domain=DOMAIN_SLOT)
    def destroy_domain(self, domain):
        self.apply(Event("destroy_domain", domain=domain))

    @rule(domain=DOMAIN_SLOT)
    def create_domain(self, domain):
        self.apply(Event("create_domain", domain=domain))

    # -- lockstep invariants -------------------------------------------
    @invariant()
    def state_agrees(self):
        world = self.world
        assert world.pcu.current_domain == world.oracle.domain
        assert world.pcu.previous_domain == world.oracle.pdomain
        assert world.pcu.trusted_stack.depth == world.oracle.depth


class DracoConformancePair(ConformancePair):
    """Same machine over the Draco known-legal cache, whose stale
    proven-legal tuples are the nastiest staleness source."""

    config_name = "draco"


class FlushOnSwitchConformancePair(ConformancePair):
    """Same machine with flush-on-switch (Section 8 trade-off)."""

    config_name = "flush"


TestConformancePair = ConformancePair.TestCase
TestConformancePair.settings = stateful_settings(
    max_examples=25, stateful_step_count=40)

TestDracoConformancePair = DracoConformancePair.TestCase
TestDracoConformancePair.settings = stateful_settings(
    max_examples=15, stateful_step_count=40)

TestFlushOnSwitchConformancePair = FlushOnSwitchConformancePair.TestCase
TestFlushOnSwitchConformancePair.settings = stateful_settings(
    max_examples=10, stateful_step_count=30)
