"""Compiled verdict plans: coherence and fast-vs-slow bit-identity.

Two halves.  The unit tests pin the §3.14 coherence contract: every
invalidation entry point (``invalidate_privileges`` wide and narrow,
``pflh`` flushes, degraded mode, domain switches) must decompile the
verdict plan — ``verdict_plan()`` returning ``None`` — or leave it
freshly reloaded, never stale.  The hypothesis state machine then
drives a fast-path PCU and a ``fast_path=False`` PCU through identical
operation sequences and requires identical verdicts, faults, stall
cycles and full ``PcuStats`` after every step.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import (
    AccessInfo,
    CacheId,
    CsrDescriptor,
    DomainManager,
    GateKind,
    IsaGridIsaMap,
    PcuConfig,
    PrivilegeCheckUnit,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault
from repro.core.pcu import DOMAIN_0

from ..profiles import stateful_settings

CLASSES = ["alu", "load", "store", "csr", "sysop", "halt"]
CSRS = [
    CsrDescriptor("reserved", 0),
    CsrDescriptor("ctrl", 1, bitwise=True),
    CsrDescriptor("vbase", 2),
    CsrDescriptor("scratch", 3),
    CsrDescriptor("status", 4, bitwise=True),
    CsrDescriptor("counter", 5),
]


def build_pcu(**config_fields):
    isa_map = IsaGridIsaMap(
        "testarch",
        CLASSES,
        [CsrDescriptor(d.name, d.index, d.width, d.bitwise) for d in CSRS],
    )
    config = PcuConfig(name="fast-path-test", **config_fields)
    pcu = PrivilegeCheckUnit(isa_map, config, TrustedMemory(0x100000, 1 << 20))
    return isa_map, pcu, DomainManager(pcu)


def warm(isa_map, pcu, manager, *, classes=("alu", "csr"), at=0x1000):
    """Create a domain, enter it, and compile a verdict plan."""
    domain = manager.create_domain("kernel")
    manager.allow_instructions(domain.domain_id, list(classes))
    gate = manager.register_gate(at, at + 0x1000, domain.domain_id)
    pcu.execute_gate(GateKind.HCCALL, gate, at)
    pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
    assert pcu.verdict_plan() is not None
    return domain


class TestVerdictPlanCoherence:
    def test_plan_compiles_on_warm_check(self):
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        plan_domain, words = pcu.verdict_plan()
        assert plan_domain == domain.domain_id
        assert any(words)

    def test_wide_invalidate_drops_plan(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        pcu.invalidate_privileges()
        assert pcu.verdict_plan() is None

    def test_domain_scoped_invalidate_drops_plan(self):
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        pcu.invalidate_privileges(domain=domain.domain_id)
        assert pcu.verdict_plan() is None

    def test_other_domain_invalidate_keeps_plan(self):
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        pcu.invalidate_privileges(domain=domain.domain_id + 1)
        plan = pcu.verdict_plan()
        assert plan is not None and plan[0] == domain.domain_id

    def test_csr_narrow_reg_sweep_keeps_plan_but_refetches(self):
        # A reg-only narrow sweep must not decompile the instruction
        # verdicts — the fast path fetches register words through the
        # live cache every check, so dropping the cached word suffices.
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        manager.grant_register(domain.domain_id, "vbase", read=True)
        csr = isa_map.csr_index("vbase")
        access = AccessInfo(
            inst_class=isa_map.inst_class("csr"), csr=csr, csr_read=True
        )
        pcu.check(access)  # fill the reg-bitmap cache
        misses_before = pcu.stats.reg_cache.misses
        pcu.invalidate_privileges(domain=domain.domain_id, csr=csr, inst=False)
        assert pcu.verdict_plan() is not None
        pcu.check(access)
        assert pcu.stats.reg_cache.misses == misses_before + 1

    def test_flush_all_drops_plan(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        pcu.flush(CacheId.ALL)
        assert pcu.verdict_plan() is None

    def test_flush_inst_bitmap_drops_plan(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        pcu.flush(CacheId.INST_BITMAP)
        assert pcu.verdict_plan() is None

    def test_flush_reg_bitmap_keeps_plan(self):
        # Register words are never baked into the plan, so a reg-bitmap
        # flush has nothing to decompile.
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        pcu.flush(CacheId.REG_BITMAP)
        plan = pcu.verdict_plan()
        assert plan is not None and plan[0] == domain.domain_id

    def test_degraded_mode_drops_plan_until_exit(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        pcu.enter_degraded_mode()
        assert pcu.verdict_plan() is None
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.verdict_plan() is None  # degraded checks never compile
        pcu.exit_degraded_mode()
        assert pcu.verdict_plan() is None  # nothing cached yet
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.verdict_plan() is not None

    def test_domain_switch_recompiles_for_new_domain(self):
        isa_map, pcu, manager = build_pcu()
        d1 = warm(isa_map, pcu, manager)
        d2 = manager.create_domain("service")
        manager.allow_instructions(d2.domain_id, ["alu"])
        gate = manager.register_gate(0x5000, 0x6000, d2.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x5000)
        assert pcu.verdict_plan() is None  # switch invalidated the bypass
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        plan = pcu.verdict_plan()
        assert plan is not None and plan[0] == d2.domain_id != d1.domain_id

    def test_slow_path_config_never_compiles(self):
        isa_map, pcu, manager = build_pcu(fast_path=False)
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        gate = manager.register_gate(0x1000, 0x2000, domain.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.verdict_plan() is None

    def test_draco_config_never_compiles(self):
        # The Draco cache keys on value tuples the plan cannot express,
        # so a Draco-equipped PCU stays on the slow path entirely.
        isa_map, pcu, manager = build_pcu(draco_entries=8)
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        gate = manager.register_gate(0x1000, 0x2000, domain.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.verdict_plan() is None

    def test_bypass_disabled_never_compiles(self):
        isa_map, pcu, manager = build_pcu(bypass_enabled=False)
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        gate = manager.register_gate(0x1000, 0x2000, domain.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.verdict_plan() is None


# ----------------------------------------------------------------------
# Hypothesis lockstep: fast-path PCU vs slow-path PCU, same operations.
# ----------------------------------------------------------------------
CLASS_INDEX = st.integers(min_value=0, max_value=len(CLASSES) - 1)
CSR_INDEX = st.integers(min_value=0, max_value=len(CSRS) - 1)
VALUE = st.integers(min_value=0, max_value=(1 << 64) - 1)
CACHE_IDS = st.sampled_from(list(CacheId))


class FastSlowLockstep(RuleBasedStateMachine):
    """Mirror every operation onto both PCUs; any divergence in verdict,
    fault type, stall cycles or statistics is a coherence bug in the
    compiled plan."""

    def __init__(self):
        super().__init__()
        self.isa_map, self.fast, self.fast_manager = build_pcu()
        _, self.slow, self.slow_manager = build_pcu(fast_path=False)
        assert self.fast._fast_capable and not self.slow._fast_capable
        self.domains = []
        self.gates = {}
        self.next_gate_pc = 0x1000

    def check_both(self, **fields):
        outcomes = []
        for pcu in (self.fast, self.slow):
            try:
                outcomes.append(("ok", pcu.check(AccessInfo(**fields))))
            except PrivilegeFault as fault:
                outcomes.append(("fault", type(fault).__name__))
        assert outcomes[0] == outcomes[1], (
            "fast/slow diverged on %r: %r" % (fields, outcomes)
        )

    # -- configuration plane -------------------------------------------
    @rule()
    def create_domain(self):
        if len(self.domains) >= 4:
            return
        name = "dom%d" % len(self.domains)
        fast_domain = self.fast_manager.create_domain(name)
        slow_domain = self.slow_manager.create_domain(name)
        assert fast_domain.domain_id == slow_domain.domain_id
        domain_id = fast_domain.domain_id
        at = self.next_gate_pc
        self.next_gate_pc += 0x100
        self.gates[domain_id] = (
            self.fast_manager.register_gate(at, at + 8, domain_id),
            self.slow_manager.register_gate(at, at + 8, domain_id),
            at,
        )
        self.domains.append(domain_id)

    @rule(pick=st.randoms(use_true_random=False),
          classes=st.sets(CLASS_INDEX, min_size=1, max_size=4))
    def allow_instructions(self, pick, classes):
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        names = [CLASSES[index] for index in sorted(classes)]
        self.fast_manager.allow_instructions(domain_id, names)
        self.slow_manager.allow_instructions(domain_id, names)

    @rule(pick=st.randoms(use_true_random=False), csr=CSR_INDEX,
          read=st.booleans(), write=st.booleans())
    def grant_register(self, pick, csr, read, write):
        if not self.domains or not (read or write):
            return
        domain_id = pick.choice(self.domains)
        name = CSRS[csr].name
        self.fast_manager.grant_register(domain_id, name, read=read, write=write)
        self.slow_manager.grant_register(domain_id, name, read=read, write=write)

    @rule(pick=st.randoms(use_true_random=False), mask=VALUE)
    def grant_register_bits(self, pick, mask):
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        name = pick.choice(["ctrl", "status"])
        self.fast_manager.grant_register_bits(domain_id, name, mask)
        self.slow_manager.grant_register_bits(domain_id, name, mask)

    # -- control plane -------------------------------------------------
    @rule(pick=st.randoms(use_true_random=False))
    def enter_domain(self, pick):
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        fast_gate, slow_gate, at = self.gates[domain_id]
        fast_out = self.fast.execute_gate(GateKind.HCCALL, fast_gate, at)
        slow_out = self.slow.execute_gate(GateKind.HCCALL, slow_gate, at)
        assert fast_out == slow_out

    @rule(cache_id=CACHE_IDS)
    def flush(self, cache_id):
        self.fast.flush(cache_id)
        self.slow.flush(cache_id)

    @rule(pick=st.randoms(use_true_random=False), wide=st.booleans(),
          csr=CSR_INDEX)
    def invalidate(self, pick, wide, csr):
        if wide or not self.domains:
            self.fast.invalidate_privileges()
            self.slow.invalidate_privileges()
        else:
            domain_id = pick.choice(self.domains)
            self.fast.invalidate_privileges(domain=domain_id, csr=csr)
            self.slow.invalidate_privileges(domain=domain_id, csr=csr)

    @rule(enter=st.booleans())
    def degraded_mode(self, enter):
        if enter:
            self.fast.enter_degraded_mode()
            self.slow.enter_degraded_mode()
        else:
            self.fast.exit_degraded_mode()
            self.slow.exit_degraded_mode()

    # -- data plane ----------------------------------------------------
    @rule(inst=CLASS_INDEX)
    def check_instruction(self, inst):
        self.check_both(inst_class=inst, address=0x4000 + inst)

    @rule(inst=CLASS_INDEX, csr=CSR_INDEX, write=st.booleans(),
          value=VALUE, old=VALUE)
    def check_csr(self, inst, csr, write, value, old):
        fields = {"inst_class": inst, "address": 0x4000, "csr": csr}
        if write:
            fields.update(csr_write=True, write_value=value, old_value=old)
        else:
            fields.update(csr_read=True)
        self.check_both(**fields)

    # -- invariants ----------------------------------------------------
    @invariant()
    def stats_identical(self):
        assert self.fast.stats == self.slow.stats

    @invariant()
    def registers_identical(self):
        assert self.fast.registers.domain == self.slow.registers.domain
        assert self.fast.registers.pdomain == self.slow.registers.pdomain

    @invariant()
    def plan_coherent(self):
        plan = self.fast.verdict_plan()
        if plan is not None:
            assert plan[0] == self.fast.registers.domain != DOMAIN_0
        assert self.slow.verdict_plan() is None


FastSlowLockstep.TestCase.settings = stateful_settings(
    max_examples=25, stateful_step_count=40)
TestFastSlowLockstep = FastSlowLockstep.TestCase
