"""Block-summary probes: the §3.18 coherence contract at the PCU.

Two halves, mirroring ``test_fast_path.py``.  The unit tests pin the
probe protocol: ``check_block_summary`` may only authorize a block when
N per-instruction checks would all pass with zero stall, and every
invalidation entry point (``invalidate_privileges`` wide and narrow,
``pflh`` flushes, gate switches, degraded mode, tenant slot recycling,
an installed lockstep monitor) must make the next probe refuse, while
an armed contract tap gets one ``block`` event per accounted block.
The hypothesis state machine then drives a block-capable PCU
and a ``block_summaries=False`` PCU through identical operation storms,
executing accepted blocks via probe + ``account_block`` on one side and
per-instruction checks on the other, and requires bit-identical
``PcuStats`` after every step.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.contracts import ContractMonitor
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
from repro.core.pcu import (
    BLOCK_BYPASS,
    BLOCK_DOMAIN0,
    BLOCK_REFUSED,
    BLOCK_SILENT,
)
from repro.core.stats import BlockSummaryStats
from repro.faults import LockstepMonitor
from repro.sim.blocks import summarize_classes

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
    config = PcuConfig(name="block-summary-test", **config_fields)
    pcu = PrivilegeCheckUnit(isa_map, config, TrustedMemory(0x100000, 1 << 20))
    return isa_map, pcu, DomainManager(pcu)


def warm(isa_map, pcu, manager, *, classes=("alu", "load"), at=0x1000):
    """Create a domain, enter it, and warm the bypass register."""
    domain = manager.create_domain("kernel")
    manager.allow_instructions(domain.domain_id, list(classes))
    gate = manager.register_gate(at, at + 0x1000, domain.domain_id)
    pcu.execute_gate(GateKind.HCCALL, gate, at)
    pcu.check(AccessInfo(inst_class=isa_map.inst_class(classes[0])))
    assert pcu.verdict_plan() is not None
    return domain


def classes_of(isa_map, names):
    return tuple(isa_map.inst_class(name) for name in names)


def summary_of(isa_map, names):
    return summarize_classes(classes_of(isa_map, names))


class TestBlockProbe:
    def test_warm_bypass_authorizes_covered_block(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        summary = summary_of(isa_map, ["alu", "load"])
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS
        assert pcu.block_stats.hits == 1

    def test_missing_class_bit_refuses(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager, classes=("alu",))
        summary = summary_of(isa_map, ["alu", "store"])
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        assert pcu.block_stats.refusals == pcu.block_stats.refused_class == 1

    def test_domain0_authorizes_without_bypass(self):
        isa_map, pcu, _ = build_pcu()
        summary = summary_of(isa_map, ["alu", "sysop", "halt"])
        assert pcu.check_block_summary(summary) == BLOCK_DOMAIN0

    def test_disabled_pcu_is_silent(self):
        isa_map, pcu, _ = build_pcu()
        pcu.enabled = False
        assert (pcu.check_block_summary(summary_of(isa_map, ["alu"]))
                == BLOCK_SILENT)

    def test_cold_bypass_refuses(self):
        isa_map, pcu, manager = build_pcu()
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        gate = manager.register_gate(0x1000, 0x2000, domain.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        # No warm check yet: the bypass register is cold.
        summary = summary_of(isa_map, ["alu"])
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        assert pcu.block_stats.refused_bypass == 1
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_probe_never_mutates_pcu_stats(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        before = pcu.stats.as_dict()
        pcu.check_block_summary(summary_of(isa_map, ["alu"]))
        pcu.check_block_summary(summary_of(isa_map, ["halt"]))
        assert pcu.stats.as_dict() == before

    def test_config_escape_hatch_refuses(self):
        isa_map, pcu, manager = build_pcu(block_summaries=False)
        assert not pcu._block_capable
        warm(isa_map, pcu, manager)
        assert (pcu.check_block_summary(summary_of(isa_map, ["alu"]))
                == BLOCK_REFUSED)
        assert pcu.block_stats.refused_decompiled == 1

    @pytest.mark.parametrize("fields", [
        {"fast_path": False},
        {"bypass_enabled": False},
        {"draco_entries": 8},
    ])
    def test_fast_path_ineligibility_forbids_blocks(self, fields):
        # Every condition that forbids the compiled verdict plan
        # forbids block summaries too.
        isa_map, pcu, manager = build_pcu(**fields)
        assert not pcu._block_capable
        domain = manager.create_domain("kernel")
        manager.allow_instructions(domain.domain_id, ["alu"])
        gate = manager.register_gate(0x1000, 0x2000, domain.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x1000)
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert (pcu.check_block_summary(summary_of(isa_map, ["alu"]))
                == BLOCK_REFUSED)

    def test_armed_tap_authorizes_and_emits_a_block(self):
        # An armed contract tap does not refuse the probe: the block's
        # accounting hands it one ``block`` event naming the retired
        # members' classes, here a faulting block's prefix.
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        monitor = ContractMonitor(record=True)
        monitor.attach(pcu, manager)
        classes = classes_of(isa_map, ["alu", "load", "alu", "load"])
        seeded = len(monitor.recorded)
        assert (pcu.check_block_summary(summarize_classes(classes))
                == BLOCK_BYPASS)
        assert pcu.block_stats.refusals == 0
        pcu.account_block(BLOCK_BYPASS, [classes[:3]])
        (event,) = monitor.recorded[seeded:]
        assert event.kind == "block"
        assert event.domain == domain.domain_id
        assert event.classes == classes[:3]
        assert monitor.total_violations == 0

    def test_lockstep_monitor_turns_probes_off(self):
        # The machine fault campaigns' lockstep monitor must see every
        # per-instruction ``check``, so while it is installed the PCU
        # is not block-capable and every probe refuses.
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        summary = summary_of(isa_map, ["alu"])
        monitor = LockstepMonitor(pcu, oracle=None, stats=None)
        monitor.install()
        assert not pcu._block_capable
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        assert pcu.block_stats.refused_decompiled == 1
        monitor.uninstall()
        assert pcu._block_capable
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS


class TestBlockInvalidationEntryPoints:
    """Satellite audit regressions: every privilege-invalidation entry
    point must make the next probe refuse (or serve a freshly reloaded
    bypass), never authorize a block against stale state."""

    def setup_probe(self, **config_fields):
        isa_map, pcu, manager = build_pcu(**config_fields)
        domain = warm(isa_map, pcu, manager)
        summary = summary_of(isa_map, ["alu", "load"])
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS
        return isa_map, pcu, manager, domain, summary

    def test_wide_invalidate_refuses(self):
        _, pcu, _, _, summary = self.setup_probe()
        pcu.invalidate_privileges()
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED

    def test_domain_scoped_invalidate_refuses(self):
        _, pcu, _, domain, summary = self.setup_probe()
        pcu.invalidate_privileges(domain=domain.domain_id)
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED

    def test_other_domain_invalidate_keeps_authorizing(self):
        _, pcu, _, domain, summary = self.setup_probe()
        pcu.invalidate_privileges(domain=domain.domain_id + 1)
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_csr_narrow_reg_sweep_keeps_authorizing(self):
        # Register words are never summarized (blocks carry no CSR
        # members), so a reg-only narrow sweep has nothing to refuse.
        isa_map, pcu, _, domain, summary = self.setup_probe()
        pcu.invalidate_privileges(domain=domain.domain_id,
                                  csr=isa_map.csr_index("vbase"), inst=False)
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_flush_all_refuses(self):
        _, pcu, _, _, summary = self.setup_probe()
        pcu.flush(CacheId.ALL)
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED

    def test_flush_inst_bitmap_refuses(self):
        _, pcu, _, _, summary = self.setup_probe()
        pcu.flush(CacheId.INST_BITMAP)
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED

    def test_flush_reg_bitmap_keeps_authorizing(self):
        _, pcu, _, _, summary = self.setup_probe()
        pcu.flush(CacheId.REG_BITMAP)
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_gate_switch_refuses_until_rewarmed(self):
        isa_map, pcu, manager, _, summary = self.setup_probe()
        other = manager.create_domain("service")
        manager.allow_instructions(other.domain_id, ["alu", "load"])
        gate = manager.register_gate(0x5000, 0x6000, other.domain_id)
        pcu.execute_gate(GateKind.HCCALL, gate, 0x5000)
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_degraded_mode_refuses_until_rewarmed(self):
        isa_map, pcu, _, _, summary = self.setup_probe()
        pcu.enter_degraded_mode()
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        pcu.exit_degraded_mode()
        # Exit leaves the bypass cold: still refused until a warm check.
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        pcu.check(AccessInfo(inst_class=isa_map.inst_class("alu")))
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS

    def test_recycled_slot_generation_refuses(self):
        # Tenant churn: the virtualizer bumps the slot's generation in
        # the shared table; the PCU's latched entry generation is now
        # stale, and the per-instruction path would raise
        # StaleGenerationFault — so the probe must refuse.
        _, pcu, _, domain, summary = self.setup_probe()
        pcu.generation_table = {domain.domain_id: pcu._entry_generation}
        assert pcu.check_block_summary(summary) == BLOCK_BYPASS
        pcu.generation_table[domain.domain_id] += 1
        assert pcu.check_block_summary(summary) == BLOCK_REFUSED
        assert pcu.block_stats.refused_stale == 1


class TestBlockAccounting:
    def test_bypass_mode_replays_checks_and_hits(self):
        isa_map, pcu, manager = build_pcu()
        warm(isa_map, pcu, manager)
        before = pcu.stats.as_dict()
        pcu.account_block(BLOCK_BYPASS, [classes_of(isa_map, ["alu"] * 7)])
        after = pcu.stats.as_dict()
        assert after.pop("inst_checks") == before.pop("inst_checks") + 7
        assert after.pop("bypass_hits") == before.pop("bypass_hits") + 7
        assert after == before
        assert pcu.block_stats.insts == 7

    def test_domain0_mode_replays_checks_only(self):
        isa_map, pcu, _ = build_pcu()
        before = pcu.stats.as_dict()
        pcu.account_block(BLOCK_DOMAIN0, [classes_of(isa_map, ["alu"] * 5)])
        after = pcu.stats.as_dict()
        assert after.pop("inst_checks") == before.pop("inst_checks") + 5
        assert after == before

    def test_silent_mode_touches_nothing_but_block_stats(self):
        isa_map, pcu, _ = build_pcu()
        before = pcu.stats.as_dict()
        pcu.account_block(BLOCK_SILENT, [classes_of(isa_map, ["alu"] * 9)])
        assert pcu.stats.as_dict() == before
        assert pcu.block_stats.insts == 9

    def test_only_checking_modes_emit_block_events(self):
        # A disabled PCU emits no check events, so BLOCK_SILENT emits no
        # block event; a checking mode emits exactly one.
        isa_map, pcu, manager = build_pcu()
        monitor = ContractMonitor(record=True)
        monitor.attach(pcu, manager)
        seeded = len(monitor.recorded)
        classes = classes_of(isa_map, ["alu", "sysop", "alu"])
        pcu.account_block(BLOCK_SILENT, [classes])
        assert len(monitor.recorded) == seeded
        pcu.account_block(BLOCK_DOMAIN0, [classes])
        (event,) = monitor.recorded[seeded:]
        assert (event.kind, event.domain, event.classes) == (
            "block", 0, classes)

    def test_an_epoch_settles_in_one_call(self):
        # One call for an epoch of three blocks, the last cut short by a
        # fault, replays the counters of all their members and gives
        # the tap one event per block, in retirement order.
        isa_map, pcu, manager = build_pcu()
        domain = warm(isa_map, pcu, manager)
        monitor = ContractMonitor(record=True)
        monitor.attach(pcu, manager)
        seeded = len(monitor.recorded)
        before = pcu.stats.as_dict()
        epoch = [classes_of(isa_map, ["alu", "load"]),
                 classes_of(isa_map, ["alu", "load"]),
                 classes_of(isa_map, ["load"])]
        pcu.account_block(BLOCK_BYPASS, epoch)
        after = pcu.stats.as_dict()
        assert after.pop("inst_checks") == before.pop("inst_checks") + 5
        assert after.pop("bypass_hits") == before.pop("bypass_hits") + 5
        assert after == before
        assert pcu.block_stats.insts == 5
        events = monitor.recorded[seeded:]
        assert [(event.kind, event.domain, event.classes)
                for event in events] == [
            ("block", domain.domain_id, classes) for classes in epoch]
        assert monitor.total_violations == 0


class TestBlockSummaryStats:
    def test_coverage_counts_every_fallback(self):
        stats = BlockSummaryStats(insts=90)
        stats.add_fallbacks(no_block=5, budget=1, refused=3, translated=1)
        assert stats.fallbacks == 10
        assert stats.coverage == 0.9

    def test_an_idle_executor_reads_zero_coverage(self):
        # hit_rate reads a perfect 1.0 when nothing was probed;
        # coverage must not let a disabled executor look healthy.
        stats = BlockSummaryStats()
        assert stats.hit_rate == 1.0
        assert stats.coverage == 0.0

    def test_merge_reset_and_as_dict_cover_every_counter(self):
        one = BlockSummaryStats(probes=4, hits=1, refused_stale=2,
                                refused_class=1, fallback_budget=3)
        total = BlockSummaryStats()
        total.merge(one)
        total.merge(one)
        assert total.refusals == 6
        assert total.as_dict()["refused_stale"] == 4
        assert total.as_dict()["fallbacks"] == 6
        total.reset()
        assert total == BlockSummaryStats()


# ----------------------------------------------------------------------
# Hypothesis lockstep: block-capable PCU vs per-instruction PCU under
# invalidation storms.
# ----------------------------------------------------------------------
CLASS_INDEX = st.integers(min_value=0, max_value=len(CLASSES) - 1)


class BlockSummaryLockstep(RuleBasedStateMachine):
    """Mirror every privilege operation onto both PCUs.  Straight-line
    "blocks" retire on the block side via one probe plus
    ``account_block`` whenever the probe authorizes them, and via
    per-instruction checks on the reference side; any divergence in
    authorization soundness (a member check faulting or stalling after
    an accepted probe) or in ``PcuStats`` is a §3.18 coherence bug."""

    def __init__(self):
        super().__init__()
        self.isa_map, self.blocky, self.blocky_manager = build_pcu()
        _, self.plain, self.plain_manager = build_pcu(block_summaries=False)
        assert self.blocky._block_capable and not self.plain._block_capable
        self.domains = []
        self.gates = {}
        self.next_gate_pc = 0x1000

    def check_both(self, **fields):
        outcomes = []
        for pcu in (self.blocky, self.plain):
            try:
                outcomes.append(("ok", pcu.check(AccessInfo(**fields))))
            except PrivilegeFault as fault:
                outcomes.append(("fault", type(fault).__name__))
        assert outcomes[0] == outcomes[1], (
            "block/plain diverged on %r: %r" % (fields, outcomes)
        )
        return outcomes[0]

    # -- configuration plane -------------------------------------------
    @rule()
    def create_domain(self):
        if len(self.domains) >= 4:
            return
        name = "dom%d" % len(self.domains)
        blocky_domain = self.blocky_manager.create_domain(name)
        plain_domain = self.plain_manager.create_domain(name)
        assert blocky_domain.domain_id == plain_domain.domain_id
        domain_id = blocky_domain.domain_id
        at = self.next_gate_pc
        self.next_gate_pc += 0x100
        self.gates[domain_id] = (
            self.blocky_manager.register_gate(at, at + 8, domain_id),
            self.plain_manager.register_gate(at, at + 8, domain_id),
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
        self.blocky_manager.allow_instructions(domain_id, names)
        self.plain_manager.allow_instructions(domain_id, names)

    # -- control plane -------------------------------------------------
    @rule(pick=st.randoms(use_true_random=False))
    def enter_domain(self, pick):
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        blocky_gate, plain_gate, at = self.gates[domain_id]
        outcomes = []
        for pcu, gate in ((self.blocky, blocky_gate),
                          (self.plain, plain_gate)):
            try:
                outcomes.append(("ok", pcu.execute_gate(GateKind.HCCALL,
                                                        gate, at)))
            except PrivilegeFault as fault:
                outcomes.append(("fault", type(fault).__name__))
        assert outcomes[0] == outcomes[1]

    @rule(cache_id=st.sampled_from(list(CacheId)))
    def flush(self, cache_id):
        self.blocky.flush(cache_id)
        self.plain.flush(cache_id)

    @rule(pick=st.randoms(use_true_random=False), wide=st.booleans())
    def invalidate(self, pick, wide):
        if wide or not self.domains:
            self.blocky.invalidate_privileges()
            self.plain.invalidate_privileges()
        else:
            domain_id = pick.choice(self.domains)
            self.blocky.invalidate_privileges(domain=domain_id)
            self.plain.invalidate_privileges(domain=domain_id)

    @rule(enter=st.booleans())
    def degraded_mode(self, enter):
        for pcu in (self.blocky, self.plain):
            if enter:
                pcu.enter_degraded_mode()
            else:
                pcu.exit_degraded_mode()

    @rule(pick=st.randoms(use_true_random=False), bump=st.integers(1, 3))
    def recycle_slot(self, pick, bump):
        # Tenant churn: bump a slot's generation in the shared table on
        # both worlds (the virtualizer's invalidation, minus the object).
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        for pcu in (self.blocky, self.plain):
            if pcu.generation_table is None:
                pcu.generation_table = {}
            table = pcu.generation_table
            table[domain_id] = table.get(domain_id, 0) + bump

    @rule(pick=st.randoms(use_true_random=False))
    def repair_slot(self, pick):
        # The virtualizer re-binds the tenant: table entry back to the
        # latched entry generation, ending the stale-slot episode.
        if not self.domains:
            return
        domain_id = pick.choice(self.domains)
        for pcu in (self.blocky, self.plain):
            if pcu.generation_table is not None:
                pcu.generation_table[domain_id] = pcu._entry_generation

    # -- data plane ----------------------------------------------------
    @rule(inst=CLASS_INDEX)
    def check_instruction(self, inst):
        self.check_both(inst_class=inst, address=0x4000 + inst)

    @rule(members=st.lists(CLASS_INDEX, min_size=3, max_size=8))
    def run_block(self, members):
        """One straight-line block of ``members``: probe + account on
        the block side, per-instruction checks on the reference side."""
        names = [CLASSES[index] for index in members]
        summary = summary_of(self.isa_map, names)
        mode = self.blocky.check_block_summary(summary)
        assert self.plain.check_block_summary(summary) == BLOCK_REFUSED
        if mode != BLOCK_REFUSED:
            # The probe's soundness claim: every member check on the
            # reference side must pass with zero stall.
            for index, inst in enumerate(members):
                outcome = ("ok", self.plain.check(
                    AccessInfo(inst_class=inst, address=0x8000 + index)))
                assert outcome == ("ok", 0), (
                    "probe authorized mode %d but member %r cost %r"
                    % (mode, CLASSES[inst], outcome)
                )
            self.blocky.account_block(mode, [tuple(members)])
        else:
            # Fallback semantics: both worlds run the reference path,
            # stopping at the first fault exactly like the executors.
            for index, inst in enumerate(members):
                outcome = self.check_both(
                    inst_class=inst, address=0x8000 + index)
                if outcome[0] == "fault":
                    break

    # -- invariants ----------------------------------------------------
    @invariant()
    def stats_identical(self):
        assert self.blocky.stats == self.plain.stats

    @invariant()
    def registers_identical(self):
        assert self.blocky.registers.domain == self.plain.registers.domain


BlockSummaryLockstep.TestCase.settings = stateful_settings(
    max_examples=25, stateful_step_count=40)
TestBlockSummaryLockstep = BlockSummaryLockstep.TestCase
