"""Direct contract tests: hand-built streams with known verdicts.

Each contract gets a minimal clean stream and a minimal violating
stream; the monitor-level tests pin the stream discipline (transaction
buffering, waiver arming, reproducer context) the drivers rely on.
The block tests pin the equal-count rule (a ``block`` event is judged
exactly as its member ``check`` events), and the routing tests that
handing a contract only its vocabulary loses nothing.
"""

import copy
import json

import pytest

from repro.contracts import (
    CONTRACT_CLASSES,
    CONTRACT_NAMES,
    TRACE_EVENT_KINDS,
    ContractMonitor,
    TraceEvent,
    replay_trace,
)

from .reference import expand_block

GEOMETRY = {"n_inst_classes": 6, "n_csrs": 4, "masked_csrs": (3,)}


def E(kind, **fields):
    return TraceEvent(kind=kind, **fields)


def replay(*events):
    return replay_trace(list(events), geometry=GEOMETRY, seed=11, campaign=3)


class TestInstRetirement:
    def test_granted_class_is_clean(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2),
        )
        assert monitor.total_violations == 0

    def test_ungranted_class_violates(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2),
        )
        assert monitor.counts()["inst_retirement"] == 1

    def test_domain_0_is_exempt(self):
        monitor = replay(E("check", domain=0, inst=5))
        assert monitor.total_violations == 0

    def test_faulted_check_is_not_a_retirement(self):
        monitor = replay(
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2,
              status="InstructionPrivilegeFault"),
        )
        assert monitor.total_violations == 0


class TestCsrRetirement:
    def test_read_without_grant_violates(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, csr=1, read=True),
        )
        assert monitor.counts()["csr_retirement"] == 1

    def test_masked_write_outside_mask_violates(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="set_mask", domain=1, csr=3, bits=0x0F),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, csr=3, write=True, old=0, value=0xF0),
        )
        assert monitor.counts()["csr_retirement"] == 1

    def test_masked_write_inside_mask_is_clean_without_write_bit(self):
        # The mask rule replaces the write bit for masked CSRs.
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="set_mask", domain=1, csr=3, bits=0x0F),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, csr=3, write=True, old=0, value=0x0A),
        )
        assert monitor.total_violations == 0


class TestGateOnlySwitches:
    def test_registered_gate_to_destination_is_clean(self):
        monitor = replay(
            E("reconfig", op="register_gate", gate=0, dest=1),
            E("gate", op="hccall", gate=0, pre_domain=0, domain=1),
            E("check", domain=1),
        )
        assert monitor.total_violations == 0

    def test_wrong_destination_violates(self):
        monitor = replay(
            E("reconfig", op="register_gate", gate=0, dest=1),
            E("gate", op="hccall", gate=0, pre_domain=0, domain=2),
        )
        assert monitor.counts()["gate_only_switches"] == 1

    def test_unregistered_gate_success_violates(self):
        monitor = replay(
            E("gate", op="hccalls", gate=7, pre_domain=0, domain=1),
        )
        assert monitor.counts()["gate_only_switches"] == 1

    def test_hcrets_into_domain_0_violates(self):
        monitor = replay(
            E("reconfig", op="sync_domain", domain=2),
            E("gate", op="hcrets", gate=-1, pre_domain=2, domain=0),
        )
        assert monitor.counts()["gate_only_switches"] == 1

    def test_faulted_gate_must_not_switch(self):
        monitor = replay(
            E("gate", op="hccall", gate=0, pre_domain=0, domain=1,
              status="GateFault"),
        )
        assert monitor.counts()["gate_only_switches"] == 1

    def test_resync_reports_once_not_a_storm(self):
        monitor = replay(
            E("check", domain=2),  # teleport: one violation
            E("check", domain=2),  # resynced: quiet
            E("check", domain=2),
        )
        assert monitor.counts()["gate_only_switches"] == 1


class TestTrustedMemConfinement:
    def test_software_store_outside_txn_violates(self):
        monitor = replay(
            E("reconfig", op="sync_domain", domain=1),
            E("mem_write", op="sw", domain=1, address=0x10, value=5),
        )
        assert monitor.counts()["trusted_mem_d0"] == 1

    def test_software_store_inside_txn_is_clean(self):
        monitor = replay(
            E("txn", op="begin"),
            E("mem_write", op="sw", domain=0, address=0x10, value=5),
            E("txn", op="commit"),
        )
        assert monitor.total_violations == 0

    def test_hardware_and_scrub_origins_are_exempt(self):
        monitor = replay(
            E("reconfig", op="sync_domain", domain=2),
            E("mem_write", op="hw", domain=2, address=0x10, value=5),
            E("mem_write", op="scrub", domain=2, address=0x18, value=6),
        )
        assert monitor.total_violations == 0


class TestCoherenceAfterRevoke:
    def test_revoked_inst_grant_violates(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("reconfig", op="sync_domain", domain=1),
            E("reconfig", op="deny_inst", domain=1, inst=2),
            E("check", domain=1, inst=2),
        )
        counts = monitor.counts()
        assert counts["coherence_after_revoke"] == 1
        # the same stale verdict also fails plain retirement
        assert counts["inst_retirement"] == 1

    def test_regrant_clears_the_revocation(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("reconfig", op="deny_inst", domain=1, inst=2),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2),
        )
        assert monitor.total_violations == 0

    def test_revoked_csr_read_violates(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="grant_csr", domain=1, csr=0, read=True),
            E("reconfig", op="revoke_csr", domain=1, csr=0, read=True),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, csr=0, read=True),
        )
        assert monitor.counts()["coherence_after_revoke"] == 1


class TestRollbackAtomicity:
    def test_clean_abort_restores_first_touch(self):
        monitor = replay(
            E("txn", op="begin"),
            E("mem_write", op="sw", domain=0, address=0x20, old=5, value=9),
            E("txn", op="abort", values={0x20: 5}),
        )
        assert monitor.total_violations == 0

    def test_torn_abort_violates(self):
        monitor = replay(
            E("txn", op="begin"),
            E("mem_write", op="sw", domain=0, address=0x20, old=5, value=9),
            E("txn", op="abort", values={0x20: 9}),
        )
        assert monitor.counts()["rollback_atomicity"] == 1

    def test_commit_judges_nothing(self):
        monitor = replay(
            E("txn", op="begin"),
            E("mem_write", op="sw", domain=0, address=0x20, old=5, value=9),
            E("txn", op="commit"),
        )
        assert monitor.total_violations == 0


class TestMonitorDiscipline:
    def test_aborted_txn_discards_buffered_reconfigs(self):
        # allow_inst inside an aborted transaction never happened: the
        # later check must still violate inst retirement.
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="sync_domain", domain=1),
            E("txn", op="begin"),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("txn", op="abort"),
            E("check", domain=1, inst=2),
        )
        assert monitor.counts()["inst_retirement"] == 1

    def test_committed_txn_delivers_buffered_reconfigs(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="sync_domain", domain=1),
            E("txn", op="begin"),
            E("reconfig", op="allow_inst", domain=1, inst=2),
            E("txn", op="commit"),
            E("check", domain=1, inst=2),
        )
        assert monitor.total_violations == 0

    def test_injected_fault_waives_later_violations(self):
        monitor = replay(
            E("fault", op="injected", detail="bitflip hpt[1]"),
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2),
        )
        assert monitor.total_violations == 1
        assert monitor.unwaived_violations == 0
        assert monitor.violations[0].waived_by == "bitflip hpt[1]"

    def test_violations_carry_reproducer_context(self):
        monitor = replay(
            E("reconfig", op="sync_domain", domain=1),
            E("check", domain=1, inst=2),
        )
        violation = monitor.first_unwaived()
        assert violation is not None
        assert violation.seed == 11
        assert violation.campaign == 3
        assert violation.index == 1
        text = violation.describe()
        assert "seed 11" in text and "campaign 3" in text

    def test_counts_cover_every_contract_in_canonical_order(self):
        monitor = replay()
        assert tuple(monitor.counts()) == CONTRACT_NAMES
        assert all(count == 0 for count in monitor.counts().values())

    def test_waiver_probe_wins_over_armed_detail(self):
        monitor = ContractMonitor(seed=0)
        monitor.configure(GEOMETRY)
        monitor.waiver_probe = lambda: "probe says injector fired"
        monitor.feed(E("reconfig", op="sync_domain", domain=1))
        monitor.feed(E("check", domain=1, inst=2))
        assert monitor.violations[0].waived_by == "probe says injector fired"

    def test_event_roundtrips_through_dict(self):
        event = E("txn", op="abort", values={0x20: 5, 0x28: 7})
        assert TraceEvent.from_dict(event.to_dict()) == event


#: Domain 1 holds classes 0 and 1 and has lost class 2 to a revoke;
#: the core entered slot 1 through gate 0, the slot was then recycled
#: away, and class 1 is sealed (a recycle drops older seals).  Domain 3
#: holds nothing.
BLOCK_WORLD = [
    E("reconfig", op="create_domain", domain=1),
    E("reconfig", op="create_domain", domain=3),
    E("reconfig", op="allow_inst", domain=1, inst=0),
    E("reconfig", op="allow_inst", domain=1, inst=1),
    E("reconfig", op="allow_inst", domain=1, inst=2),
    E("reconfig", op="deny_inst", domain=1, inst=2),
    E("reconfig", op="register_gate", gate=0, dest=1),
    E("reconfig", op="bind_slot", domain=1, bits=0, dest=100),
    E("gate", op="hccall", gate=0, pre_domain=0, domain=1),
    E("reconfig", op="recycle_slot", domain=1, bits=1, dest=100),
    E("reconfig", op="seal", domain=1, inst=1),
]


class TestBlockEvents:
    """A block is judged exactly as its member checks: the same count
    per contract, for clean and offending members alike."""

    @pytest.mark.parametrize("domain, classes, expected", [
        (1, (0, 0, 0), {"no_stale_generation": 3}),
        (1, (0, 1, 2, 2, 3, 1),
         {"inst_retirement": 3, "coherence_after_revoke": 2,
          "no_unseal": 2, "no_stale_generation": 6}),
        (3, (0, 4), {"inst_retirement": 2, "gate_only_switches": 1}),
        (0, (2, 3, 5), {"gate_only_switches": 1}),
    ], ids=["clean-members", "offending-members", "wrong-domain",
            "domain-0"])
    def test_block_counts_equal_its_expansion(self, domain, classes,
                                              expected):
        block = E("block", domain=domain, classes=classes)
        as_block = replay(*BLOCK_WORLD, block)
        as_checks = replay(*BLOCK_WORLD, *expand_block(block))
        assert as_block.counts() == as_checks.counts()
        assert as_block.nonzero_counts() == expected
        assert (as_block.unwaived_violations
                == as_checks.unwaived_violations
                == sum(expected.values()))

    def test_faulted_block_is_not_a_retirement(self):
        block = E("block", domain=3, classes=(4, 5), status="PrivilegeFault")
        as_block = replay(*BLOCK_WORLD, block)
        as_checks = replay(*BLOCK_WORLD, *expand_block(block))
        assert as_block.counts() == as_checks.counts()

    def test_csr_retirement_ignores_blocks(self):
        monitor = replay(
            E("reconfig", op="create_domain", domain=1),
            E("reconfig", op="sync_domain", domain=1),
            E("block", domain=1, classes=(0, 1)),
        )
        assert monitor.counts()["csr_retirement"] == 0
        assert monitor.counts()["inst_retirement"] == 2

    def test_block_classes_roundtrip_through_json(self):
        event = E("block", domain=2, classes=(3, 0, 3))
        data = event.to_dict()
        assert data == {"kind": "block", "domain": 2, "classes": [3, 0, 3]}
        back = TraceEvent.from_dict(json.loads(json.dumps(data)))
        assert back == event
        assert isinstance(back.classes, tuple)

    def test_events_without_classes_keep_their_dict(self):
        # Existing corpora and recorded traces keep their bytes.
        assert "classes" not in E("check", domain=1, inst=2).to_dict()


#: One sample of every kind, with fields a contract would act on.
EVERY_KIND = [
    E("check", domain=1, inst=2, csr=1, read=True, write=True, value=3),
    E("block", domain=1, classes=(0, 2)),
    E("gate", op="hccall", gate=0, pre_domain=0, domain=2),
    E("mem_write", op="sw", domain=1, address=0x10, value=5, old=4),
    E("reconfig", op="create_domain", domain=1),
    E("reconfig", op="allow_inst", domain=1, inst=2),
    E("reconfig", op="bind_slot", domain=1, bits=2, dest=100),
    E("reconfig", op="seal", domain=1, inst=3, csr=0, read=True),
    E("txn", op="begin"),
    E("txn", op="abort", values={0x10: 1}),
    E("fault", op="injected", detail="routing test"),
]


class TestVocabularyRouting:
    def test_every_kind_is_sampled(self):
        assert {event.kind for event in EVERY_KIND} == set(TRACE_EVENT_KINDS)

    @pytest.mark.parametrize("cls", CONTRACT_CLASSES,
                             ids=[cls.name for cls in CONTRACT_CLASSES])
    def test_kinds_outside_the_vocabulary_are_inert(self, cls):
        # The monitor skips these deliveries, so they must be no-ops.
        contract = cls()
        contract.configure(GEOMETRY)
        for event in BLOCK_WORLD + [E("txn", op="begin"),
                                    E("mem_write", op="sw", domain=1,
                                      address=0x18, old=7, value=8)]:
            contract.observe(copy.copy(event))
        for event in EVERY_KIND:
            if event.kind in cls.vocabulary:
                continue
            shadow = copy.deepcopy(vars(contract))
            assert contract.observe(copy.copy(event)) == []
            assert vars(contract) == shadow, event

    def test_monitor_routes_by_vocabulary(self):
        monitor = ContractMonitor()
        for kind in TRACE_EVENT_KINDS:
            routed = [contract.name
                      for contract in monitor._routes.get(kind, ())]
            assert routed == [contract.name for contract in monitor.contracts
                              if kind in contract.vocabulary]
        assert [contract.name for contract in monitor._routes["block"]] == [
            "inst_retirement", "gate_only_switches", "coherence_after_revoke",
            "no_stale_generation", "no_unseal"]
