"""The contract monitor's clean-verdict memo (DESIGN §3.16).

The tap serves a repeated clean ``check`` or ``block`` verdict from a
memo instead of building its event and calling the contracts.  That is
sound only while nothing that could move a contract's shadow has
happened since, so these tests pin both halves.  A seeded stale-cache
bug behind a memoized check and block must be caught, and a memo that
never clears must miss it.  No contract may change its shadow while
judging a check or block clean, the precondition the memo rests on.
The hypothesis cross-check in ``test_stateful.py`` also replays every
stream through the tap.
"""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.contracts import (
    CONTRACT_CLASSES,
    TRACE_EVENT_KINDS,
    ContractMonitor,
    TraceEvent,
)
from repro.contracts.events import RECONFIG_OPS
from repro.core import AccessInfo, PrivilegeCheckUnit
from repro.core.pcu import BLOCK_BYPASS

from ..core.test_block_summaries import build_pcu, classes_of, warm
from .test_stateful import (
    ADDRESS,
    BLOCK_CLASSES,
    CSR,
    DOMAIN,
    GATE,
    GATE_OP,
    GEOMETRY,
    INST,
    ORIGIN,
    STATUS,
    VALUE,
    assert_monitor_matches_reference,
    replay_through_tap,
    stub_pcu,
)


class NeverClears(set):
    """The seeded memo bug: a memo whose ``clear`` does nothing."""

    def clear(self):
        pass


def run_stale_cache_bug(monkeypatch, memo=None):
    """Memoize a clean ``alu`` check and block, revoke ``alu`` under a
    seeded stale-cache bug, then repeat both; return the monitor."""
    isa_map, pcu, manager = build_pcu()
    domain = warm(isa_map, pcu, manager)
    monitor = ContractMonitor()
    monitor.attach(pcu, manager)
    if memo is not None:
        monitor._clean = memo
    alu = AccessInfo(inst_class=isa_map.inst_class("alu"))
    block = classes_of(isa_map, ["alu", "load", "alu"])
    pcu.check(alu)
    pcu.account_block(BLOCK_BYPASS, [block])
    assert monitor.total_violations == 0
    assert len(monitor._clean) == 2
    # The revoke no longer invalidates cached privileges, so the warm
    # bypass register keeps granting ``alu``.
    monkeypatch.setattr(PrivilegeCheckUnit, "invalidate_privileges",
                        lambda self, *args, **kwargs: None)
    manager.deny_instruction(domain.domain_id, "alu")
    pcu.check(alu)
    pcu.account_block(BLOCK_BYPASS, [block])
    return monitor


class TestSeededStaleCacheBug:
    def test_the_revoke_clears_the_memo_and_the_bug_is_caught(
            self, monkeypatch):
        monitor = run_stale_cache_bug(monkeypatch)
        # One per stale check, one per ``alu`` member of the block.
        assert monitor.nonzero_counts() == {
            "inst_retirement": 3, "coherence_after_revoke": 3}
        assert monitor.unwaived_violations == 6
        assert monitor.memo_hits == 0

    def test_a_memo_that_never_clears_misses_the_bug(self, monkeypatch):
        monitor = run_stale_cache_bug(monkeypatch, memo=NeverClears())
        assert monitor.total_violations == 0
        assert monitor.memo_hits == 2


# -- the memo's rules ------------------------------------------------------
def E(kind, **fields):
    return TraceEvent(kind=kind, **fields)


#: Domain 1 is the current domain and may retire class 2.
IN_DOMAIN_1 = [E("reconfig", op="create_domain", domain=1),
               E("reconfig", op="allow_inst", domain=1, inst=2),
               E("reconfig", op="sync_domain", domain=1)]
BODY = E("check", domain=1, inst=2)


def judged_alike(events):
    """Replay ``events`` through ``feed`` and the tap, require the same
    verdict from both and the reference, and return the tap monitor."""
    assert_monitor_matches_reference(events)
    return replay_through_tap(events)


@pytest.mark.parametrize("first, second", [
    # A faulted check of an ungranted class is no retirement; the ok
    # check of the same class after it is one.
    (E("check", domain=1, inst=3, status="InstructionPrivilegeFault"),
     E("check", domain=1, inst=3)),
    # A clean check of a granted class says nothing about the same class
    # reading a CSR the domain was never granted.
    (BODY, E("check", domain=1, inst=2, csr=0, read=True)),
], ids=["faulted", "csr"])
def test_faulted_and_csr_checks_are_judged_every_time(first, second):
    monitor = judged_alike(IN_DOMAIN_1 + [first, second])
    assert monitor.total_violations == 1
    assert monitor.memo_hits == 0


@pytest.mark.parametrize("mover", [
    E("reconfig", op="deny_inst", domain=1, inst=2),
    E("reconfig", op="clear_domain", domain=1),
    E("reconfig", op="seal", domain=1, inst=2),
    E("reconfig", op="recycle_slot", domain=1, bits=1),
    E("reconfig", op="sync_domain", domain=3),
    E("gate", op="hcrets", pre_domain=1, domain=3),
], ids=lambda event: event.op)
def test_an_event_that_moves_a_shadow_clears_the_memo(mover):
    """``mover`` reports nothing itself, but makes the repeated body a
    violation; only a cleared memo lets the tap see it."""
    monitor = judged_alike(IN_DOMAIN_1 + [BODY, BODY, mover, BODY])
    assert monitor.memo_hits == 1
    assert monitor.total_violations > 0
    assert {v.index for v in monitor.violations} == {len(IN_DOMAIN_1) + 3}


def test_a_reported_problem_clears_the_memo():
    # The check in domain 3 resyncs gate_only_switches' shadow to 3, so
    # the body in domain 1 is a violation again.
    monitor = judged_alike(IN_DOMAIN_1 + [
        BODY, E("check", domain=3, inst=2), BODY])
    assert monitor.counts()["gate_only_switches"] == 2
    assert monitor.memo_hits == 0


@pytest.mark.parametrize("clearer", [
    kind for kind in TRACE_EVENT_KINDS if kind not in ("check", "block")
] + ["configure"])
def test_every_other_kind_and_configure_empty_the_memo(clearer):
    monitor = replay_through_tap(IN_DOMAIN_1 + [BODY])
    assert monitor._clean
    if clearer == "configure":
        monitor.configure(GEOMETRY)
    else:
        monitor.feed(E(clearer))
    assert not monitor._clean


def test_memo_hits_stay_out_of_counts_and_summary():
    monitor = ContractMonitor()
    monitor.configure(GEOMETRY)
    for _ in range(3):
        monitor.on_block(stub_pcu(0), (1, 2))
    assert monitor.memo_hits == 2
    assert monitor.events_seen == 3
    assert monitor.summary()["events"] == 3
    assert "memo_hits" not in monitor.summary()
    assert set(monitor.counts()) == {cls.name for cls in CONTRACT_CLASSES}


# -- the memo's precondition, per contract --------------------------------
def _events(kind, **fields):
    return st.builds(TraceEvent, kind=st.just(kind), **fields)


EVENT = st.one_of(
    _events("reconfig", op=st.sampled_from(RECONFIG_OPS), domain=DOMAIN,
            inst=INST, csr=CSR, read=st.booleans(), write=st.booleans(),
            bits=VALUE, gate=GATE, dest=DOMAIN),
    _events("check", domain=DOMAIN, status=STATUS, inst=INST, csr=CSR,
            read=st.booleans(), write=st.booleans(), value=VALUE, old=VALUE),
    _events("block", domain=DOMAIN, classes=BLOCK_CLASSES.map(tuple)),
    _events("gate", op=GATE_OP, gate=GATE, pre_domain=DOMAIN,
            domain=DOMAIN, status=st.sampled_from(["ok", "GateFault"])),
    _events("mem_write", op=ORIGIN, domain=DOMAIN, address=ADDRESS,
            value=VALUE, old=VALUE),
    _events("txn", op=st.sampled_from(["begin", "commit", "abort"]),
            values=st.dictionaries(ADDRESS, VALUE, max_size=3)),
)


@given(events=st.lists(EVENT, min_size=10, max_size=40))
def test_a_clean_check_or_block_leaves_every_shadow_alone(events):
    """A contract that judges a check or block clean must not change
    its state doing so: the memo skips every clean repeat, so a shadow
    moved by one would go unseen."""
    contracts = [cls() for cls in CONTRACT_CLASSES]
    for contract in contracts:
        contract.configure(GEOMETRY)
    for event in events:
        for contract in contracts:
            if event.kind != "check" and event.kind != "block":
                contract.observe(event)
                continue
            before = copy.deepcopy(vars(contract))
            if not contract.observe(event):
                assert vars(contract) == before, (
                    "%s changed its shadow on a clean %r"
                    % (contract.name, event))
