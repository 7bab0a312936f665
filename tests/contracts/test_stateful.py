"""Stateful cross-check: the contract monitor vs a brute-force reference.

Hypothesis drives random event streams — valid runs, deliberately
violating runs, retired blocks, repeated checks and blocks,
transactions that commit or abort, injected-fault arming — and after
every rule the full stream is replayed through
:func:`repro.contracts.replay_trace` and through the independent
reference in :mod:`tests.contracts.reference`.  Per-contract counts and
the unwaived total must agree exactly; hypothesis shrinks any mismatch
to a minimal rule sequence.  The stream is also replayed through the
live tap (``on_check``/``on_block``, where the clean-verdict memo sits),
recording and not, which must give the ``feed`` replay's violations,
indices and event count.
"""

from dataclasses import replace
from types import SimpleNamespace

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.contracts import (
    CONTRACT_NAMES,
    ContractMonitor,
    TraceEvent,
    replay_trace,
)

from ..profiles import stateful_settings
from .reference import reference_verdict

GEOMETRY = {"n_inst_classes": 6, "n_csrs": 4, "masked_csrs": (3,)}

DOMAIN = st.integers(min_value=0, max_value=3)
INST = st.integers(min_value=-1, max_value=5)
#: A retired block's member classes: decoded, so never negative.
BLOCK_CLASSES = st.lists(st.integers(min_value=0, max_value=5),
                         min_size=1, max_size=6)
CSR = st.integers(min_value=-1, max_value=3)
GATE = st.integers(min_value=0, max_value=2)
VALUE = st.integers(min_value=0, max_value=255)
ADDRESS = st.sampled_from([0x10, 0x18, 0x20, 0x28])
STATUS = st.sampled_from(["ok", "ok", "ok", "InstructionPrivilegeFault",
                          "RegisterWriteFault"])
ORIGIN = st.sampled_from(["sw", "sw", "hw", "d0", "scrub"])
GATE_OP = st.sampled_from(["hccall", "hccalls", "hcrets"])


class ContractStream(RuleBasedStateMachine):
    """Rules append raw trace events; the invariant cross-checks them."""

    def __init__(self):
        super().__init__()
        self.events = []
        self.in_txn = False
        #: A rough model, only to steer ``retire`` towards clean
        #: retirements: the domain the core was last seen in, and the
        #: classes each domain was granted.
        self.current = 0
        self.granted = {}

    def emit(self, kind, **fields):
        self.append(TraceEvent(kind=kind, **fields))

    def append(self, event):
        self.events.append(event)
        if event.kind == "reconfig":
            if event.op in ("create_domain", "clear_domain"):
                self.granted[event.domain] = set()
            elif event.op == "allow_inst":
                self.granted.setdefault(event.domain, set()).add(event.inst)
            elif event.op == "deny_inst":
                self.granted.get(event.domain, set()).discard(event.inst)
            elif event.op == "sync_domain":
                self.current = event.domain
        elif event.kind != "txn" and event.domain >= 0:
            self.current = event.domain

    # -- reconfiguration -----------------------------------------------
    @rule(domain=DOMAIN)
    def create_domain(self, domain):
        self.emit("reconfig", op="create_domain", domain=domain)

    @rule(domain=DOMAIN)
    def clear_domain(self, domain):
        self.emit("reconfig", op="clear_domain", domain=domain)

    @rule(domain=DOMAIN, inst=st.integers(min_value=0, max_value=5))
    def allow_inst(self, domain, inst):
        self.emit("reconfig", op="allow_inst", domain=domain, inst=inst)

    @rule(domain=DOMAIN, inst=st.integers(min_value=0, max_value=5))
    def deny_inst(self, domain, inst):
        self.emit("reconfig", op="deny_inst", domain=domain, inst=inst)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          read=st.booleans(), write=st.booleans())
    def grant_csr(self, domain, csr, read, write):
        self.emit("reconfig", op="grant_csr", domain=domain, csr=csr,
                  read=read, write=write)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          read=st.booleans(), write=st.booleans())
    def revoke_csr(self, domain, csr, read, write):
        self.emit("reconfig", op="revoke_csr", domain=domain, csr=csr,
                  read=read, write=write)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          bits=VALUE)
    def set_mask(self, domain, csr, bits):
        self.emit("reconfig", op="set_mask", domain=domain, csr=csr,
                  bits=bits)

    @rule(gate=GATE, dest=DOMAIN)
    def register_gate(self, gate, dest):
        self.emit("reconfig", op="register_gate", gate=gate, dest=dest)

    @rule(gate=GATE)
    def unregister_gate(self, gate):
        self.emit("reconfig", op="unregister_gate", gate=gate)

    @rule(domain=DOMAIN)
    def sync_domain(self, domain):
        self.emit("reconfig", op="sync_domain", domain=domain)

    @rule(domain=DOMAIN, bits=st.integers(min_value=0, max_value=3),
          dest=st.integers(min_value=100, max_value=103))
    def bind_slot(self, domain, bits, dest):
        self.emit("reconfig", op="bind_slot", domain=domain, bits=bits,
                  dest=dest)

    @rule(domain=DOMAIN, bits=st.integers(min_value=0, max_value=3),
          dest=st.integers(min_value=100, max_value=103))
    def recycle_slot(self, domain, bits, dest):
        self.emit("reconfig", op="recycle_slot", domain=domain, bits=bits,
                  dest=dest)

    @rule(domain=DOMAIN, inst=INST, csr=CSR,
          read=st.booleans(), write=st.booleans())
    def seal(self, domain, inst, csr, read, write):
        self.emit("reconfig", op="seal", domain=domain, inst=inst,
                  csr=csr, read=read, write=write)

    # -- observable events (valid and violating alike) -------------------
    @rule(domain=DOMAIN, status=STATUS, inst=INST, csr=CSR,
          read=st.booleans(), write=st.booleans(), value=VALUE, old=VALUE)
    def check(self, domain, status, inst, csr, read, write, value, old):
        self.emit("check", domain=domain, status=status, inst=inst,
                  csr=csr, read=read, write=write, value=value, old=old)

    @rule(domain=DOMAIN, classes=BLOCK_CLASSES)
    def block(self, domain, classes):
        # Any domain and any classes: ungranted, revoked, sealed,
        # stale-slot and wrong-domain blocks all occur.
        self.emit("block", domain=domain, classes=tuple(classes))

    @rule(data=st.data())
    def retire(self, data):
        # Granted classes in the current domain: mostly clean, so the
        # repeats below reach the tap's clean-verdict memo.
        granted = (sorted(self.granted.get(self.current, ()))
                   if self.current else range(6))
        if not granted:
            return
        classes = data.draw(st.lists(st.sampled_from(granted), min_size=1,
                                     max_size=4))
        if len(classes) == 1:
            self.emit("check", domain=self.current, inst=classes[0])
        else:
            self.emit("block", domain=self.current, classes=tuple(classes))

    @precondition(lambda self: any(event.kind in ("check", "block")
                                   for event in self.events))
    @rule(back=st.integers(min_value=0, max_value=2),
          times=st.integers(min_value=1, max_value=3))
    def repeat(self, back, times):
        # A loop body: a recent check or block again, which the tap's
        # clean-verdict memo serves when nothing moved a shadow since.
        recent = [event for event in self.events
                  if event.kind in ("check", "block")][-3:]
        event = recent[max(0, len(recent) - 1 - back)]
        for _ in range(times):
            self.append(replace(event))

    @rule(op=GATE_OP, gate=GATE, pre_domain=DOMAIN, domain=DOMAIN,
          status=st.sampled_from(["ok", "ok", "GateFault"]))
    def gate(self, op, gate, pre_domain, domain, status):
        self.emit("gate", op=op, gate=gate, pre_domain=pre_domain,
                  domain=domain, status=status)

    @rule(origin=ORIGIN, domain=st.integers(min_value=-1, max_value=3),
          address=ADDRESS, value=VALUE, old=VALUE)
    def mem_write(self, origin, domain, address, value, old):
        self.emit("mem_write", op=origin, domain=domain, address=address,
                  value=value, old=old)

    @precondition(lambda self: not self.in_txn)
    @rule()
    def txn_begin(self):
        self.emit("txn", op="begin")
        self.in_txn = True

    @precondition(lambda self: self.in_txn)
    @rule()
    def txn_nested_begin(self):
        # On purpose: a malformed bracket, which both sides must report
        # as a stream error while keeping the buffered reconfigs.
        self.emit("txn", op="begin")

    @rule()
    def txn_commit(self):
        self.emit("txn", op="commit")
        self.in_txn = False

    @rule(values=st.dictionaries(ADDRESS, VALUE, max_size=3))
    def txn_abort(self, values):
        self.emit("txn", op="abort", values=values)
        self.in_txn = False

    @rule()
    def inject_fault(self):
        self.emit("fault", op="injected", detail="stateful-test fault")

    # -- the cross-check -------------------------------------------------
    @invariant()
    def monitor_matches_reference(self):
        assert_monitor_matches_reference(self.events)


def stub_pcu(domain):
    """What the tap reads of a PCU: the running domain."""
    return SimpleNamespace(registers=SimpleNamespace(domain=domain))


def replay_through_tap(events, *, record=False):
    """Replay ``events`` as a live world narrates them: checks through
    ``on_check``, blocks through ``on_block``, the rest through ``feed``."""
    monitor = ContractMonitor(record=record)
    monitor.configure(GEOMETRY)
    for event in events:
        if event.kind == "check":
            access = SimpleNamespace(
                inst_class=event.inst,
                csr=None if event.csr < 0 else event.csr,
                csr_read=event.read, csr_write=event.write,
                write_value=event.value, old_value=event.old)
            monitor.on_check(stub_pcu(event.domain), access, event.status)
        elif event.kind == "block":
            monitor.on_block(stub_pcu(event.domain), event.classes)
        else:
            monitor.feed(replace(event))
    return monitor


def verdict_of(monitor):
    return (monitor.counts(), monitor.unwaived_violations,
            [(v.contract, v.index) for v in monitor.violations],
            [error.index for error in monitor.stream_errors],
            monitor.events_seen)


def assert_monitor_matches_reference(events):
    monitor = replay_trace([replace(event) for event in events],
                           geometry=GEOMETRY)
    counts, unwaived, stream_errors = reference_verdict(events, GEOMETRY)
    assert monitor.counts() == counts, (
        "per-contract counts diverged: monitor=%r reference=%r"
        % (monitor.counts(), counts))
    assert monitor.unwaived_violations == unwaived, (
        "unwaived totals diverged: monitor=%d reference=%d"
        % (monitor.unwaived_violations, unwaived))
    assert [error.index for error in monitor.stream_errors] == stream_errors
    assert set(monitor.counts()) == set(CONTRACT_NAMES)
    for record in (False, True):
        tapped = replay_through_tap(events, record=record)
        assert verdict_of(tapped) == verdict_of(monitor), (
            "the tap replay (record=%s) diverged from the feed replay"
            % record)
    assert tapped.recorded == [replace(event, index=position)
                               for position, event in enumerate(events)]
    return counts, stream_errors


TestContractStream = ContractStream.TestCase
TestContractStream.settings = stateful_settings(
    max_examples=20, stateful_step_count=30)


def test_nested_begin_is_a_stream_error_on_both_sides():
    # The stream hypothesis shrank a monitor/reference split to: the
    # monitor kept the sync_domain(1) buffered before the nested begin,
    # the reference dropped it, so gate_only_switches read 2 against 1.
    counts, stream_errors = assert_monitor_matches_reference([
        TraceEvent(kind="txn", op="begin"),
        TraceEvent(kind="reconfig", op="sync_domain", domain=1),
        TraceEvent(kind="txn", op="begin"),
        TraceEvent(kind="txn", op="commit"),
        TraceEvent(kind="gate", op="hccall", gate=0, pre_domain=0,
                   domain=0),
    ])
    assert stream_errors == [2]
    # The commit released sync_domain(1), so the hccall from domain 0
    # is both a switch outside a gate and an unregistered gate.
    assert counts["gate_only_switches"] == 2
    assert sum(counts.values()) == 2


def test_stray_commit_and_abort_are_stream_errors():
    counts, stream_errors = assert_monitor_matches_reference([
        TraceEvent(kind="txn", op="commit"),
        TraceEvent(kind="txn", op="begin"),
        TraceEvent(kind="txn", op="abort", values={}),
        TraceEvent(kind="txn", op="abort", values={}),
    ])
    assert stream_errors == [0, 3]
    assert sum(counts.values()) == 0
