"""The contract monitor: one trace stream fanned into every contract.

The :class:`ContractMonitor` is both the fan-out hub and the *tap* the
core models call into (``PrivilegeCheckUnit._tap``,
``TrustedMemory._tap``, ``DomainManager._tap``).  Attached to a live
world it narrates checks, retired blocks, gates, trusted-memory
stores, transactions and reconfigurations as
:class:`~repro.contracts.events.TraceEvent` records; fed a committed
corpus it replays the same records with no hardware behind them.
Either way each event reaches every registered contract whose
``vocabulary`` names its kind, and each problem a contract reports
becomes a :class:`ContractViolation` carrying first-violation
reproducer context: the seed, the campaign id and the event index.

Two pieces of stream discipline keep the shadows honest:

* **Transaction buffering** — ``reconfig`` events emitted inside an
  open trusted-memory transaction are buffered and only delivered at
  commit; an abort discards them, exactly as the rollback discards the
  mutation.  (Memory stores are delivered live — the rollback
  atomicity contract needs to see them to judge the abort.)
* **Attach-time seeding** — attaching mid-run replays the manager's
  current descriptors and gate table as synthetic ``reconfig`` events,
  so contracts judge a machine world whose kernel configured domains
  long before monitoring started.

The tap judges each clean verdict once.  An ``ok`` check with no CSR
and a retired block are judged from their kind, domain and classes
plus the contracts' shadows, and only events of other kinds (or a
reported problem) move a shadow.  So the first time such a verdict
comes out clean its key enters a memo, and until the memo is cleared
a repeat is only stamped and counted (``memo_hits``): no event is
built and no contract is called (DESIGN §3.16).

A malformed transaction bracket — a ``begin`` inside an open
transaction, or a ``commit``/``abort`` with none open — is a
:class:`StreamError`, reported apart from the contracts' violations.
Live trusted memory raises on a nested ``begin_transaction``, so only
generated, replayed or shrunk traces carry one.  The stream is then
read as written: a nested ``begin`` keeps the reconfigs already
buffered for whichever commit or abort closes the transaction.

Waivers: in a fault campaign an injected fault *should* trip contracts
— that is the detection working.  A violation is waived when the
driver's ``waiver_probe`` reports an armed-and-fired fault (or a
``fault``/``injected`` trace event preceded it); only unwaived
violations count against the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from .contracts import Contract, make_contracts
from .events import TraceEvent


@dataclass
class ContractViolation:
    """One contract problem, with enough context to reproduce it."""

    contract: str
    index: int                     # event index within the trace
    detail: str
    event: TraceEvent
    seed: Optional[int] = None
    campaign: Optional[int] = None
    waived: bool = False
    waived_by: Optional[str] = None

    def describe(self) -> str:
        where = "event %d" % self.index
        if self.campaign is not None:
            where = "campaign %s, %s" % (self.campaign, where)
        if self.seed is not None:
            where = "seed %s, %s" % (self.seed, where)
        return "%s (%s): %s" % (self.contract, where, self.detail)

    def to_dict(self) -> Dict[str, object]:
        return {
            "contract": self.contract,
            "index": self.index,
            "detail": self.detail,
            "seed": self.seed,
            "campaign": self.campaign,
            "waived": self.waived,
            "waived_by": self.waived_by,
            "event": self.event.to_dict(),
        }


@dataclass
class StreamError:
    """An event that breaks the stream's transaction bracket."""

    index: int                     # event index within the trace
    detail: str


class ContractMonitor:
    """Fan one event stream into all registered contracts."""

    def __init__(self, contracts: Optional[Sequence[Contract]] = None, *,
                 seed: Optional[int] = None,
                 campaign: Optional[int] = None,
                 record: bool = False):
        self.contracts: List[Contract] = (list(contracts)
                                          if contracts is not None
                                          else make_contracts())
        #: Event kind -> the contracts whose vocabulary names it, in
        #: registration order; a kind no contract consumes is absent.
        self._routes: Dict[str, List[Contract]] = {}
        for contract in self.contracts:
            for kind in contract.vocabulary:
                self._routes.setdefault(kind, []).append(contract)
        self.seed = seed
        self.campaign = campaign
        #: With ``record=True`` every fed event is appended to
        #: ``recorded`` in feed order (including transaction-buffered
        #: reconfigs at their *feed* position), so a live run can be
        #: dumped as a replayable contract trace.
        self.record = record
        self.recorded: List[TraceEvent] = []
        #: Zero-arg callable the driver installs: returns a detail
        #: string while an injected fault is armed/fired, else None.
        self.waiver_probe: Optional[Callable[[], Optional[str]]] = None
        self.violations: List[ContractViolation] = []
        #: Malformed transaction brackets; not part of :meth:`counts`.
        self.stream_errors: List[StreamError] = []
        self.events_seen = 0
        #: Tap events served by the clean-verdict memo: stamped and
        #: counted in ``events_seen``, delivered to no contract.  Kept
        #: out of :meth:`counts` and :meth:`summary`.
        self.memo_hits = 0
        #: The clean-verdict memo: ``("check", domain, inst)`` and
        #: ``("block", domain, classes)`` keys every contract judged
        #: clean since the last event that could move a shadow.  It is
        #: only ever emptied with ``clear()``, so a stand-in set sees
        #: every clearing.
        self._clean: Set[tuple] = set()
        self._index = 0
        self._armed_detail: Optional[str] = None
        self._buffer: List[TraceEvent] = []
        self._in_txn = False
        self._txn_touched: Dict[int, int] = {}
        self._pcu = None
        self._memory = None
        self._manager = None

    # -- configuration and live attachment -----------------------------
    def configure(self, geometry: Dict[str, object]) -> None:
        self._clean.clear()
        for contract in self.contracts:
            contract.configure(geometry)

    def attach(self, pcu, manager) -> None:
        """Hook the monitor into a live world's tap points.

        Seeds every contract with the manager's *current* privilege
        state first, so mid-run attachment (machine kernels configure
        their domains at boot) starts from a truthful shadow.
        """
        self._pcu = pcu
        self._manager = manager
        self._memory = pcu.trusted_memory
        isa = pcu.isa_map
        self.configure({
            "n_inst_classes": isa.n_inst_classes,
            "n_csrs": isa.n_csrs,
            "masked_csrs": [csr for csr in range(isa.n_csrs)
                            if isa.mask_slot(csr) is not None],
        })
        self._seed_from(manager, pcu)
        pcu._tap = self
        self._memory._tap = self
        manager._tap = self

    def detach(self) -> None:
        for holder in (self._pcu, self._memory, self._manager):
            if holder is not None:
                holder._tap = None

    def _seed_from(self, manager, pcu) -> None:
        isa = pcu.isa_map
        feed = self.feed
        for domain_id in sorted(manager.domains):
            descriptor = manager.domains[domain_id]
            feed(TraceEvent(kind="reconfig", op="create_domain",
                            domain=domain_id))
            for name in sorted(descriptor.instructions):
                feed(TraceEvent(kind="reconfig", op="allow_inst",
                                domain=domain_id, inst=isa.inst_class(name)))
            for name in sorted(descriptor.readable_csrs):
                feed(TraceEvent(kind="reconfig", op="grant_csr",
                                domain=domain_id, csr=isa.csr_index(name),
                                read=True))
            for name in sorted(descriptor.writable_csrs):
                feed(TraceEvent(kind="reconfig", op="grant_csr",
                                domain=domain_id, csr=isa.csr_index(name),
                                write=True))
            for name, mask in sorted(descriptor.bit_grants.items()):
                feed(TraceEvent(kind="reconfig", op="set_mask",
                                domain=domain_id, csr=isa.csr_index(name),
                                bits=mask))
            if domain_id and hasattr(manager, "sealed_privileges"):
                sealed = manager.sealed_privileges(domain_id)
                for name in sorted(sealed["instructions"]):
                    feed(TraceEvent(kind="reconfig", op="seal",
                                    domain=domain_id,
                                    inst=isa.inst_class(name)))
                for name in sorted(sealed["read_csrs"]
                                   | sealed["write_csrs"]):
                    feed(TraceEvent(
                        kind="reconfig", op="seal", domain=domain_id,
                        csr=isa.csr_index(name),
                        read=name in sealed["read_csrs"],
                        write=name in sealed["write_csrs"]))
        for gate_id in sorted(manager.gates):
            feed(TraceEvent(kind="reconfig", op="register_gate",
                            gate=gate_id,
                            dest=manager.gates[gate_id].destination_domain))
        virtualizer = getattr(manager, "virtualizer", None)
        if virtualizer is not None:
            # Replay the live slot bindings so the generation-coherence
            # shadow starts truthful on mid-run attachment.
            for logical in sorted(virtualizer.bindings):
                physical = virtualizer.bindings[logical]
                feed(TraceEvent(
                    kind="reconfig", op="bind_slot", domain=physical,
                    bits=virtualizer.generations.get(physical, 0),
                    dest=logical))
        feed(TraceEvent(kind="reconfig", op="sync_domain",
                        domain=pcu.current_domain))

    # -- the event stream ----------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Stamp, route and deliver one event."""
        if event.index < 0:
            event.index = self._index
        self._index = event.index + 1
        self.events_seen += 1
        if self.record:
            self.recorded.append(event)
        kind = event.kind
        if kind != "check" and kind != "block":
            # Every other kind may move a shadow, even while buffered.
            self._clean.clear()
        if kind == "fault":
            if event.op == "injected":
                self._armed_detail = event.detail or "injected fault"
            self._deliver(event)
            return
        if kind == "txn":
            if (event.op == "begin") == self._in_txn:
                self.stream_errors.append(StreamError(
                    event.index, "malformed transaction bracket: txn %s "
                    "%s an open transaction" % (
                        event.op, "inside" if self._in_txn else "without")))
            if event.op == "begin":
                self._in_txn = True
                self._txn_touched = {}
                self._deliver(event)
            elif event.op == "commit":
                self._in_txn = False
                buffered, self._buffer = self._buffer, []
                for reconfig in buffered:
                    self._deliver(reconfig)
                self._deliver(event)
            else:  # abort discards the buffered reconfigs with the txn
                self._in_txn = False
                self._buffer = []
                self._deliver(event)
            self._txn_touched = {}
            return
        if kind == "reconfig" and self._in_txn:
            self._buffer.append(event)
            return
        if kind == "mem_write" and self._in_txn and event.op != "seal":
            # Journal-bypassed seal sets are not part of the transaction:
            # the abort replay will not restore them, so the post-abort
            # snapshot must not cover their addresses.
            self._txn_touched.setdefault(event.address, event.old)
        self._deliver(event)

    def _deliver(self, event: TraceEvent) -> None:
        for contract in self._routes.get(event.kind, ()):
            problems = contract.observe(event)
            if not problems:
                continue
            self._clean.clear()
            waived_by = self._waiver()
            for problem in problems:
                self.violations.append(ContractViolation(
                    contract=contract.name, index=event.index,
                    detail=problem, event=event, seed=self.seed,
                    campaign=self.campaign, waived=waived_by is not None,
                    waived_by=waived_by))

    def _waiver(self) -> Optional[str]:
        if self.waiver_probe is not None:
            detail = self.waiver_probe()
            if detail:
                return detail
        return self._armed_detail

    def note_injection(self, detail: str) -> None:
        """Record an injected fault; subsequent violations are waived."""
        self.feed(TraceEvent(kind="fault", op="injected", detail=detail))

    def note_detection(self, detail: str) -> None:
        self.feed(TraceEvent(kind="fault", op="detected", detail=detail))

    # -- tap interface (called by the instrumented core) ----------------
    def on_check(self, pcu, access, status: str) -> None:
        domain = pcu.registers.domain
        csr = getattr(access, "csr", None)
        # Faulted and CSR checks are judged every time.
        key = (("check", domain, access.inst_class)
               if status == "ok" and csr is None else None)
        if key in self._clean and not self.record:
            self._hit()
            return
        self._judge(key, TraceEvent(
            kind="check", domain=domain, status=status,
            inst=access.inst_class, csr=-1 if csr is None else csr,
            read=bool(getattr(access, "csr_read", False)),
            write=bool(getattr(access, "csr_write", False)),
            value=getattr(access, "write_value", None) or 0,
            old=getattr(access, "old_value", None) or 0))

    def on_block(self, pcu, classes) -> None:
        domain = pcu.registers.domain
        key = ("block", domain, classes)
        if key in self._clean and not self.record:
            self._hit()
            return
        self._judge(key, TraceEvent(kind="block", domain=domain,
                                    classes=classes))

    def _hit(self, event: Optional[TraceEvent] = None) -> None:
        """Stamp and count one memo hit; ``event`` is recorded, if given."""
        if event is not None:
            event.index = self._index
            self.recorded.append(event)
        self._index += 1
        self.events_seen += 1
        self.memo_hits += 1

    def _judge(self, key, event: TraceEvent) -> None:
        """Feed one tap event; memoize ``key`` when it comes out clean.

        Under ``record=True`` memo hits land here too: the event is
        stamped and recorded, but reaches no contract.
        """
        if key in self._clean:
            self._hit(event)
            return
        violations = len(self.violations)
        self.feed(event)
        if key is not None and len(self.violations) == violations:
            self._clean.add(key)

    def on_gate(self, pcu, kind, gate_id: int, pre_domain: int,
                status: str) -> None:
        self.feed(TraceEvent(
            kind="gate", op=kind.name.lower(), gate=gate_id,
            pre_domain=pre_domain, domain=pcu.registers.domain,
            status=status))

    def on_mem_write(self, memory, address: int, value: int,
                     origin: str) -> None:
        domain = (self._pcu.registers.domain
                  if self._pcu is not None else -1)
        self.feed(TraceEvent(
            kind="mem_write", op=origin, address=address, value=value,
            old=memory._backing.load_word(address), domain=domain))

    def on_txn(self, memory, op: str) -> None:
        if op == "abort":
            values = {address: memory._backing.load_word(address)
                      for address in sorted(self._txn_touched)}
            self.feed(TraceEvent(kind="txn", op="abort", values=values))
        else:
            self.feed(TraceEvent(kind="txn", op=op))

    def on_reconfig(self, op: str, domain: int = -1, inst: int = -1,
                    csr: int = -1, read: bool = False, write: bool = False,
                    bits: int = 0, gate: int = -1, dest: int = -1) -> None:
        self.feed(TraceEvent(kind="reconfig", op=op, domain=domain,
                             inst=inst, csr=csr, read=read, write=write,
                             bits=bits, gate=gate, dest=dest))

    # -- verdicts --------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Violations per contract — every contract, canonical order."""
        table = {contract.name: 0 for contract in self.contracts}
        for violation in self.violations:
            table[violation.contract] += 1
        return table

    def nonzero_counts(self) -> Dict[str, int]:
        return {name: count for name, count in self.counts().items()
                if count}

    @property
    def total_violations(self) -> int:
        return len(self.violations)

    @property
    def unwaived_violations(self) -> int:
        return sum(1 for violation in self.violations
                   if not violation.waived)

    def first_unwaived(self) -> Optional[ContractViolation]:
        for violation in self.violations:
            if not violation.waived:
                return violation
        return None

    def summary(self) -> Dict[str, object]:
        first = self.first_unwaived()
        return {
            "events": self.events_seen,
            "counts": self.counts(),
            "violations": self.total_violations,
            "unwaived": self.unwaived_violations,
            "first_unwaived": None if first is None else first.describe(),
        }


def replay_trace(events: Iterable, geometry: Optional[Dict[str, object]] = None,
                 contracts: Optional[Sequence[Contract]] = None, *,
                 seed: Optional[int] = None,
                 campaign: Optional[int] = None) -> ContractMonitor:
    """Feed a recorded trace (dicts or TraceEvents) through a monitor."""
    monitor = ContractMonitor(contracts, seed=seed, campaign=campaign)
    if geometry:
        monitor.configure(geometry)
    for event in events:
        if not isinstance(event, TraceEvent):
            event = TraceEvent.from_dict(event)
        monitor.feed(event)
    return monitor


def load_trace(path: str):
    """Load a committed corpus file; return ``(meta, events)``."""
    with open(path) as handle:
        data = json.load(handle)
    events = [TraceEvent.from_dict(entry) for entry in data["events"]]
    meta = {key: value for key, value in data.items() if key != "events"}
    return meta, events
