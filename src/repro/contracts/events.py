"""The normalized trace vocabulary the contract layer consumes.

Every driver (conformance runner, abstract fault campaigns, machine
lockstep) narrates its run as a stream of :class:`TraceEvent` records —
one flat, JSON-plain shape for all seven event kinds, so a trace can be
committed as a regression corpus and replayed without any live
hardware model behind it.

Kinds and the fields they carry:

``check``
    One PCU verdict.  ``domain`` is the checking domain, ``inst`` the
    instruction class, ``csr`` the register index (``-1`` when the
    access touches no CSR) with ``read``/``write`` intent and, for
    writes, ``value``/``old``.  ``status`` is ``"ok"`` or the fault
    class name the check raised (``PrivilegeFault``, ...).

``block``
    One block of straight-line instructions retired by the block
    executor (DESIGN §3.18) under one PCU probe.  ``classes`` holds
    the retired members' decoded instruction classes in order (at
    least one, all non-negative) and ``domain`` the running domain.
    It stands for the member ``check`` events the per-instruction path
    would emit — ``status`` ``"ok"``, no CSR — and every contract
    judges it exactly as it would judge them (DESIGN §3.16).

``gate``
    One gate-instruction execution.  ``op`` is the gate kind
    (``hccall``/``hccalls``/``hcrets``), ``gate`` the gate id
    (``-1`` for returns), ``pre_domain``/``domain`` the domain before
    and after, ``status`` as for checks.

``mem_write``
    One trusted-memory word store.  ``op`` is the *origin*: ``"sw"``
    for software stores issued through manager transactions, ``"hw"``
    for hardware-initiated stores (trusted-stack pushes), ``"d0"`` for
    domain-0 provisioning (thread-stack seeding), ``"scrub"`` for
    scrubber repairs.  ``address``/``value``/``old`` describe the
    store; ``domain`` is the domain the core sat in when it happened.

``reconfig``
    One privilege-table mutation, post-commit.  ``op`` is one of
    ``create_domain``, ``clear_domain``, ``allow_inst``, ``deny_inst``,
    ``grant_csr``, ``revoke_csr``, ``set_mask``, ``register_gate``,
    ``unregister_gate``, ``sync_domain`` (the monitor's "the core is
    currently in ``domain``" synchronization marker), plus the domain
    virtualization pair ``bind_slot``/``recycle_slot`` (``domain`` is
    the physical slot, ``dest`` the logical tenant, ``bits`` the slot
    generation the bind is valid for / the recycle bumped to).

``txn``
    Trusted-memory transaction boundary; ``op`` is ``begin``,
    ``commit`` or ``abort``.  Abort events carry ``values`` — the
    post-abort contents of every word the transaction touched — so
    rollback atomicity is checkable from the trace alone.

``fault``
    Fault-campaign bookkeeping: ``op`` ``injected``/``detected`` with a
    human ``detail``.  Injection events arm the monitor's waiver logic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

#: The trace vocabulary, in narration order of a typical run.
TRACE_EVENT_KINDS = ("check", "block", "gate", "mem_write", "reconfig",
                     "txn", "fault")

#: Reconfiguration sub-operations (``TraceEvent.op`` when kind is
#: ``reconfig``).
RECONFIG_OPS = (
    "create_domain", "clear_domain", "allow_inst", "deny_inst",
    "grant_csr", "revoke_csr", "set_mask", "register_gate",
    "unregister_gate", "sync_domain", "bind_slot", "recycle_slot",
    "seal",
)

#: Trusted-memory store origins (``TraceEvent.op`` when kind is
#: ``mem_write``).  ``"seal"`` marks the journal-bypassed one-way
#: seal-word sets: rollback atomicity deliberately does not cover them.
MEM_ORIGINS = ("sw", "hw", "d0", "scrub", "seal")


@dataclass
class TraceEvent:
    """One normalized record of the contract trace vocabulary."""

    kind: str
    op: str = ""
    index: int = -1                # stream position, stamped by the monitor
    domain: int = -1
    status: str = "ok"
    inst: int = -1
    csr: int = -1
    read: bool = False
    write: bool = False
    value: int = 0
    old: int = 0
    bits: int = 0                  # mask value for ``set_mask``
    gate: int = -1
    dest: int = -1                 # registered destination domain
    pre_domain: int = -1
    address: int = -1
    detail: str = ""
    #: Post-abort word values keyed by address (``txn``/``abort`` only).
    values: Optional[Dict[int, int]] = None
    #: Member instruction classes, in retirement order (``block`` only).
    classes: Optional[Tuple[int, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-plain form, defaults elided so corpora stay readable."""
        data: Dict[str, object] = {"kind": self.kind}
        for spec in fields(self):
            if spec.name in ("kind", "values", "classes"):
                continue
            value = getattr(self, spec.name)
            if value != spec.default:
                data[spec.name] = value
        if self.values is not None:
            data["values"] = {str(addr): val
                              for addr, val in sorted(self.values.items())}
        if self.classes is not None:
            data["classes"] = list(self.classes)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceEvent":
        payload = dict(data)
        values = payload.pop("values", None)
        classes = payload.pop("classes", None)
        event = cls(**payload)
        if values is not None:
            # JSON turns integer keys into strings; undo that here.
            event.values = {int(addr): int(val)
                            for addr, val in values.items()}
        if classes is not None:
            event.classes = tuple(classes)
        return event
