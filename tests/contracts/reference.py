"""Brute-force reference for the contract layer's verdicts.

An independent re-derivation of what the eight universal contracts
should report for a given event stream, written as flat single-purpose
passes (one list of per-event violation counts each) plus an explicit
model of the monitor's delivery discipline (transaction buffering,
waiver arming).  A ``block`` event is delivered as what it stands for:
one ``check`` event per member class, so the passes below never see a
block.  The stateful test cross-checks
:func:`repro.contracts.replay_trace` against this on random streams:
agreement on every per-contract count *and* on the unwaived total is
the acceptance bar.
"""

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.contracts import TraceEvent

DOMAIN_0 = 0


def expand_block(event) -> List[TraceEvent]:
    """The member ``check`` events one ``block`` event stands for."""
    return [TraceEvent(kind="check", domain=event.domain,
                       status=event.status, inst=inst)
            for inst in event.classes]


def expanded_stream(events) -> List[TraceEvent]:
    """``events`` with every block expanded and every stream index
    cleared, for comparing a blocks-on recording with a blocks-off one."""
    out: List[TraceEvent] = []
    for event in events:
        if event.kind == "block":
            out.extend(expand_block(event))
        else:
            out.append(replace(event, index=-1))
    return out


def normalize(events) -> Tuple[List[TraceEvent], List[int]]:
    """Reproduce the monitor's delivery order and its stream errors.

    Reconfig events inside an open transaction are held back until the
    commit (and dropped by an abort, like the mutation they describe);
    everything else is delivered in feed order.  A ``begin`` inside an
    open transaction, or a ``commit``/``abort`` with none open, is a
    malformed bracket: its position is returned as a stream error, and
    a nested ``begin`` keeps what is held for whatever closes the
    transaction.  Blocks are expanded where they are delivered; error
    positions count them once, as the monitor's stream index does.
    """
    out: List[TraceEvent] = []
    buffer: List[TraceEvent] = []
    errors: List[int] = []
    in_txn = False
    for position, event in enumerate(events):
        if event.kind == "txn":
            if (event.op == "begin") == in_txn:
                errors.append(position)
            if event.op == "begin":
                in_txn = True
                out.append(event)
            elif event.op == "commit":
                in_txn = False
                out.extend(buffer)
                buffer = []
                out.append(event)
            else:                      # abort
                in_txn, buffer = False, []
                out.append(event)
        elif event.kind == "reconfig" and in_txn:
            buffer.append(event)
        elif event.kind == "block":
            out.extend(expand_block(event))
        else:
            out.append(event)
    return out, errors


def _inst_counts(stream) -> List[int]:
    allowed: Dict[int, set] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op in ("create_domain", "clear_domain"):
                allowed[event.domain] = set()
            elif event.op == "allow_inst":
                allowed.setdefault(event.domain, set()).add(event.inst)
            elif event.op == "deny_inst":
                allowed.setdefault(event.domain, set()).discard(event.inst)
        elif (event.kind == "check" and event.status == "ok"
              and event.domain != DOMAIN_0 and event.inst >= 0
              and event.inst not in allowed.get(event.domain, set())):
            n = 1
        out.append(n)
    return out


def _csr_counts(stream, masked) -> List[int]:
    readable: Dict[int, set] = {}
    writable: Dict[int, set] = {}
    masks: Dict[Tuple[int, int], int] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op in ("create_domain", "clear_domain"):
                readable[event.domain] = set()
                writable[event.domain] = set()
                masks = {key: bits for key, bits in masks.items()
                         if key[0] != event.domain}
            elif event.op == "grant_csr":
                if event.read:
                    readable.setdefault(event.domain, set()).add(event.csr)
                if event.write:
                    writable.setdefault(event.domain, set()).add(event.csr)
            elif event.op == "revoke_csr":
                if event.read:
                    readable.setdefault(event.domain,
                                        set()).discard(event.csr)
                if event.write:
                    writable.setdefault(event.domain,
                                        set()).discard(event.csr)
            elif event.op == "set_mask":
                masks[(event.domain, event.csr)] = event.bits
        elif (event.kind == "check" and event.status == "ok"
              and event.domain != DOMAIN_0 and event.csr >= 0):
            if event.read and event.csr not in readable.get(event.domain,
                                                            set()):
                n += 1
            if event.write:
                if event.csr in masked:
                    mask = masks.get((event.domain, event.csr), 0)
                    if (event.old ^ event.value) & ~mask:
                        n += 1
                elif event.csr not in writable.get(event.domain, set()):
                    n += 1
        out.append(n)
    return out


def _gate_counts(stream) -> List[int]:
    expected = DOMAIN_0
    gates: Dict[int, int] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op == "register_gate":
                gates[event.gate] = event.dest
            elif event.op == "unregister_gate":
                gates.pop(event.gate, None)
            elif event.op == "sync_domain":
                expected = event.domain
        elif event.kind == "check":
            if event.domain != expected:
                n = 1
                expected = event.domain
        elif event.kind == "mem_write":
            if event.domain >= 0 and event.domain != expected:
                n = 1
                expected = event.domain
        elif event.kind == "gate":
            if event.pre_domain != expected:
                n += 1
                expected = event.pre_domain
            if event.status != "ok":
                if event.domain != expected:
                    n += 1
                    expected = event.domain
            else:
                if event.op in ("hccall", "hccalls"):
                    dest = gates.get(event.gate)
                    if dest is None or event.domain != dest:
                        n += 1
                elif event.op == "hcrets" and event.domain == DOMAIN_0:
                    n += 1
                expected = event.domain
        out.append(n)
    return out


def _d0_counts(stream) -> List[int]:
    in_txn = False
    out = []
    for event in stream:
        n = 0
        if event.kind == "txn":
            in_txn = event.op == "begin"
        elif (event.kind == "mem_write" and event.op == "sw"
              and not in_txn and event.domain not in (-1, DOMAIN_0)):
            n = 1
        out.append(n)
    return out


def _revoke_counts(stream, masked) -> List[int]:
    # (domain, kind, item) -> "granted" | "revoked"; absent = never seen
    state: Dict[Tuple[int, str, int], str] = {}

    def grant(domain, kind, item):
        state[(domain, kind, item)] = "granted"

    def revoke(domain, kind, item):
        if state.get((domain, kind, item)) == "granted":
            state[(domain, kind, item)] = "revoked"

    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op == "create_domain":
                for key in [key for key in state if key[0] == event.domain]:
                    del state[key]
            elif event.op == "clear_domain":
                for key in state:
                    if key[0] == event.domain and state[key] == "granted":
                        state[key] = "revoked"
            elif event.op == "allow_inst":
                grant(event.domain, "inst", event.inst)
            elif event.op == "deny_inst":
                revoke(event.domain, "inst", event.inst)
            elif event.op == "grant_csr":
                if event.read:
                    grant(event.domain, "read", event.csr)
                if event.write:
                    grant(event.domain, "write", event.csr)
            elif event.op == "revoke_csr":
                if event.read:
                    revoke(event.domain, "read", event.csr)
                if event.write:
                    revoke(event.domain, "write", event.csr)
        elif (event.kind == "check" and event.status == "ok"
              and event.domain != DOMAIN_0):
            if state.get((event.domain, "inst", event.inst)) == "revoked":
                n += 1
            if event.csr >= 0:
                if (event.read and state.get((event.domain, "read",
                                              event.csr)) == "revoked"):
                    n += 1
                if (event.write and event.csr not in masked
                        and state.get((event.domain, "write",
                                       event.csr)) == "revoked"):
                    n += 1
        out.append(n)
    return out


def _rollback_counts(stream) -> List[int]:
    in_txn = False
    first_touch: Dict[int, int] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "mem_write":
            if in_txn:
                first_touch.setdefault(event.address, event.old)
        elif event.kind == "txn":
            if event.op == "begin":
                in_txn, first_touch = True, {}
            elif event.op == "commit":
                in_txn, first_touch = False, {}
            else:                      # abort
                observed = event.values or {}
                n = sum(1 for address, want in first_touch.items()
                        if observed.get(address, want) != want)
                in_txn, first_touch = False, {}
        out.append(n)
    return out


def _stale_generation_counts(stream) -> List[int]:
    slot_gen: Dict[int, int] = {}
    bound: Dict[int, int] = {}
    entry_gen: Dict[int, int] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op == "bind_slot":
                slot_gen[event.domain] = event.bits
                bound[event.domain] = event.dest
            elif event.op == "recycle_slot":
                slot_gen[event.domain] = event.bits
                bound.pop(event.domain, None)
        elif event.kind == "gate" and event.status == "ok":
            if event.domain in slot_gen:
                entry_gen[event.domain] = slot_gen[event.domain]
        elif (event.kind == "check" and event.status == "ok"
              and event.domain != DOMAIN_0 and event.domain in slot_gen):
            current = slot_gen[event.domain]
            if event.domain not in bound:
                n = 1
            elif entry_gen.get(event.domain, current) != current:
                n = 1
        out.append(n)
    return out


def _unseal_counts(stream, masked) -> List[int]:
    sealed: Dict[Tuple[int, str, int], bool] = {}
    out = []
    for event in stream:
        n = 0
        if event.kind == "reconfig":
            if event.op in ("create_domain", "clear_domain", "recycle_slot"):
                for key in [key for key in sealed if key[0] == event.domain]:
                    del sealed[key]
            elif event.op == "seal":
                if event.inst >= 0:
                    sealed[(event.domain, "inst", event.inst)] = True
                if event.csr >= 0:
                    if event.read:
                        sealed[(event.domain, "read", event.csr)] = True
                    if event.write:
                        sealed[(event.domain, "write", event.csr)] = True
        elif (event.kind == "check" and event.status == "ok"
              and event.domain != DOMAIN_0):
            if sealed.get((event.domain, "inst", event.inst)):
                n += 1
            if event.csr >= 0:
                if event.read and sealed.get((event.domain, "read",
                                              event.csr)):
                    n += 1
                if (event.write and sealed.get((event.domain, "write",
                                                event.csr))
                        and not (event.csr in masked
                                 and event.old == event.value)):
                    n += 1
        out.append(n)
    return out


def reference_verdict(events, geometry) -> Tuple[Dict[str, int], int,
                                                 List[int]]:
    """Counts per contract, the unwaived total and the stream-error
    positions, independently derived."""
    stream, errors = normalize(events)
    masked = set(geometry.get("masked_csrs", ()))
    per_contract = {
        "inst_retirement": _inst_counts(stream),
        "csr_retirement": _csr_counts(stream, masked),
        "gate_only_switches": _gate_counts(stream),
        "trusted_mem_d0": _d0_counts(stream),
        "coherence_after_revoke": _revoke_counts(stream, masked),
        "rollback_atomicity": _rollback_counts(stream),
        "no_stale_generation": _stale_generation_counts(stream),
        "no_unseal": _unseal_counts(stream, masked),
    }
    counts = {name: sum(rows) for name, rows in per_contract.items()}
    armed = False
    unwaived = 0
    for position, event in enumerate(stream):
        if event.kind == "fault" and event.op == "injected":
            armed = True
        if not armed:
            unwaived += sum(rows[position]
                            for rows in per_contract.values())
    return counts, unwaived, errors
