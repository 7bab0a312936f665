"""Unintended-instruction attack campaigns: binary scanning vs the PCU.

Section 2.3's core claim is that software fences built on binary
scanning (ERIM, Nested Kernel) are structurally incomplete on a
variable-length ISA: forbidden system instructions hide inside the
immediates and displacements of legitimate instructions, and a
jump-into-the-middle attacker executes them without the scanner ever
having seen an aligned occurrence.  ISA-Grid closes the hole at issue
time — the PCU classifies whatever the front end actually decodes, so
the hidden gadget faults in any domain that was never granted its
class, no matter how it was reached.

This module turns that argument into a measured campaign.  For each
seed it generates gadget-bearing x86 byte streams at scale:

* **carrier instructions** — ``mov r64, imm64`` (8 payload bytes),
  ``alu r/m64, imm32`` and ``mov r64, [base + disp32]`` (4 payload
  bytes each) — whose immediate/displacement fields embed
* **fixed-encoding gadgets** the scanner's forbidden list names
  (``wrmsr``, ``wrpkru``, ``wrpkrs``, ``hlt``, ``cli``), and
* **operand-bearing gadgets** it structurally cannot name (``mov cr``,
  ``mov dr``, ``ltr``, ``out``, ``lgdt``/``lidt``/``invlpg``): their
  encodings carry attacker-chosen ModRM/operand bytes, so no fixed
  pattern covers them without unbounded false positives.

Each stream is handed to both defenses.  The
:func:`~repro.baselines.binary_scan.scan_program` baseline greps for
its forbidden list; a gadget counts as *detected* only when the
scanner flags the gadget's own offset.  The PCU side decodes the
stream at every gadget offset — the attacker's jump target — and
issues the check from a restricted domain granted only the base
compute classes; the gadget is *blocked* when the check faults.  The
legitimate linear stream is also replayed through the PCU to show the
zero-false-positive half of the claim, and the ERIM-style NOP rewrite
is run to count the carrier instructions it corrupts.

Every campaign world runs under the universal contract monitor, and
each campaign seals one granted class (``string``) in the restricted
domain, probing that the seal — not just the missing grant — denies
execution; any unwaived contract violation fails the campaign.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.binary_scan import (
    DEFAULT_FORBIDDEN,
    linear_disassemble,
    rewrite_hidden_bytes,
    scan_program,
)
from repro.core import (
    CONFIG_8E,
    AccessInfo,
    DomainManager,
    GateKind,
    PrivilegeCheckUnit,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault
from repro.x86.encoding import Encoder, decode, simple_bytes
from repro.x86.isa import BASE_COMPUTE_CLASSES, X86_ISA_MAP

#: Campaign geometry defaults (per seed).
DEFAULT_STREAMS = 24
DEFAULT_STREAM_LEN = 48

#: Trusted-memory window, mirroring the conformance worlds.
_TMEM_BASE = 0x100000
_TMEM_SIZE = 1 << 20

#: Gate plumbing for entering the restricted domain the proper way.
_GATE_ADDRESS = 0x400000
_DEST_ADDRESS = 0x402000

#: The granted class the campaign seals, then probes.
_SEALED_CLASS = "string"

#: Byte alphabet for immediate padding and filler immediates: excludes
#: 0x0F / 0xF4 / 0xFA so no *accidental* forbidden occurrence muddies
#: the per-gadget accounting (deliberate gadgets are the only hidden
#: occurrences, which keeps the rewrite-corruption counts attributable).
_SAFE_LO, _SAFE_HI = 0x10, 0x2F


def _safe_bytes(rng: random.Random, n: int) -> bytes:
    return bytes(rng.randrange(_SAFE_LO, _SAFE_HI + 1) for _ in range(n))


# ---------------------------------------------------------------------------
# Gadget catalog.
# ---------------------------------------------------------------------------
#: Fixed-encoding gadgets — every one is on the scanner's default
#: forbidden list, so byte-grepping finds them even hidden.
FIXED_GADGETS: Tuple[str, ...] = tuple(
    name for name in DEFAULT_FORBIDDEN if isinstance(name, str)
)

#: Operand-bearing gadget kinds — privileged encodings that carry
#: attacker-chosen ModRM/operand bytes, hence no fixed scan pattern.
OPERAND_GADGETS: Tuple[str, ...] = (
    "mov_cr", "mov_dr", "ltr", "out", "lgdt", "lidt", "invlpg",
)


def _draw_gadget(rng: random.Random) -> Tuple[str, bytes]:
    """One (kind, encoding) gadget; roughly half scanner-visible."""
    if rng.random() < 0.5:
        kind = rng.choice(FIXED_GADGETS)
        return kind, simple_bytes(kind)
    kind = rng.choice(OPERAND_GADGETS)
    if kind == "mov_cr":
        # CR numbers kept in {0,2,3,4} so the ModRM byte never collides
        # with a single-byte forbidden encoding.
        return kind, Encoder.mov_cr(rng.choice((0, 2, 3, 4)),
                                    rng.randrange(8), True)
    if kind == "mov_dr":
        return kind, Encoder.mov_dr(rng.randrange(4), rng.randrange(8), True)
    if kind == "ltr":
        return kind, bytes([0x0F, 0x00, 0xD8 | rng.randrange(8)])
    if kind == "out":
        return kind, bytes([0xE6, rng.randrange(_SAFE_LO, _SAFE_HI + 1)])
    digit = {"lgdt": 2, "lidt": 3, "invlpg": 7}[kind]
    base = rng.choice((0, 1, 2, 3, 5, 6, 7))
    disp = int.from_bytes(_safe_bytes(rng, 4), "little")
    return kind, Encoder.group01(digit, base, disp)


# ---------------------------------------------------------------------------
# Stream generation.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlantedGadget:
    """One gadget embedded in one stream, and how each defense fared."""

    kind: str
    stream: int
    offset: int
    scanner_detected: bool = False
    pcu_blocked: bool = False
    fault: str = ""


def _filler(rng: random.Random) -> bytes:
    """One legitimate compute instruction; registers are kept low so no
    ModRM byte aliases a forbidden single-byte encoding."""
    roll = rng.randrange(6)
    if roll == 0:
        return simple_bytes("nop")
    if roll == 1:
        return Encoder.push_pop(rng.choice(("push", "pop")), rng.randrange(4))
    if roll == 2:
        return Encoder.rr(0x89, rng.randrange(4), rng.randrange(4))
    if roll == 3:
        return Encoder.rr(rng.choice((0x01, 0x29, 0x31, 0x39)),
                          rng.randrange(4), rng.randrange(4))
    if roll == 4:
        return Encoder.shift_imm(rng.choice(("shl", "shr")),
                                 rng.randrange(4), rng.randrange(1, 32))
    return Encoder.mov_imm64(
        rng.randrange(4), int.from_bytes(_safe_bytes(rng, 8), "little"))


def _carrier(rng: random.Random, gadget: bytes) -> Tuple[bytes, int]:
    """Wrap ``gadget`` in a legal carrier; returns (encoding, payload
    offset of the gadget within it)."""
    forms = ["imm64"]
    if len(gadget) <= 4:
        forms += ["imm32", "disp32"]
    form = rng.choice(forms)
    if form == "imm64":
        payload = gadget + _safe_bytes(rng, 8 - len(gadget))
        return Encoder.mov_imm64(
            rng.randrange(8), int.from_bytes(payload, "little")), 2
    payload = gadget + _safe_bytes(rng, 4 - len(gadget))
    value = int.from_bytes(payload, "little")
    if form == "imm32":
        # Digits restricted to add/or/and so the ModRM byte stays clear
        # of the 0xF4/0xFA single-byte encodings.
        return Encoder.alu_imm(rng.choice(("add", "or", "and")),
                               rng.randrange(8), value), 3
    base = rng.choice((0, 1, 2, 3, 5, 6, 7))
    return Encoder.mem(0x8B, rng.randrange(8), base, value), 3


def build_stream(
    rng: random.Random, stream_index: int, n_instructions: int
) -> Tuple[bytes, List[PlantedGadget]]:
    """One gadget-bearing byte stream plus its planted-gadget ledger."""
    chunks: List[bytes] = []
    gadgets: List[PlantedGadget] = []
    offset = 0
    for _ in range(n_instructions):
        if rng.random() < 0.25:
            kind, gadget = _draw_gadget(rng)
            encoding, payload_at = _carrier(rng, gadget)
            gadgets.append(PlantedGadget(kind=kind, stream=stream_index,
                                         offset=offset + payload_at))
            chunks.append(encoding)
        else:
            chunks.append(_filler(rng))
        offset += len(chunks[-1])
    return b"".join(chunks), gadgets


# ---------------------------------------------------------------------------
# The campaign.
# ---------------------------------------------------------------------------
@dataclass
class AttackCampaignResult:
    """Scanner-vs-PCU outcome of one seeded campaign."""

    seed: int
    n_streams: int
    stream_len: int
    gadgets: List[PlantedGadget] = field(default_factory=list)
    legit_checks: int = 0
    legit_faults: int = 0
    sealed_probes: int = 0
    sealed_blocked: int = 0
    rewrite_corrupted: int = 0
    rewrite_unsafe_streams: int = 0
    contract_counts: Dict[str, int] = field(default_factory=dict)
    unwaived_contract_violations: int = 0

    def per_kind(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for g in self.gadgets:
            row = out.setdefault(g.kind, Counter())
            row["generated"] += 1
            row["scanner_detected"] += g.scanner_detected
            row["pcu_blocked"] += g.pcu_blocked
            row["scanner_missed_pcu_blocked"] += (
                g.pcu_blocked and not g.scanner_detected)
        return {kind: dict(row) for kind, row in sorted(out.items())}

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "n_streams": self.n_streams,
            "stream_len": self.stream_len,
            "gadgets": len(self.gadgets),
            "per_kind": self.per_kind(),
            "legit_checks": self.legit_checks,
            "legit_faults": self.legit_faults,
            "sealed_probes": self.sealed_probes,
            "sealed_blocked": self.sealed_blocked,
            "rewrite_corrupted": self.rewrite_corrupted,
            "rewrite_unsafe_streams": self.rewrite_unsafe_streams,
            "contract_counts": self.contract_counts,
            "unwaived_contract_violations": self.unwaived_contract_violations,
        }


def _attack_world() -> Tuple[PrivilegeCheckUnit, DomainManager, int]:
    """A bare x86 world with a restricted, partially sealed domain.

    The core is moved into the restricted domain through a registered
    gate (never by poking the domain register), so the contract
    monitor's gate-only-switches contract holds over the whole run.
    """
    memory = TrustedMemory(base=_TMEM_BASE, size=_TMEM_SIZE)
    pcu = PrivilegeCheckUnit(X86_ISA_MAP, CONFIG_8E, memory)
    manager = DomainManager(pcu)
    manager.allocate_trusted_stack(frames=4)
    descriptor = manager.create_domain("attack-target")
    manager.allow_instructions(descriptor.domain_id, BASE_COMPUTE_CLASSES)
    manager.seal_privileges(descriptor.domain_id,
                            instructions=[_SEALED_CLASS])
    gate = manager.register_gate(_GATE_ADDRESS, _DEST_ADDRESS,
                                 descriptor.domain_id)
    pcu.execute_gate(GateKind.HCCALL, gate, pc=_GATE_ADDRESS)
    return pcu, manager, descriptor.domain_id


def _check_class(pcu: PrivilegeCheckUnit, class_name: str,
                 address: int) -> Optional[str]:
    """Issue one instruction-class check; the fault class name or None."""
    access = AccessInfo(inst_class=X86_ISA_MAP.inst_class(class_name),
                        address=address)
    try:
        pcu.check(access)
        return None
    except PrivilegeFault as fault:
        return type(fault).__name__


def run_unintended_campaign(
    seed: int,
    n_streams: int = DEFAULT_STREAMS,
    stream_len: int = DEFAULT_STREAM_LEN,
    *,
    contracts: bool = True,
) -> AttackCampaignResult:
    """Run one seeded scanner-vs-PCU campaign."""
    pcu, manager, _domain = _attack_world()
    monitor = None
    if contracts:
        from repro.contracts import ContractMonitor

        monitor = ContractMonitor()
        monitor.attach(pcu, manager)

    result = AttackCampaignResult(seed=seed, n_streams=n_streams,
                                  stream_len=stream_len)
    for stream_index in range(n_streams):
        rng = random.Random((seed << 20) ^ stream_index)
        stream, planted = build_stream(rng, stream_index, stream_len)

        # Baseline: grep the stream for the published forbidden list.
        reports = scan_program(stream)
        flagged = {offset for report in reports.values()
                   for offset in report.unintended_offsets}
        rewrite = rewrite_hidden_bytes(stream)
        result.rewrite_corrupted += len(rewrite.corrupted_instructions)
        result.rewrite_unsafe_streams += not rewrite.safe

        # PCU: replay the legitimate linear stream (must all pass) ...
        for offset, _mnemonic, _size in linear_disassemble(stream):
            inst = decode(stream, offset)
            fault = _check_class(pcu, inst.inst_class, offset)
            result.legit_checks += 1
            result.legit_faults += fault is not None

        # ... then decode at each gadget offset, the attacker's actual
        # jump target, and check the class the PCU would really see.
        for g in planted:
            inst = decode(stream, g.offset)
            fault = _check_class(pcu, inst.inst_class, g.offset)
            result.gadgets.append(PlantedGadget(
                kind=g.kind, stream=g.stream, offset=g.offset,
                scanner_detected=g.offset in flagged,
                pcu_blocked=fault is not None,
                fault=fault or "",
            ))

        # The sealed-but-granted class must stay dead too.
        result.sealed_probes += 1
        result.sealed_blocked += (
            _check_class(pcu, _SEALED_CLASS, 0) is not None)

    if monitor is not None:
        result.contract_counts = dict(monitor.counts())
        result.unwaived_contract_violations = monitor.unwaived_violations
    return result


def run_unintended_campaigns(
    seeds: Sequence[int],
    n_streams: int = DEFAULT_STREAMS,
    stream_len: int = DEFAULT_STREAM_LEN,
    *,
    contracts: bool = True,
) -> List[AttackCampaignResult]:
    """Run one campaign per seed, serially, in ``seeds`` order.

    ``python -m repro attacks --campaign`` shards the same per-seed
    campaigns through the orchestrator; this loop is their reference.
    """
    return [
        run_unintended_campaign(seed, n_streams, stream_len,
                                contracts=contracts)
        for seed in seeds
    ]


def gadget_counts(record: Dict[str, object]) -> Dict[str, int]:
    """A campaign record's per-kind gadget counts, summed over kinds."""
    rows = record["per_kind"].values()
    return {key: sum(row[key] for row in rows)
            for key in ("generated", "scanner_detected", "pcu_blocked",
                        "scanner_missed_pcu_blocked")}


def write_attack_report(
    records: Sequence[Dict[str, object]], path: str
) -> Dict[str, object]:
    """Aggregate :meth:`AttackCampaignResult.to_dict` records into one
    JSON report."""
    per_kind: Dict[str, Counter] = {}
    totals: Counter = Counter()
    contract_totals: Counter = Counter()
    for record in records:
        for kind, row in record["per_kind"].items():
            per_kind.setdefault(kind, Counter()).update(row)
        totals.update(
            **gadget_counts(record),
            legit_checks=record["legit_checks"],
            legit_faults=record["legit_faults"],
            sealed_probes=record["sealed_probes"],
            sealed_blocked=record["sealed_blocked"],
            rewrite_corrupted=record["rewrite_corrupted"],
            rewrite_unsafe_streams=record["rewrite_unsafe_streams"],
        )
        contract_totals.update(record["contract_counts"])
    generated = totals.get("generated", 0) or 1
    payload = {
        "format": "isagrid-attack-campaign-v1",
        "backend": "x86",
        "forbidden": [entry if isinstance(entry, str) else entry.hex()
                      for entry in DEFAULT_FORBIDDEN],
        "totals": dict(totals),
        "scanner_miss_rate": round(
            1.0 - totals.get("scanner_detected", 0) / generated, 4),
        "pcu_block_rate": round(totals.get("pcu_blocked", 0) / generated, 4),
        "baseline_missed_pcu_blocked": totals.get(
            "scanner_missed_pcu_blocked", 0),
        "per_kind": {kind: dict(row) for kind, row in sorted(per_kind.items())},
        "contract_counts": dict(sorted(contract_totals.items())),
        "unwaived_contract_violations": sum(
            record["unwaived_contract_violations"] for record in records),
        "campaigns": list(records),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return payload
