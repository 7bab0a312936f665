"""Tenant-churn campaigns: lockstep survival under slot recycling.

The conformance fuzzer and the abstract fault campaigns run a *fixed*
domain population; churn campaigns instead drive the
:class:`~repro.core.domain_virtualization.DomainVirtualizer` with a
:mod:`~repro.workloads.tenant_churn` op stream — thousands of logical
tenants multiplexed over a few dozen physical slots, with Zipf-popular
gate traffic, bursty arrivals, LRU eviction under ``slot_exhausted``
backpressure, and domain-0 reconfiguration commit windows overlapping
live checks.

Every privilege-visible step (gate, check) still runs in lockstep
against the cache-free oracle over shared tables, the integrity
scrubber still runs as a periodic watchdog (now also auditing slot
generation words and bound-slot manifests), the universal contracts —
including ``no_stale_generation`` — judge the whole stream, and the
injected faults aim at the *recycle window* itself: a store fault
mid-bind/recycle, a generation word flipped behind the mirror, a
dropped flush-on-reuse.  Outcomes classify through the same
detected/benign/silent-divergence matrix as every other campaign.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.events import N_CSR_SLOTS, N_INST_SLOTS
from repro.conformance.generator import Backend, make_backend
from repro.conformance.runner import CONFORMANCE_CONFIGS, Outcome
from repro.core import (
    AccessInfo,
    DomainManager,
    DomainVirtualizer,
    GateKind,
    PrivilegeCheckUnit,
    SlotExhausted,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault
from repro.conformance.oracle import OraclePcu
from repro.workloads.tenant_churn import ChurnOp, generate_churn_ops

from .campaign import DEFAULT_SCRUB_INTERVAL
from .plan import FaultSpec
from .session import FaultMatrix, FaultRecord, FaultSession

#: Trusted-memory window (matches the conformance worlds).
TMEM_BASE = 0x100000
TMEM_SIZE = 1 << 20

#: Deeper than the conformance stack: visits nest one frame, and the
#: eviction policy must see live frames to refuse recycling them.
STACK_FRAMES = 8

#: Default physical slot pool.  Well under the acceptance ceiling of 64
#: and far under ``max_domains``, so eviction pressure is constant.
DEFAULT_SLOTS = 48

DEFAULT_CHURN_OPS = 1200


class ChurnWorld:
    """Lockstep pair (cached PCU + oracle) driven by churn ops.

    Duck-typed to :class:`~repro.conformance.runner.ConformanceWorld`
    for the fault injector: exposes ``pcu``, ``manager``, ``backend``,
    ``trusted_memory`` and ``slot_ids``.
    """

    def __init__(self, backend: Backend, *, max_slots: int = DEFAULT_SLOTS,
                 config: str = "stress"):
        self.backend = backend
        self.trusted_memory = TrustedMemory(base=TMEM_BASE, size=TMEM_SIZE)
        self.pcu = PrivilegeCheckUnit(backend.isa_map,
                                      CONFORMANCE_CONFIGS[config],
                                      self.trusted_memory)
        self.manager = DomainManager(self.pcu)
        self.manager.allocate_trusted_stack(frames=STACK_FRAMES)
        self.virtualizer = DomainVirtualizer(self.manager, max_slots=max_slots)
        self.oracle = OraclePcu(backend.isa_map, self.pcu.hpt, self.pcu.sgt,
                                self.trusted_memory, STACK_FRAMES)
        # Both lockstep sides guard against the same generation mirror:
        # a recycle hard-faults identically on either implementation.
        self.oracle.generation_table = self.virtualizer.generations
        #: generator tenant handle -> live logical id (None once retired)
        self.logical_of: Dict[int, Optional[int]] = {}
        self.home_handle = -1
        #: check-stall histogram {stall cycles: count} for tail latency
        self.latency: "Counter[int]" = Counter()
        self.checks_run = 0
        #: check spec -> its AccessInfo (built on first use)
        self._accesses: Dict[Tuple[int, int, bool, bool], AccessInfo] = {}
        self.backpressured = 0

    # -- injector surface ----------------------------------------------
    @property
    def slot_ids(self) -> Dict[int, Optional[int]]:
        ids: Dict[int, Optional[int]] = {0: 0}
        for index, physical in enumerate(sorted(self.virtualizer.slot_owner)):
            ids[index + 1] = physical
        return ids

    # -- lockstep pairs ------------------------------------------------
    def _check_pair(self, spec: Tuple[int, int, bool, bool]) -> Tuple[Outcome, Outcome]:
        # AccessInfo is frozen and the PCU, the oracle and the contract
        # tap only read it, so each spec's is built once per world.
        access = self._accesses.get(spec)
        if access is None:
            inst_slot, csr_slot, read, write = spec
            access = self._accesses[spec] = AccessInfo(
                inst_class=self.backend.inst_class(max(inst_slot, 0)),
                csr=None if csr_slot < 0 else self.backend.csr_index(csr_slot),
                csr_read=read,
                csr_write=write,
                write_value=0 if write else None,
                old_value=0 if write else None,
            )
        pcu = self.pcu
        try:
            stall = pcu.check(access)
        except PrivilegeFault as fault:
            status = type(fault).__name__
        else:
            self.latency[stall] += 1
            status = "ok"
        cached = Outcome(status, pcu.current_domain, pcu.previous_domain,
                         pcu.trusted_stack.depth)
        oracle = self.oracle
        try:
            oracle.check(access)
        except PrivilegeFault as fault:
            status = type(fault).__name__
        else:
            status = "ok"
        pair = cached, Outcome(status, oracle.domain, oracle.pdomain,
                               oracle.depth)
        self.checks_run += 1
        return pair

    def _gate_pair(self, kind: GateKind, gate_id: int, pc: int,
                   return_address: Optional[int]) -> Tuple[Outcome, Outcome]:
        pcu = self.pcu
        try:
            target, _stall = pcu.execute_gate(kind, gate_id, pc,
                                              return_address)
        except PrivilegeFault as fault:
            status, target = type(fault).__name__, -1
        else:
            status = "ok"
        cached = Outcome(status, pcu.current_domain, pcu.previous_domain,
                         pcu.trusted_stack.depth, target)
        oracle = self.oracle
        try:
            target = oracle.execute_gate(kind, gate_id, pc, return_address)
        except PrivilegeFault as fault:
            status, target = type(fault).__name__, -1
        else:
            status = "ok"
        return cached, Outcome(status, oracle.domain, oracle.pdomain,
                               oracle.depth, target)

    # -- op application ------------------------------------------------
    def apply(self, op: ChurnOp, index: int) -> List[Tuple[Outcome, Outcome]]:
        """Apply one churn op; return its lockstep outcome pairs.

        Management ops (spawn/retire/reconfig) act on the *shared*
        tables through domain-0 transactions, so they produce no
        lockstep pairs of their own — the next check or gate is where
        any damage becomes architecturally visible.
        """
        kind = op.kind
        if kind == "spawn":
            return self._apply_spawn(op)
        if kind == "retire":
            return self._apply_retire(op)
        if kind == "reconfig":
            return self._apply_reconfig(op)
        if kind == "migrate":
            return self._apply_migrate(op)
        if kind == "visit":
            return self._apply_visit(op, index)
        if kind == "check":
            return [self._check_pair(spec) for spec in op.checks]
        raise ValueError("unknown churn op kind %r" % kind)

    def _logical(self, handle: int) -> Optional[int]:
        return self.logical_of.get(handle)

    def _apply_spawn(self, op: ChurnOp) -> List[Tuple[Outcome, Outcome]]:
        from repro.core import TenantManifest

        manifest = TenantManifest(
            instructions={self.backend.inst_name(s) for s in op.insts},
            readable_csrs={self.backend.csr_name(s) for s in op.csr_reads},
            writable_csrs={self.backend.csr_name(s) for s in op.csr_writes},
        )
        self.logical_of[op.tenant] = self.virtualizer.spawn(manifest)
        return []

    def _apply_retire(self, op: ChurnOp) -> List[Tuple[Outcome, Outcome]]:
        logical = self._logical(op.tenant)
        if logical is None:
            return []
        self.virtualizer.retire(logical)
        self.logical_of[op.tenant] = None
        return []

    def _apply_reconfig(self, op: ChurnOp) -> List[Tuple[Outcome, Outcome]]:
        logical = self._logical(op.tenant)
        if logical is None:
            return []
        virtualizer = self.virtualizer
        if op.verb == "allow_inst":
            virtualizer.allow_instructions(
                logical, [self.backend.inst_name(op.inst)])
        elif op.verb == "deny_inst":
            virtualizer.deny_instruction(
                logical, self.backend.inst_name(op.inst))
        elif op.verb == "grant_csr":
            virtualizer.grant_register(logical, self.backend.csr_name(op.csr),
                                       read=op.read, write=op.write)
        elif op.verb == "revoke_csr":
            virtualizer.revoke_register(logical, self.backend.csr_name(op.csr),
                                        read=op.read, write=op.write)
        elif op.verb == "seal":
            if op.inst >= 0:
                virtualizer.seal_privileges(
                    logical, instructions=[self.backend.inst_name(op.inst)])
            else:
                virtualizer.seal_privileges(
                    logical, csrs=[self.backend.csr_name(op.csr)],
                    read=op.read, write=op.write)
        else:
            raise ValueError("unknown reconfig verb %r" % op.verb)
        return []

    def _activate(self, logical: int) -> Optional[int]:
        try:
            return self.virtualizer.activate(logical)
        except SlotExhausted:
            # Bounded backpressure: the op is simply deferred (dropped,
            # in this open-loop workload) rather than crashing the run.
            self.backpressured += 1
            return None

    def _apply_migrate(self, op: ChurnOp) -> List[Tuple[Outcome, Outcome]]:
        logical = self._logical(op.tenant)
        if logical is None:
            return []
        self.virtualizer.pin(logical)
        physical = self._activate(logical)
        if physical is None:
            self.virtualizer.unpin(logical)
            return []
        pair = self._gate_pair(
            GateKind.HCCALL,
            self.virtualizer.gate_id_of(physical),
            self.virtualizer.gate_address_of(physical),
            None,
        )
        cached, oracle = pair
        if cached.status == "ok" and oracle.status == "ok":
            old = self._logical(self.home_handle)
            if old is not None and old != logical:
                self.virtualizer.unpin(old)
            self.home_handle = op.tenant
        else:
            self.virtualizer.unpin(logical)
        return [pair]

    def _apply_visit(self, op: ChurnOp,
                     index: int) -> List[Tuple[Outcome, Outcome]]:
        logical = self._logical(op.tenant)
        if logical is None:
            return []
        physical = self._activate(logical)
        if physical is None:
            return []
        return_address = 0x9000 + 4 * (index & 0x3FF)
        gate_id = self.virtualizer.gate_id_of(physical)
        pairs = [self._gate_pair(
            GateKind.HCCALLS,
            gate_id,
            self.virtualizer.gate_address_of(physical),
            return_address,
        )]
        cached, oracle = pairs[0]
        if cached != oracle or cached.status != "ok":
            return pairs  # no domain entered on either side: stay home
        for spec in op.checks:
            pairs.append(self._check_pair(spec))
        pairs.append(self._gate_pair(GateKind.HCRETS, gate_id,
                                     return_address, None))
        return pairs


@dataclass
class ChurnCampaignResult(FaultRecord):
    """Outcome of one churn campaign (fault matrix + churn totals)."""

    campaign: int
    stream_seed: int
    spec: FaultSpec
    extra_specs: List[FaultSpec]
    classification: str
    ops_run: int
    pairs_run: int
    fired: bool
    detail: str
    divergence_index: Optional[int]
    detections: List[str]
    rollbacks: int
    escaped_faults: int
    scrub_repairs: int
    contract_violations: int
    unwaived_contract_violations: int
    contract_counts: Dict[str, int]
    #: Virtualizer lifetime counters (spawned/retired/binds/recycles/
    #: evictions/slot_exhausted) — the churn-specific half of the story.
    virtualizer: Dict[str, int]
    checks_run: int
    backpressured: int
    #: Check-stall histogram {stall cycles: count}; percentiles derive
    #: from it without storing per-check samples.
    latency: Dict[int, int]


def latency_percentiles(histogram: Dict[int, int]) -> Dict[str, int]:
    """p50/p99 check stall from a {stall: count} histogram."""
    total = sum(histogram.values())
    if not total:
        return {"p50": 0, "p99": 0}
    out: Dict[str, int] = {}
    for name, fraction in (("p50", 0.50), ("p99", 0.99)):
        threshold = fraction * total
        seen = 0
        value = 0
        for stall in sorted(histogram):
            seen += histogram[stall]
            value = stall
            if seen >= threshold:
                break
        out[name] = value
    return out


def run_churn_campaign(
    backend_name: str,
    spec: FaultSpec,
    stream_seed: int,
    n_ops: int,
    *,
    max_slots: int = DEFAULT_SLOTS,
    config: str = "stress",
    scrub_interval: int = DEFAULT_SCRUB_INTERVAL,
    campaign: int = 0,
    extra_specs: Sequence[FaultSpec] = (),
    contracts: bool = True,
) -> ChurnCampaignResult:
    """Run one faulted churn stream in lockstep and classify the outcome.

    The :class:`~repro.faults.session.FaultSession` classifies it on the
    same ladder as every other campaign — recycle-window faults answer
    to the same detected/benign/silent-divergence matrix as every other
    fault kind, they just get a richer world to do damage in.
    """
    world = ChurnWorld(make_backend(backend_name), max_slots=max_slots,
                       config=config)
    session = FaultSession(world, (spec, *extra_specs), contracts=contracts,
                           seed=stream_seed, campaign=campaign)
    trace = generate_churn_ops(stream_seed, n_ops, N_INST_SLOTS, N_CSR_SLOTS)
    divergence_index: Optional[int] = None
    ops_run = 0
    pairs_run = 0
    for index, op in enumerate(trace.ops):
        for injector in session.injectors:
            injector.on_event(index)
        pairs = session.run(world.apply, op, index)
        ops_run = index + 1
        if pairs is None:
            continue
        pairs_run += len(pairs)
        if any(cached != oracle for cached, oracle in pairs):
            divergence_index = index
            break
        if (scrub_interval and ops_run % scrub_interval == 0
                and session.scrub().unrepairable):
            break

    shared = session.finish(divergence_index is not None)
    return ChurnCampaignResult(
        stream_seed=stream_seed,
        ops_run=ops_run,
        pairs_run=pairs_run,
        divergence_index=divergence_index,
        virtualizer=world.virtualizer.stats.to_dict(),
        checks_run=world.checks_run,
        backpressured=world.backpressured,
        latency=dict(world.latency),
        **shared,
    )


@dataclass
class ChurnMatrix(FaultMatrix):
    """All churn campaigns of one backend."""

    backend: str
    seed: int
    n_ops: int
    max_slots: int
    results: List[ChurnCampaignResult]

    FORMAT = "isagrid-churn-campaign-v1"

    @property
    def logical_domains(self) -> int:
        return sum(r.virtualizer.get("spawned", 0) for r in self.results)

    @property
    def slot_exhausted(self) -> int:
        return sum(r.virtualizer.get("slot_exhausted", 0)
                   for r in self.results)

    @property
    def latency(self) -> Dict[int, int]:
        merged: "Counter[int]" = Counter()
        for result in self.results:
            merged.update(result.latency)
        return dict(merged)

    def _totals(self) -> Dict[str, object]:
        return {
            "unwaived_contract_violations": self.unwaived_contract_violations,
            "logical_domains": self.logical_domains,
            "slot_exhausted": self.slot_exhausted,
            "latency_percentiles": latency_percentiles(self.latency),
        }

    @classmethod
    def _report_tail(cls, matrices) -> Dict[str, object]:
        latency: "Counter[int]" = Counter()
        for matrix in matrices:
            latency.update(matrix.latency)
        return {
            "logical_domains": sum(m.logical_domains for m in matrices),
            "max_slots": max((m.max_slots for m in matrices), default=0),
            "slot_exhausted": sum(m.slot_exhausted for m in matrices),
            "latency_percentiles": latency_percentiles(dict(latency)),
        }
