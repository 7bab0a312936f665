"""Pipeline timing models.

Functional execution is exact; timing is an analytic per-instruction
model calibrated against the latencies the paper reports (Table 4):

===============================  ======  =====================
Event                            Rocket  Gem5 O3
===============================  ======  =====================
``hccall``                       5       34
``hccalls`` / ``hcrets``         12/12   52/44
X-domain call (hccalls+hcrets)   32      74 (< 52+44, store-to-
                                         load forwarding)
load/store full miss             >120    >200
===============================  ======  =====================

:class:`InOrderPipelineModel` approximates the 5-stage in-order Rocket
core; :class:`OutOfOrderPipelineModel` approximates the paper's 8-wide,
192-entry-ROB Gem5 O3 core.  Both consume :class:`StepInfo` records
produced by the functional CPUs and return the cycle cost of each
retired instruction.
"""

from __future__ import annotations

from typing import Optional

from repro.core.isa_extension import GateKind

from .branch import BranchStats, TournamentPredictor
from .memhier import MemoryHierarchy


class StepInfo:
    """What one retired instruction did, for timing purposes.

    Deliberately a plain class rather than a dataclass: one StepInfo is
    built per simulated instruction, and a generated ``__init__`` that
    stores all fifteen fields dominated the construction cost.  Defaults
    live on the class; ``__init__`` stores only the fields a step
    actually passes, and reads fall through to the class attributes.
    """

    pc: int = 0
    size: int = 4
    is_load: bool = False
    is_store: bool = False
    mem_address: Optional[int] = None
    is_branch: bool = False
    branch_taken: bool = False
    is_gate: bool = False
    gate_kind: Optional[GateKind] = None
    is_csr: bool = False        # explicit CSR access (serializing)
    pcu_stall: int = 0          # cycles added by privilege-structure fetches
    trapped: bool = False       # this step vectored to a trap handler
    trap_return: bool = False   # sret / iret
    halted: bool = False
    extra_cycles: int = 0       # instruction-specific cost (wbinvd, rdtsc...)

    def __init__(self, pc: int = 0, size: int = 4, **fields):
        self.pc = pc
        self.size = size
        if fields:
            self.__dict__.update(fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StepInfo(%s)" % ", ".join(
            "%s=%r" % kv for kv in sorted(self.__dict__.items())
        )


class PipelineModel:
    """Base class: shared bookkeeping for both timing models."""

    def __init__(self, hierarchy: MemoryHierarchy, predictor: Optional[TournamentPredictor] = None):
        self.hierarchy = hierarchy
        self.predictor = predictor or TournamentPredictor()
        self.branch_stats = BranchStats()
        # Bound-method handles for the per-instruction hot path.
        self._access_instruction = hierarchy.access_instruction
        self._access_data = hierarchy.access_data
        self._predictor_update = self.predictor.update
        self._mispredict_penalty = float(getattr(self, "MISPREDICT_PENALTY", 0))
        # Instructions retired since the last trusted-stack push that is
        # still in the store queue (``None``: no push in flight).  Only
        # the O3 model opens that window; the block executor advances
        # it by each block's members, as the per-instruction path would.
        self._instructions_since_push: Optional[int] = None

    def instruction_cycles(self, info: StepInfo) -> float:
        raise NotImplementedError

    def _branch_penalty(self, info: StepInfo, penalty: int) -> float:
        self.branch_stats.predictions += 1
        mispredicted = self.predictor.update(info.pc, info.branch_taken)
        if mispredicted:
            self.branch_stats.mispredictions += 1
            return float(penalty)
        return 0.0


class InOrderPipelineModel(PipelineModel):
    """Rocket-like 5-stage in-order scalar pipeline.

    Component costs calibrated so the microbenchmarks land on the
    paper's Table 4 rows: a gate is a 3-cycle front-end flush plus a
    1-cycle SGT lookup plus a 1-cycle redirect (= 5 for ``hccall``);
    the extended gate adds two trusted-stack word accesses at
    ~3.5 cycles each (= 12).
    """

    MISPREDICT_PENALTY = 3
    TRAP_ENTRY = 36        # flush + privilege change + vector fetch
    TRAP_RETURN = 30
    SERIALIZE = 2          # CSR access drains the short pipeline
    GATE_FLUSH = 2
    GATE_SGT_LOOKUP = 1
    GATE_REDIRECT = 1
    TSTACK_WORD = 3.5      # trusted-stack push/pop per word
    RET_BOUND_CHECK = 1    # hcrets hcsb/hcsl bound check

    def instruction_cycles(self, info: StepInfo) -> float:
        cycles = 1.0
        # Front end: extra fetch cycles beyond the pipelined hit.
        fetch = self._access_instruction(info.pc)
        if fetch > 1:
            cycles += fetch - 1
        if info.is_gate:
            return cycles + self._gate_cycles(info)
        mem_address = info.mem_address
        if mem_address is not None:
            # A D-cache hit (2 cycles) costs one extra cycle over ALU ops.
            data = self._access_data(mem_address, info.is_store)
            if data > 1:
                cycles += data - 1
        if info.is_branch:
            # _branch_penalty, inlined for the per-branch hot path.
            stats = self.branch_stats
            stats.predictions += 1
            if self._predictor_update(info.pc, info.branch_taken):
                stats.mispredictions += 1
                cycles += self._mispredict_penalty
        if info.is_csr:
            cycles += self.SERIALIZE
        if info.trapped:
            cycles += self.TRAP_ENTRY
        if info.trap_return:
            cycles += self.TRAP_RETURN
        cycles += info.pcu_stall + info.extra_cycles
        return cycles

    def _gate_cycles(self, info: StepInfo) -> float:
        cycles = float(self.GATE_FLUSH + self.GATE_REDIRECT)
        if info.gate_kind in (GateKind.HCCALL, GateKind.HCCALLS):
            cycles += self.GATE_SGT_LOOKUP
        if info.gate_kind in (GateKind.HCCALLS, GateKind.HCRETS):
            cycles += 2 * self.TSTACK_WORD
        if info.gate_kind is GateKind.HCRETS:
            cycles += self.RET_BOUND_CHECK
        return cycles + info.pcu_stall


class OutOfOrderPipelineModel(PipelineModel):
    """Gem5-O3-like 8-wide out-of-order pipeline (Table 3 parameters).

    An O3 core hides most latencies, so the model charges fractional
    base cost per instruction (1/width), partial costs for memory misses
    (overlapped by the 4-20 MSHRs), and full squash costs only for
    serializing events.  Gate costs are calibrated to Table 4: the
    squash-and-drain dominates (``hccall`` = 34); ``hccalls`` adds two
    store-queue pushes, ``hcrets`` two loads.  When ``hcrets`` executes
    while the matching push is still in the 32-entry store queue, the
    loads forward from it and the squash overlaps the drain, saving 22
    cycles — which is why the paper's measured X-domain call (74) is
    cheaper than ``hccalls`` + ``hcrets`` (96).
    """

    WIDTH = 8
    MISPREDICT_PENALTY = 14
    TRAP_ENTRY = 120       # full squash + mode change + vector fetch
    TRAP_RETURN = 90
    SERIALIZE = 10         # non-renamed CSR access drains the ROB
    ICACHE_MISS_FACTOR = 0.5
    LOAD_MISS_FACTOR = 0.35
    STORE_MISS_FACTOR = 0.05
    GATE_SQUASH = 30       # full pipeline squash + refetch
    GATE_SGT_LOOKUP = 4
    TSTACK_PUSH_WORD = 9   # store-queue allocate + trusted-range store
    TSTACK_POP_WORD = 7
    FORWARDING_SAVING = 22
    STORE_QUEUE_WINDOW = 32  # instructions a push survives in the SQ

    def __init__(self, hierarchy: MemoryHierarchy, predictor: Optional[TournamentPredictor] = None):
        # Gem5's O3 tournament predictor uses multi-K-entry tables;
        # size them accordingly so unrelated branches rarely alias.
        if predictor is None:
            predictor = TournamentPredictor(local_bits=14, global_bits=14)
        super().__init__(hierarchy, predictor)
        self._inv_width = 1.0 / self.WIDTH

    def instruction_cycles(self, info: StepInfo) -> float:
        if self._instructions_since_push is not None:
            self._instructions_since_push += 1
        cycles = self._inv_width
        fetch = self._access_instruction(info.pc)
        if fetch > 2:  # beyond the pipelined L1 hit
            cycles += (fetch - 2) * self.ICACHE_MISS_FACTOR
        if info.is_gate:
            return cycles + self._gate_cycles(info)
        mem_address = info.mem_address
        if mem_address is not None:
            data = self._access_data(mem_address, info.is_store)
            if data > 2:
                factor = self.STORE_MISS_FACTOR if info.is_store else self.LOAD_MISS_FACTOR
                cycles += (data - 2) * factor
        if info.is_branch:
            # _branch_penalty, inlined for the per-branch hot path.
            stats = self.branch_stats
            stats.predictions += 1
            if self._predictor_update(info.pc, info.branch_taken):
                stats.mispredictions += 1
                cycles += self._mispredict_penalty
        if info.is_csr:
            cycles += self.SERIALIZE
        if info.trapped:
            cycles += self.TRAP_ENTRY
        if info.trap_return:
            cycles += self.TRAP_RETURN
        cycles += info.pcu_stall + info.extra_cycles
        return cycles

    def _gate_cycles(self, info: StepInfo) -> float:
        cycles = float(self.GATE_SQUASH)
        if info.gate_kind in (GateKind.HCCALL, GateKind.HCCALLS):
            cycles += self.GATE_SGT_LOOKUP
        if info.gate_kind is GateKind.HCCALLS:
            cycles += 2 * self.TSTACK_PUSH_WORD
            self._instructions_since_push = 0
        elif info.gate_kind is GateKind.HCRETS:
            cycles += 2 * self.TSTACK_POP_WORD
            if (
                self._instructions_since_push is not None
                and self._instructions_since_push <= self.STORE_QUEUE_WINDOW
            ):
                cycles -= self.FORWARDING_SAVING
            self._instructions_since_push = None
        return cycles + info.pcu_stall
