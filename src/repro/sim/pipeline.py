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
retired instruction.  Each also renders, from the same constants, the
source that charges a block member's cycles inside a compiled block's
generated function (:meth:`PipelineModel.member_tail`, DESIGN §3.18).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

    # ------------------------------------------------------------------
    # Block members' timing, as source (DESIGN §3.18 "Generated blocks").
    # The lines run in a block's generated function, where ``cpu`` is
    # the CPU and ``cyc`` the cycle sum; they reach this model through
    # the handles of :meth:`block_handles`, which every CPU binds, read
    # into locals by the block's prologue (:meth:`block_prologue`).  The
    # hierarchy renders its L1 hit paths and the predictor its update.
    # Only numbers are rendered in.
    # ------------------------------------------------------------------
    def block_handles(self) -> dict:
        """The CPU attributes the rendered lines read, and their values."""
        return dict(self.hierarchy.block_handles(),
                    _branch_stats=self.branch_stats, _predictor=self.predictor)

    def block_prologue(self) -> tuple:
        """What a block's prologue reads for the rendered lines, as
        ``(local, expression)``."""
        return (self.hierarchy.BLOCK_PROLOGUE + self.predictor.BLOCK_PROLOGUE
                + (("branch_stats", "cpu._branch_stats"),))

    def block_key(self) -> tuple:
        """Every constant this model renders into a block besides a pc:
        blocks formed on models with equal keys are interchangeable."""
        return ((type(self),) + self.hierarchy.render_key()
                + self.predictor.render_key())

    def member_tail(self, pc: int, warm: bool, address: Optional[str] = None,
                    is_store: bool = False, taken: Optional[str] = None,
                    counted: bool = True) -> List[str]:
        """Source that adds one block member's cycles to ``cyc``.

        The cost is what :meth:`instruction_cycles` charges such an
        instruction, summed in its order: the fetch at ``pc`` (an L1I
        hit, counted by the block in one go, when ``warm``), the data
        access at the expression ``address``, and the prediction of a
        branch whose outcome is the expression ``taken`` (counted here
        unless the block counts it, when not ``counted``).  It is added
        to ``cyc`` on its own, so the block's sum is the per-instruction
        loop's sum.
        """
        fetch, cost = self._fetch_tail(pc, warm)
        rest = []
        if address is not None:
            rest += self._data_tail(address, is_store)
        if taken is not None:
            if counted:
                rest.append("branch_stats.predictions += 1")
            rest += self._branch_tail(pc, taken)
        if not rest:
            return fetch + ["cyc += %s" % cost]
        return fetch + ["c = %s" % cost] + rest + ["cyc += c"]

    def steady_tail(self, pc: int, address: Optional[str] = None,
                    is_store: bool = False, taken: Optional[str] = None,
                    continues: bool = True) -> List[str]:
        """:meth:`member_tail` in a loop block's steady body (DESIGN
        §3.18 "Loop blocks"), where every fetch is an L1I hit that the
        block counts, and the predictor sits at the fixed point of the
        back edge, whose outcome ``taken`` continues the loop when it
        reads ``continues``.  Such a branch adds its base cost alone,
        and the block counts its prediction; one that leaves updates
        the predictor as :meth:`member_tail` does, uncounted too."""
        stays = self.member_tail(pc, True, address, is_store)
        if taken is None:
            return stays
        leaves = self.member_tail(pc, True, address, is_store, taken,
                                  counted=False)
        return (["if %s%s:" % ("" if continues else "not ", taken)]
                + ["    " + line for line in stays] + ["else:"]
                + ["    " + line for line in leaves])

    def _fetch_tail(self, pc: int, warm: bool) -> Tuple[List[str], str]:
        """Statements and an expression: the base and fetch cycles."""
        raise NotImplementedError

    def _data_tail(self, address: str, is_store: bool) -> List[str]:
        """Statements adding a data access's cycles to ``c``."""
        raise NotImplementedError

    def _branch_tail(self, pc: int, taken: str) -> List[str]:
        """Statements that update the predictor with a branch's outcome
        and add a mispredict to ``c``."""
        update, mispredicted = self.predictor.update_source(pc, taken)
        return (update + [
            "if %s:" % mispredicted,
            "    branch_stats.mispredictions += 1",
            "    c += %r" % self._mispredict_penalty,
        ])


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
            # The branch rule, as member_tail renders it for block
            # members: count the prediction, update the predictor,
            # and charge a misprediction MISPREDICT_PENALTY.
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

    def _fetch_tail(self, pc: int, warm: bool) -> Tuple[List[str], str]:
        if warm:
            f = self.hierarchy.l1i.latency
            return [], repr(1.0 + (f - 1) if f > 1 else 1.0)
        return (self.hierarchy.fetch_source(pc),
                "1.0 + (f - 1) if f > 1 else 1.0")

    def _data_tail(self, address: str, is_store: bool) -> List[str]:
        # A D-cache hit (2 cycles) costs one extra cycle over ALU ops.
        return self.hierarchy.data_source(address, is_store) + [
            "if d > 1:",
            "    c += d - 1"]

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
            # The branch rule, as member_tail renders it for block
            # members: count the prediction, update the predictor,
            # and charge a misprediction MISPREDICT_PENALTY.
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

    def _fetch_tail(self, pc: int, warm: bool) -> Tuple[List[str], str]:
        inv, factor = self._inv_width, self.ICACHE_MISS_FACTOR
        if warm:
            f = self.hierarchy.l1i.latency
            return [], repr(inv + (f - 2) * factor if f > 2 else inv)
        return (self.hierarchy.fetch_source(pc),
                "%r + (f - 2) * %r if f > 2 else %r" % (inv, factor, inv))

    def _data_tail(self, address: str, is_store: bool) -> List[str]:
        factor = self.STORE_MISS_FACTOR if is_store else self.LOAD_MISS_FACTOR
        return self.hierarchy.data_source(address, is_store) + [
            "if d > 2:",
            "    c += (d - 2) * %r" % factor]

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
