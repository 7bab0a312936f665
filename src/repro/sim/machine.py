"""The Machine: one core + memory + hierarchy + PCU + timing model.

The machine owns everything an experiment needs: the functional CPU
(attached by the architecture packages), the physical memory with its
trusted region, the cache-hierarchy and pipeline timing models, and the
optional Privilege Check Unit.  ``run`` drives the fetch-execute loop
and accumulates instruction and cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.core.pcu import PrivilegeCheckUnit

from .memhier import MemoryHierarchy
from .memory import PhysicalMemory
from .pipeline import PipelineModel, StepInfo


class Core(Protocol):
    """What the Machine requires of a functional CPU model."""

    pc: int

    def step(self) -> StepInfo: ...


@dataclass
class MachineStats:
    """Aggregate run statistics."""

    instructions: int = 0
    cycles: float = 0.0
    traps: int = 0
    halted: bool = False

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def reset(self) -> None:
        self.instructions = 0
        self.cycles = 0.0
        self.traps = 0
        self.halted = False


class SimulationLimitExceeded(Exception):
    """``run`` hit ``max_steps`` without the program halting."""


class Machine:
    """A single-core simulated machine."""

    def __init__(
        self,
        memory: PhysicalMemory,
        hierarchy: MemoryHierarchy,
        pipeline: PipelineModel,
        pcu: Optional[PrivilegeCheckUnit] = None,
    ):
        self.memory = memory
        self.hierarchy = hierarchy
        self.pipeline = pipeline
        self.pcu = pcu
        self.cpu: Optional[Core] = None
        self.stats = MachineStats()
        #: Optional per-step observation hook (fault campaigns, the
        #: Tracer): called with the StepInfo of every instruction
        #: retired through ``step`` or ``run``, the halting one included,
        #: once ``instructions`` and ``cycles`` count it.  In ``run`` a
        #: truthy return stops the run early (stats stay consistent).
        #: Installing a hook keeps ``run`` on its per-instruction loop,
        #: so the hook sees each instruction; ``None`` (the default)
        #: lets warm blocks retire under the block executor.
        self.step_hook: Optional[Callable[[StepInfo], bool]] = None
        #: Master switch for the block-summary executor (DESIGN §3.18).
        #: The system builders copy ``PcuConfig.block_summaries`` here so
        #: native (PCU-less) machines honour ``--no-block-cache`` too;
        #: tests flip it to pin a run to the per-instruction loop.
        self.block_summaries = True

    def attach_cpu(self, cpu: Core) -> None:
        self.cpu = cpu

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------
    def step(self) -> StepInfo:
        """Execute one instruction, account its cycles and offer it to
        the step hook (whose return value is ignored here)."""
        if self.cpu is None:
            raise RuntimeError("no CPU attached")
        info = self.cpu.step()
        self.stats.instructions += 1
        self.stats.cycles += self.pipeline.instruction_cycles(info)
        if info.trapped:
            self.stats.traps += 1
        if info.halted:
            self.stats.halted = True
        if self.step_hook is not None:
            self.step_hook(info)
        return info

    def run(self, max_steps: int = 2_000_000, *, require_halt: bool = True) -> MachineStats:
        """Run until the program halts (or ``max_steps`` instructions).

        With ``require_halt`` (the default), exceeding the budget raises
        :class:`SimulationLimitExceeded` — runaway programs are a bug in
        the experiment, not a result.

        Two loops.  Without a step hook, and when the CPU formed its
        member closures against this pipeline model and its PCU (if
        any) is block-capable, the block-summary executor (DESIGN
        §3.18) retires straight-line blocks, probing each once per
        epoch, and falls back to the reference ``step()`` per
        instruction wherever a probe refuses, so results are
        bit-identical to the per-instruction loop.  Otherwise that
        loop runs, with :meth:`step` inlined and the per-instruction
        lookups hoisted into locals.  The ``instructions`` and
        ``cycles`` counters stay live on ``self.stats`` every
        iteration — the CPUs serve them architecturally mid-run
        (RISC-V ``cycle``/``instret`` CSRs, x86 ``rdtsc``) — so only
        the trap count, which nothing reads mid-run, is accumulated in
        a local and flushed on every exit path.  Both loops decide from
        whether *this* run halted, never from ``stats.halted``, which
        an earlier run may have left set.
        """
        cpu = self.cpu
        if cpu is None:
            raise RuntimeError("no CPU attached")
        hook = self.step_hook
        stats = self.stats
        run_blocks = getattr(cpu, "run_blocks", None)
        if (
            hook is None
            and self.block_summaries
            and run_blocks is not None
            and cpu.blocks_supported
            and (cpu.pcu is None or cpu.pcu._block_capable)
        ):
            if run_blocks(max_steps, stats, self.pipeline.instruction_cycles):
                return stats
        else:
            cpu_step = cpu.step
            instruction_cycles = self.pipeline.instruction_cycles
            traps = 0
            try:
                for _ in range(max_steps):
                    info = cpu_step()
                    stats.instructions += 1
                    stats.cycles += instruction_cycles(info)
                    if info.trapped:
                        traps += 1
                    if info.halted:
                        stats.halted = True
                    if (hook is not None and hook(info)) or info.halted:
                        return stats
            finally:
                stats.traps += traps
        if require_halt:
            raise SimulationLimitExceeded(
                "no halt after %d instructions (pc=0x%x)" % (max_steps, cpu.pc)
            )
        return stats

    def reset_stats(self) -> None:
        """Clear run statistics (not architectural or cache state)."""
        self.stats.reset()
        if self.pcu is not None:
            self.pcu.stats.reset()
