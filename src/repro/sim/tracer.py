"""Execution tracing for debugging simulated programs.

Attach a :class:`Tracer` to a :class:`~repro.sim.machine.Machine` and
every retired instruction produces one :class:`TraceRecord` (ring-
buffered) — pc, current ISA domain, memory/gate/trap flags, running
cycle count.  ``render_tail`` pretty-prints the last N records, which is
usually what you want when a simulated kernel dies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from .machine import Machine
from .pipeline import StepInfo


@dataclass(frozen=True)
class TraceRecord:
    """One retired instruction."""

    index: int
    pc: int
    domain: int
    cycles: float
    is_gate: bool = False
    is_load: bool = False
    is_store: bool = False
    mem_address: Optional[int] = None
    trapped: bool = False
    halted: bool = False

    def render(self) -> str:
        flags = "".join((
            "G" if self.is_gate else "-",
            "L" if self.is_load else "-",
            "S" if self.is_store else "-",
            "T" if self.trapped else "-",
            "H" if self.halted else "-",
        ))
        memory = " mem=0x%x" % self.mem_address if self.mem_address is not None else ""
        return "%8d  pc=0x%08x  dom=%-3d %s  cyc=%10.1f%s" % (
            self.index, self.pc, self.domain, flags, self.cycles, memory,
        )


class Tracer:
    """Ring-buffered per-instruction trace of one machine.

    Installs itself as the machine's ``step_hook``, chaining any hook
    already installed (whose return value still decides whether ``run``
    stops); :meth:`detach` restores that hook.  An optional ``watch``
    callback fires on every record (return ``True`` from it to stop
    collecting further records).
    """

    def __init__(
        self,
        machine: Machine,
        *,
        capacity: int = 4096,
        watch: Optional[Callable[[TraceRecord], Optional[bool]]] = None,
    ):
        self.machine = machine
        self.capacity = capacity
        self.watch = watch
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._count = 0
        self._active = True
        self._previous_hook = machine.step_hook
        machine.step_hook = self._on_step

    # ------------------------------------------------------------------
    def _on_step(self, info: StepInfo) -> bool:
        if self._active:
            record = TraceRecord(
                index=self._count,
                pc=info.pc,
                domain=(
                    self.machine.pcu.current_domain
                    if self.machine.pcu is not None
                    else 0
                ),
                cycles=self.machine.stats.cycles,
                is_gate=info.is_gate,
                is_load=info.is_load,
                is_store=info.is_store,
                mem_address=info.mem_address,
                trapped=info.trapped,
                halted=info.halted,
            )
            self.records.append(record)
            self._count += 1
            if self.watch is not None and self.watch(record):
                self._active = False
        previous = self._previous_hook
        return previous is not None and previous(info)

    def detach(self) -> None:
        """Restore the machine's previous step hook."""
        self.machine.step_hook = self._previous_hook

    # ------------------------------------------------------------------
    @property
    def total_records(self) -> int:
        return self._count

    def tail(self, count: int = 20) -> List[TraceRecord]:
        return list(self.records)[-count:]

    def render_tail(self, count: int = 20) -> str:
        lines = ["   index  pc          domain flags  cycles"]
        lines += [record.render() for record in self.tail(count)]
        return "\n".join(lines)

    def domains_visited(self) -> List[int]:
        """Distinct domains in buffer order of first appearance."""
        seen: List[int] = []
        for record in self.records:
            if record.domain not in seen:
                seen.append(record.domain)
        return seen
