"""The oracle PCU: a cache-free reference model of the privilege check.

:class:`OraclePcu` is the executable specification the cached
:class:`~repro.core.pcu.PrivilegeCheckUnit` is differentially tested
against.  It shares the HPT and SGT *data structures* (trusted-memory
words) with the real PCU but none of its machinery: no privilege caches,
no bypass register, no Draco cache, no prefetching — every check reads
the tables directly, so it can never observe a stale fill.

The contract (recorded in DESIGN.md):

* ``check`` — instruction bitmap first, then (for explicit CSR
  accesses) the read bit, then the write permission; bitwise-controlled
  CSRs use the mask rule ``(old ^ new) & ~mask == 0`` *instead of* the
  write bit.  Domain-0 always passes.  Fault subclasses must match the
  real PCU exactly.
* ``execute_gate`` — SGT entry validity, frozen call-site match,
  trusted-stack push/pop with the same overflow/underflow ordering, and
  the domain-0 return ban, with the same side effects on failure (an
  ``hcrets`` that faults on the domain-0 ban has still consumed the
  frame).
* ``check_memory_access`` — trusted memory is domain-0-only: an access
  faults when its first or its last byte is trusted.

State the differential runner compares after every event: current
domain, previous domain, trusted-stack depth, and the
allowed/fault-subclass outcome (plus the target pc for gates).  Stall
cycles are *not* part of the contract — the oracle is stall-free by
construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import (
    BitMaskViolationFault,
    ConfigurationError,
    GateFault,
    InstructionPrivilegeFault,
    RegisterReadFault,
    RegisterWriteFault,
    StaleGenerationFault,
    TrustedMemoryFault,
    TrustedStackFault,
)
from repro.core.hpt import HybridPrivilegeTable
from repro.core.isa_extension import AccessInfo, GateKind, IsaGridIsaMap
from repro.core.pcu import DOMAIN_0
from repro.core.sgt import SwitchingGateTable
from repro.core.trusted_memory import TrustedMemory


class _StackWindow:
    """One trusted-stack window as the *memory* holds it.

    ``cells`` is the window's frame image: a pop moves the depth pointer
    but never truncates the image — exactly like the real trusted stack,
    where popped frames stay in trusted memory until overwritten.  The
    distinction is visible through thread switches: restoring a context
    whose window still holds deeper, previously-popped frames must let a
    later over-deep pop read those stale frames back, or the oracle and
    the PCU diverge on shrunk/reordered streams.
    """

    __slots__ = ("capacity", "cells")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cells: List[Tuple[int, int]] = []


class OraclePcu:
    """Reference privilege-check semantics over the shared HPT/SGT."""

    def __init__(
        self,
        isa_map: IsaGridIsaMap,
        hpt: HybridPrivilegeTable,
        sgt: SwitchingGateTable,
        trusted_memory: TrustedMemory,
        stack_frames: int,
    ):
        self.isa_map = isa_map
        self.hpt = hpt
        self.sgt = sgt
        self.trusted_memory = trusted_memory
        self.stack_frames = stack_frames
        self.domain = DOMAIN_0
        self.pdomain = DOMAIN_0
        self.window = _StackWindow(stack_frames)
        self._depth = 0
        self.enabled = True
        # Slot-generation table mirror (domain virtualization): shared
        # with the real PCU by the churn world so both sides latch the
        # same generation on entry and fault identically on reuse.
        self.generation_table = None
        self._entry_generation = 0

    # ------------------------------------------------------------------
    # State.
    # ------------------------------------------------------------------
    @property
    def current_domain(self) -> int:
        return self.domain

    @property
    def depth(self) -> int:
        return self._depth

    def reset(self) -> None:
        self.domain = DOMAIN_0
        self.pdomain = DOMAIN_0
        self.window = _StackWindow(self.stack_frames)
        self._depth = 0
        self._entry_generation = 0

    def _switch(self, destination: int) -> None:
        self.pdomain = self.domain
        self.domain = destination
        table = self.generation_table
        if table is not None:
            self._entry_generation = table.get(destination, 0)

    def _check_generation(self, domain: int, address: int) -> None:
        """Mirror of the PCU's slot-generation guard (hard fault)."""
        table = self.generation_table
        if table is not None and table.get(domain, 0) != self._entry_generation:
            raise StaleGenerationFault(
                domain, table.get(domain, 0), self._entry_generation,
                address=address,
            )

    # ------------------------------------------------------------------
    # Trusted-stack contexts (the spec of save/restore_context and of
    # DomainManager.create_thread_stack, Section 5.2).
    # ------------------------------------------------------------------
    def save_context(self) -> Tuple[_StackWindow, int]:
        """Snapshot of (window, depth) — the oracle's (hcsp, hcsb, hcsl)."""
        return self.window, self._depth

    def restore_context(self, context: Tuple[_StackWindow, int]) -> None:
        self.window, self._depth = context

    def create_thread_context(
        self, frames: int, entry: Optional[Tuple[int, int]] = None,
    ) -> Tuple[_StackWindow, int]:
        """A fresh window, optionally seeded with one entry frame."""
        window = _StackWindow(frames)
        if entry is None:
            return window, 0
        window.cells.append(entry)
        return window, 1

    def _push(self, return_address: int, domain: int) -> None:
        if self._depth < len(self.window.cells):
            self.window.cells[self._depth] = (return_address, domain)
        else:
            self.window.cells.append((return_address, domain))
        self._depth += 1

    def _pop(self) -> Tuple[int, int]:
        self._depth -= 1
        return self.window.cells[self._depth]

    # ------------------------------------------------------------------
    # Hybrid-grained privilege check (the spec of PCU.check).
    # ------------------------------------------------------------------
    def check(self, access: AccessInfo) -> None:
        if not self.enabled:
            return
        domain = self.domain
        if domain == DOMAIN_0:
            return
        self._check_generation(domain, access.address)

        word = self.hpt.read_inst_word(domain, access.inst_class // 64)
        if not word >> (access.inst_class % 64) & 1:
            raise InstructionPrivilegeFault(
                access.inst_class, domain=domain, address=access.address
            )
        if access.csr is None:
            return

        csr = access.csr
        word = self.hpt.read_reg_word(domain, (2 * csr) // 64)
        read_bit = word >> ((2 * csr) % 64) & 1
        write_bit = word >> ((2 * csr) % 64 + 1) & 1
        if access.csr_read and not read_bit:
            raise RegisterReadFault(csr, domain=domain, address=access.address)
        if access.csr_write:
            slot = self.isa_map.mask_slot(csr)
            if slot is not None:
                if access.write_value is None or access.old_value is None:
                    raise ConfigurationError(
                        "bitwise CSR write check requires old and new values"
                    )
                mask = self.hpt.read_mask(domain, slot)
                if (access.old_value ^ access.write_value) & ~mask:
                    raise BitMaskViolationFault(
                        csr, access.old_value, access.write_value, mask,
                        domain=domain, address=access.address,
                    )
            elif not write_bit:
                raise RegisterWriteFault(
                    csr, domain=domain, address=access.address
                )

    # ------------------------------------------------------------------
    # Domain switching (the spec of PCU.execute_gate).
    # ------------------------------------------------------------------
    def execute_gate(
        self,
        kind: GateKind,
        gate_id: int,
        pc: int,
        return_address: Optional[int] = None,
    ) -> int:
        """Execute a gate; returns the target pc or raises a fault."""
        if self.domain != DOMAIN_0:
            self._check_generation(self.domain, pc)
        if kind is GateKind.HCRETS:
            if self._depth <= 0:
                raise TrustedStackFault(
                    "trusted stack underflow", 0, domain=self.domain, address=pc
                )
            target, domain = self._pop()
            if domain == DOMAIN_0:
                # The frame is consumed even though the return is banned —
                # matching the real PCU's pop-then-check ordering.
                raise GateFault(
                    "hcrets may not return to domain-0",
                    domain=self.domain, address=pc,
                )
            self._switch(domain)
            return target

        entry = self.sgt.read_entry(gate_id)  # GateFault if unregistered
        if not entry.matches_call_site(pc):
            raise GateFault(
                "gate %d called from 0x%x, registered at 0x%x"
                % (gate_id, pc, entry.gate_address),
                gate_id=gate_id, domain=self.domain, address=pc,
            )
        if kind is GateKind.HCCALLS:
            if return_address is None:
                raise ConfigurationError("hccalls requires a return address")
            if self._depth >= self.window.capacity:
                raise TrustedStackFault(
                    "trusted stack overflow", 0, domain=self.domain, address=pc
                )
            self._push(return_address, self.domain)
        self._switch(entry.destination_domain)
        return entry.destination_address

    # ------------------------------------------------------------------
    # Trusted memory enforcement.
    # ------------------------------------------------------------------
    def check_memory_access(self, address: int, pc: int = 0,
                            size: int = 1) -> None:
        if not self.enabled:
            return
        if self.domain == DOMAIN_0:
            return
        self._check_generation(self.domain, pc)
        if (self.trusted_memory.contains(address)
                or self.trusted_memory.contains(address + size - 1)):
            raise TrustedMemoryFault(address, domain=self.domain, address=pc)
