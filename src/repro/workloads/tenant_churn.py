"""Tenant-churn workload: Zipf-popular tenants, bursty arrivals.

Conformance fuzzing and the fault campaigns exercise a *fixed* set of
domains; this generator models the deployment the domain-virtualization
layer exists for (DESIGN §3.17): an unbounded stream of short-lived
logical tenants multiplexed over a small physical slot pool, with

* **Zipf-distributed popularity** — a handful of long-lived tenants
  absorb most gate traffic while a long tail is visited once and
  evicted, which is exactly the access pattern that makes LRU slot
  recycling (and its use-after-free hazards) interesting;
* **bursty arrivals** — tenant spawns cluster in bursts, so the slot
  pool saturates in waves and ``slot_exhausted`` backpressure fires for
  real rather than as a contrived corner case;
* **interleaved reconfiguration** — domain-0 grant/revoke
  transactions are issued while the core sits *inside* a tenant domain,
  so commit windows finally overlap live check traffic instead of
  always running from a quiesced domain-0.

The generator is pure and deterministic (``random.Random(seed)``), and
speaks only in abstract handles and slot numbers: tenant handles are
dense spawn-order indices, instruction/CSR slots are small ints the
churn campaign maps onto a concrete backend.  It never touches the
core models, so the same op stream drives both lockstep sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

#: One privilege probe inside a visit: (inst_slot, csr_slot, read, write).
#: ``csr_slot == -1`` means an instruction-only check; CSR probes always
#: carry a real instruction slot too (biased toward granted ones).
CheckSpec = Tuple[int, int, bool, bool]


@dataclass(frozen=True)
class ChurnOp:
    """One step of a churn campaign.

    ``kind`` is one of:

    ``spawn``
        Create tenant ``tenant`` (handles are dense spawn-order
        indices) with the manifest carried in ``insts`` /
        ``csr_reads`` / ``csr_writes``.
    ``retire``
        Destroy tenant ``tenant``, recycling its slot if bound.
    ``reconfig``
        Apply ``verb`` (``allow_inst`` / ``deny_inst`` / ``grant_csr``
        / ``revoke_csr`` / ``seal``) to tenant ``tenant`` — issued from wherever
        the core currently sits, overlapping gate traffic.
    ``visit``
        Activate ``tenant`` (binding a slot, possibly evicting),
        ``hccalls`` into it, retire the probes in ``checks``, and
        ``hcrets`` home.
    ``migrate``
        Re-home the workload: activate ``tenant`` and ``hccall`` the
        core into it; subsequent ops run from there.
    ``check``
        Retire the probes in ``checks`` without leaving the current
        home domain.
    """

    kind: str
    tenant: int = -1
    verb: str = ""
    inst: int = -1
    csr: int = -1
    read: bool = False
    write: bool = False
    insts: Tuple[int, ...] = ()
    csr_reads: Tuple[int, ...] = ()
    csr_writes: Tuple[int, ...] = ()
    checks: Tuple[CheckSpec, ...] = ()


@dataclass
class ChurnTrace:
    """The generated op stream plus its bookkeeping totals."""

    ops: List[ChurnOp] = field(default_factory=list)
    spawned: int = 0
    retired: int = 0
    visits: int = 0
    reconfigs: int = 0
    migrations: int = 0


class TenantChurnGenerator:
    """Deterministic churn-op stream over abstract tenant handles."""

    def __init__(
        self,
        seed: int,
        n_inst_slots: int,
        n_csr_slots: int,
        *,
        zipf_s: float = 1.1,
        burst_chance: float = 0.05,
        burst_lo: int = 6,
        burst_hi: int = 18,
    ):
        self.rng = random.Random(seed)
        self.n_inst_slots = n_inst_slots
        self.n_csr_slots = n_csr_slots
        self.zipf_s = zipf_s
        self.burst_chance = burst_chance
        self.burst_lo = burst_lo
        self.burst_hi = burst_hi
        #: alive tenant handles, in spawn order (rank == popularity rank)
        self.alive: List[int] = []
        #: handle -> manifest mirror, for drawing granted-vs-probe checks
        self.manifests: Dict[int, Tuple[Set[int], Set[int], Set[int]]] = {}
        self.home = -1
        self._next_handle = 0

    # ------------------------------------------------------------------
    def generate(self, n_ops: int) -> ChurnTrace:
        trace = ChurnTrace()
        # Seed the world: a home tenant (entered via migrate) plus a
        # small starting population so early visits have targets.
        self._spawn(trace, rich=True)
        trace.ops.append(ChurnOp(kind="migrate", tenant=self.home))
        trace.migrations += 1
        for _ in range(3):
            self._spawn(trace)
        while len(trace.ops) < n_ops:
            roll = self.rng.random()
            if roll < self.burst_chance:
                for _ in range(self.rng.randrange(self.burst_lo, self.burst_hi)):
                    if len(trace.ops) >= n_ops:
                        break
                    self._spawn(trace)
            elif roll < 0.23:
                self._spawn(trace)
            elif roll < 0.40:
                self._retire(trace)
            elif roll < 0.55:
                self._reconfig(trace)
            elif roll < 0.60:
                self._migrate(trace)
            elif roll < 0.72:
                self._home_check(trace)
            else:
                self._visit(trace)
        del trace.ops[n_ops:]
        return trace

    # ------------------------------------------------------------------
    def _zipf_pick(self) -> int:
        """Pick an alive handle, rank-weighted: earlier spawns dominate."""
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(self.alive))]
        point = self.rng.random() * sum(weights)
        for handle, weight in zip(self.alive, weights):
            point -= weight
            if point <= 0:
                return handle
        return self.alive[-1]

    def _draw_manifest(self, rich: bool) -> Tuple[Set[int], Set[int], Set[int]]:
        rng = self.rng
        n_inst = rng.randrange(2, self.n_inst_slots) if rich else rng.randrange(
            1, max(2, self.n_inst_slots // 2) + 1
        )
        insts = set(rng.sample(range(self.n_inst_slots), n_inst))
        reads: Set[int] = set()
        writes: Set[int] = set()
        for slot in range(self.n_csr_slots):
            roll = rng.random()
            if roll < 0.25:
                reads.add(slot)
            elif roll < 0.40:
                reads.add(slot)
                writes.add(slot)
        return insts, reads, writes

    def _spawn(self, trace: ChurnTrace, rich: bool = False) -> None:
        handle = self._next_handle
        self._next_handle += 1
        manifest = self._draw_manifest(rich)
        self.manifests[handle] = manifest
        self.alive.append(handle)
        if self.home < 0:
            self.home = handle
        insts, reads, writes = manifest
        trace.ops.append(
            ChurnOp(
                kind="spawn",
                tenant=handle,
                insts=tuple(sorted(insts)),
                csr_reads=tuple(sorted(reads)),
                csr_writes=tuple(sorted(writes)),
            )
        )
        trace.spawned += 1

    def _retire(self, trace: ChurnTrace) -> None:
        victims = [h for h in self.alive if h != self.home]
        if not victims:
            return
        # Retire from the unpopular tail half, biasing churn toward the
        # short-lived tenants the Zipf head never was.
        tail = victims[len(victims) // 2 :]
        handle = self.rng.choice(tail)
        self.alive.remove(handle)
        del self.manifests[handle]
        trace.ops.append(ChurnOp(kind="retire", tenant=handle))
        trace.retired += 1

    def _reconfig(self, trace: ChurnTrace) -> None:
        handle = self._zipf_pick()
        insts, reads, writes = self.manifests[handle]
        rng = self.rng
        verb = rng.choice(("allow_inst", "deny_inst", "grant_csr",
                           "revoke_csr", "seal"))
        if verb == "allow_inst":
            slot = rng.randrange(self.n_inst_slots)
            insts.add(slot)
            op = ChurnOp(kind="reconfig", tenant=handle, verb=verb, inst=slot)
        elif verb == "deny_inst":
            if not insts:
                return
            slot = rng.choice(sorted(insts))
            insts.discard(slot)
            op = ChurnOp(kind="reconfig", tenant=handle, verb=verb, inst=slot)
        elif verb == "grant_csr":
            slot = rng.randrange(self.n_csr_slots)
            read, write = True, rng.random() < 0.5
            reads.add(slot)
            if write:
                writes.add(slot)
            op = ChurnOp(
                kind="reconfig", tenant=handle, verb=verb, csr=slot,
                read=read, write=write,
            )
        elif verb == "revoke_csr":
            if not reads:
                return
            slot = rng.choice(sorted(reads))
            reads.discard(slot)
            writes.discard(slot)
            op = ChurnOp(
                kind="reconfig", tenant=handle, verb=verb, csr=slot,
                read=True, write=True,
            )
        else:  # seal: drop the privilege from the mirror too — it is
            # gone for this slot incarnation, so checks bias away.
            if insts and rng.random() < 0.6:
                slot = rng.choice(sorted(insts))
                insts.discard(slot)
                op = ChurnOp(kind="reconfig", tenant=handle, verb=verb,
                             inst=slot)
            elif reads:
                slot = rng.choice(sorted(reads))
                reads.discard(slot)
                writes.discard(slot)
                op = ChurnOp(kind="reconfig", tenant=handle, verb=verb,
                             csr=slot, read=True, write=True)
            else:
                return
        trace.ops.append(op)
        trace.reconfigs += 1

    def _draw_checks(self, handle: int) -> Tuple[CheckSpec, ...]:
        insts, reads, writes = self.manifests[handle]
        rng = self.rng
        checks: List[CheckSpec] = []
        for _ in range(rng.randrange(2, 7)):
            if rng.random() < 0.6:
                # Instruction check; ~1/4 of them probe an ungranted slot.
                probe = rng.random() < 0.25
                pool = (
                    sorted(set(range(self.n_inst_slots)) - insts)
                    if probe
                    else sorted(insts)
                )
                if not pool:
                    pool = list(range(self.n_inst_slots))
                checks.append((rng.choice(pool), -1, False, False))
            else:
                # CSR probe riding on a (usually granted) instruction,
                # so the CSR verdict — not an inst fault — decides it.
                inst = rng.choice(sorted(insts)) if insts else \
                    rng.randrange(self.n_inst_slots)
                slot = rng.randrange(self.n_csr_slots)
                write = rng.random() < 0.4
                checks.append((inst, slot, not write, write))
        return tuple(checks)

    def _visit(self, trace: ChurnTrace) -> None:
        handle = self._zipf_pick()
        if handle == self.home:
            self._home_check(trace)
            return
        trace.ops.append(
            ChurnOp(kind="visit", tenant=handle, checks=self._draw_checks(handle))
        )
        trace.visits += 1

    def _home_check(self, trace: ChurnTrace) -> None:
        trace.ops.append(
            ChurnOp(kind="check", tenant=self.home, checks=self._draw_checks(self.home))
        )

    def _migrate(self, trace: ChurnTrace) -> None:
        candidates = [h for h in self.alive if h != self.home]
        if not candidates:
            return
        handle = self.rng.choice(candidates[: max(1, len(candidates) // 3)])
        self.home = handle
        trace.ops.append(ChurnOp(kind="migrate", tenant=handle))
        trace.migrations += 1


def generate_churn_ops(
    seed: int, n_ops: int, n_inst_slots: int, n_csr_slots: int
) -> ChurnTrace:
    """Convenience wrapper used by the churn campaign."""
    generator = TenantChurnGenerator(seed, n_inst_slots, n_csr_slots)
    return generator.generate(n_ops)
