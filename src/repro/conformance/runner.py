"""The differential conformance runner.

Replays one abstract event stream through the cached
:class:`~repro.core.pcu.PrivilegeCheckUnit` and the cache-free
:class:`~repro.conformance.oracle.OraclePcu` in lockstep, over *shared*
HPT/SGT trusted-memory tables, and diffs every architecturally visible
outcome: allowed vs fault subclass, current/previous domain, trusted
stack depth, and gate target.  Stall cycles are excluded by contract
(the oracle is stall-free).

On a mismatch the runner delta-shrinks the event prefix (chunked ddmin,
then single-event removal, under a replay budget) and dumps a JSON
reproducer containing the seed, the shrunk events, both outcomes, the
per-ISA pseudo-assembly listing, and the implied domain configuration.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (
    CONFIG_16E,
    CONFIG_8E,
    CONFIG_8EN,
    AccessInfo,
    CacheId,
    DomainManager,
    GateKind,
    PcuConfig,
    PrivilegeCheckUnit,
    TrustedMemory,
)
from repro.core.errors import PrivilegeFault

from .events import (
    N_DOMAIN_SLOTS,
    RECONFIG_OPS,
    Event,
    canonicalize_events,
    generate_events,
    stream_key,
)
from .generator import Backend, destination_address, gate_address, make_backend
from .oracle import OraclePcu

#: Trusted-memory window shared by every conformance world (the abstract
#: ``mem`` events are generated against this range).
TMEM_BASE = 0x100000
TMEM_SIZE = 1 << 20

#: Trusted-stack capacity, small so fuzzed gate chains hit overflow.
STACK_FRAMES = 4

#: Cache configurations the fuzzer runs under.  "stress" shrinks every
#: cache to two entries so refills and evictions dominate; "draco" adds
#: the Section-8 known-legal cache, whose stale entries are the nastiest
#: divergence source.
CONFORMANCE_CONFIGS: Dict[str, PcuConfig] = {
    "stress": PcuConfig(name="2E.stress", hpt_cache_entries=2,
                        sgt_cache_entries=2),
    "draco": PcuConfig(name="2E.draco", hpt_cache_entries=2,
                       sgt_cache_entries=2, draco_entries=4),
    "flush": PcuConfig(name="8E.flush", flush_on_switch=True),
    "16E.": CONFIG_16E,
    "8E.": CONFIG_8E,
    "8E.N": CONFIG_8EN,
}

DEFAULT_CONFIGS = ("stress", "draco")

_GATE_KINDS = {
    "hccall": GateKind.HCCALL,
    "hccalls": GateKind.HCCALLS,
    "hcrets": GateKind.HCRETS,
}


@dataclass
class Outcome:
    """Architecturally visible result of one event on one implementation."""

    status: str       # "ok", "skip", or the PrivilegeFault subclass name
    domain: int
    pdomain: int
    depth: int
    target: int = -1  # gate target pc; -1 for non-gate events

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class Divergence:
    """First event where the cached PCU and the oracle disagreed."""

    index: int
    event: Event
    cached: Outcome
    oracle: Outcome

    def describe(self) -> str:
        return ("event %d (%s): cached=%s oracle=%s"
                % (self.index, self.event.op,
                   self.cached.to_dict(), self.oracle.to_dict()))


class ConformanceWorld:
    """One lockstep pair: cached PCU + oracle over shared tables."""

    def __init__(
        self,
        backend: Backend,
        config: PcuConfig,
        stack_frames: int = STACK_FRAMES,
        mutate: Optional[Callable[[PrivilegeCheckUnit], None]] = None,
    ):
        self.backend = backend
        self.stack_frames = stack_frames
        self.trusted_memory = TrustedMemory(base=TMEM_BASE, size=TMEM_SIZE)
        self.pcu = PrivilegeCheckUnit(backend.isa_map, config,
                                      self.trusted_memory)
        self.manager = DomainManager(self.pcu)
        self.manager.allocate_trusted_stack(frames=stack_frames)
        # Abstract context slot -> (cached (hcsp, hcsb, hcsl) triple,
        # oracle (window, depth)).  Contexts are single-use: a restore
        # consumes the slot, mirroring the generator's pairing discipline
        # (see events.CONTEXT_OPS) that keeps the per-window stack digest
        # sound.
        self.contexts: Dict[int, Tuple[Tuple[int, int, int], object]] = {}
        self.oracle = OraclePcu(backend.isa_map, self.pcu.hpt, self.pcu.sgt,
                                self.trusted_memory, stack_frames)
        # Abstract domain slot -> live concrete domain id (None = dead).
        self.slot_ids: Dict[int, Optional[int]] = {0: 0}
        self._incarnation = 0
        for slot in range(1, N_DOMAIN_SLOTS + 1):
            self.slot_ids[slot] = self.manager.create_domain(
                "slot%d" % slot).domain_id
        if mutate is not None:
            mutate(self.pcu)

    # ------------------------------------------------------------------
    # Event application.
    # ------------------------------------------------------------------
    def _outcome(self, status: str, pcu_side: bool, target: int = -1) -> Outcome:
        if pcu_side:
            return Outcome(status, self.pcu.current_domain,
                           self.pcu.previous_domain,
                           self.pcu.trusted_stack.depth, target)
        return Outcome(status, self.oracle.domain, self.oracle.pdomain,
                       self.oracle.depth, target)

    def _run_side(self, fn, pcu_side: bool) -> Outcome:
        try:
            target = fn()
        except PrivilegeFault as fault:
            return self._outcome(type(fault).__name__, pcu_side)
        return self._outcome("ok", pcu_side,
                             target if isinstance(target, int) else -1)

    def apply(self, event: Event) -> Tuple[Outcome, Outcome]:
        """Apply one event to both implementations; return both outcomes."""
        op = event.op
        if op == "check":
            access = self._access(event)

            def run_cached_check() -> None:
                # Drop the stall: stall cycles are not compared, and
                # _run_side would read an int return as a gate target.
                self.pcu.check(access)

            cached = self._run_side(run_cached_check, True)
            oracle = self._run_side(lambda: self.oracle.check(access), False)
            return cached, oracle
        if op == "gate":
            return self._apply_gate(event)
        if op == "mem":
            cached = self._run_side(
                lambda: self.pcu.check_memory_access(event.address), True)
            oracle = self._run_side(
                lambda: self.oracle.check_memory_access(event.address), False)
            return cached, oracle
        if op == "pfch":
            self.pcu.prefetch(0 if event.csr < 0
                              else self.backend.csr_index(event.csr))
            return self._skip(True, "ok"), self._skip(False, "ok")
        if op == "pflh":
            self.pcu.flush(CacheId(event.cache))
            return self._skip(True, "ok"), self._skip(False, "ok")
        if op in ("save_ctx", "restore_ctx", "thread_stack"):
            return self._apply_context(event)
        return self._apply_reconfig(event)

    def _apply_context(self, event: Event) -> Tuple[Outcome, Outcome]:
        """Domain-0 thread-switch op on both trusted-stack models.

        A restore of an unknown context (its save or thread_stack event
        shrunk away, or the allocation skipped) degrades to an
        architectural no-op, like dead-target reconfigs.
        """
        op = event.op
        status = "ok"
        if op == "save_ctx":
            self.contexts[event.ctx] = (
                self.pcu.trusted_stack.save_context(),
                self.oracle.save_context(),
            )
        elif op == "restore_ctx":
            pair = self.contexts.pop(event.ctx, None)
            if pair is None:
                status = "skip"
            else:
                cached_ctx, oracle_ctx = pair
                self.pcu.trusted_stack.restore_context(cached_ctx)
                self.oracle.restore_context(oracle_ctx)
        else:  # thread_stack
            frames = self.stack_frames
            if self.trusted_memory.words_free < frames * 2:
                status = "skip"  # exhausted: no window on either side
            else:
                domain_id = self.slot_ids.get(event.domain)
                entry = None
                kwargs: Dict[str, int] = {}
                if domain_id not in (None, 0):
                    entry = (event.address, domain_id)
                    kwargs = {"entry_address": event.address,
                              "entry_domain": domain_id}
                context = self.manager.create_thread_stack(frames, **kwargs)
                self.contexts[event.ctx] = (
                    context,
                    self.oracle.create_thread_context(frames, entry),
                )
        return self._skip(True, status), self._skip(False, status)

    def _skip(self, pcu_side: bool, status: str = "skip") -> Outcome:
        return self._outcome(status, pcu_side)

    def _access(self, event: Event) -> AccessInfo:
        return AccessInfo(
            inst_class=self.backend.inst_class(event.inst),
            csr=None if event.csr < 0 else self.backend.csr_index(event.csr),
            csr_read=event.read,
            csr_write=event.write,
            write_value=event.value if event.write else None,
            old_value=event.old if event.write else None,
        )

    def _apply_gate(self, event: Event) -> Tuple[Outcome, Outcome]:
        kind = _GATE_KINDS[event.kind]
        pc = gate_address(event.gate)
        if not event.site_ok:
            pc += 8
        return_address = event.address

        def run_cached() -> int:
            target, _stall = self.pcu.execute_gate(kind, event.gate, pc,
                                                   return_address)
            return target

        cached = self._run_side(run_cached, True)
        oracle = self._run_side(
            lambda: self.oracle.execute_gate(kind, event.gate, pc,
                                             return_address),
            False)
        return cached, oracle

    def _apply_reconfig(self, event: Event) -> Tuple[Outcome, Outcome]:
        """Domain-0 management op on the shared tables (one application).

        Events whose abstract target is dead (possible after shrinking
        edits the stream) degrade to architectural no-ops so replay stays
        total.
        """
        op = event.op
        if op not in RECONFIG_OPS:
            # Checked before the target: an event is never an RPC into
            # arbitrary manager code, whichever slot it names.
            raise ValueError("unknown conformance event op %r" % op)
        backend = self.backend
        manager = self.manager
        domain_id = self.slot_ids.get(event.domain)
        status = "ok"
        if op == "create_domain":
            if domain_id is None:
                self._incarnation += 1
                self.slot_ids[event.domain] = manager.create_domain(
                    "slot%d.%d" % (event.domain, self._incarnation)).domain_id
            else:
                status = "skip"
        elif op == "destroy_domain":
            if domain_id is not None and domain_id != 0:
                manager.destroy_domain(domain_id)
                self.slot_ids[event.domain] = None
            else:
                status = "skip"
        elif op == "unregister_gate":
            manager.unregister_gate(event.gate)
        elif op == "register_gate":
            if domain_id is None:
                status = "skip"
            else:
                manager.register_gate(gate_address(event.gate),
                                      destination_address(event.gate),
                                      domain_id, gate_id=event.gate)
        elif domain_id is None or domain_id == 0:
            status = "skip"  # never reconfigure domain-0's privileges
        elif op == "allow_inst":
            manager.allow_instructions(domain_id,
                                       [backend.inst_name(event.inst)])
        elif op == "deny_inst":
            manager.deny_instruction(domain_id, backend.inst_name(event.inst))
        elif op == "grant_csr":
            if event.read or event.write:
                manager.grant_register(domain_id, backend.csr_name(event.csr),
                                       read=event.read, write=event.write)
            else:
                status = "skip"
        elif op == "revoke_csr":
            manager.revoke_register(domain_id, backend.csr_name(event.csr),
                                    read=event.read, write=event.write)
        elif op == "set_mask":
            manager.set_register_mask(
                domain_id, backend.csr_name(len(backend.csr_names) - 1),
                event.bits)
        elif op == "seal":
            if event.csr < 0:
                manager.seal_privileges(
                    domain_id, instructions=[backend.inst_name(event.inst)])
            elif event.read or event.write:
                manager.seal_privileges(
                    domain_id, csrs=[backend.csr_name(event.csr)],
                    read=event.read, write=event.write)
            else:
                status = "skip"
        return self._skip(True, status), self._skip(False, status)


class DifferentialRunner:
    """Replay / diff / shrink driver for one (backend, config) pair."""

    def __init__(
        self,
        backend_name: str,
        config: str = "stress",
        stack_frames: int = STACK_FRAMES,
        mutate: Optional[Callable[[PrivilegeCheckUnit], None]] = None,
        scrub_interval: int = 0,
    ):
        self.backend = make_backend(backend_name)
        self.config_name = config
        self.config = CONFORMANCE_CONFIGS[config]
        self.stack_frames = stack_frames
        self.mutate = mutate
        #: Events between integrity-scrub watchdog runs (0 = disabled).
        #: On a fault-free replay every scrub must come back clean; a
        #: detection here is itself a conformance failure.
        self.scrub_interval = scrub_interval
        self.outcomes: "Counter[str]" = Counter()
        self.scrubs_run = 0
        self.scrub_detections: List[str] = []

    def _world(self) -> ConformanceWorld:
        return ConformanceWorld(self.backend, self.config, self.stack_frames,
                                self.mutate)

    def replay(self, events: Sequence[Event],
               count_outcomes: bool = False,
               monitor=None) -> Optional[Divergence]:
        """Replay a stream; return the first divergence (or ``None``).

        ``monitor`` is an optional
        :class:`~repro.contracts.monitor.ContractMonitor`; it is
        attached to the freshly built world so every check, gate,
        trusted-memory store and reconfiguration of this replay is
        judged against the universal contracts (shrink replays run
        unmonitored — they re-execute a prefix the monitor already saw).
        """
        world = self._world()
        if monitor is not None:
            monitor.attach(world.pcu, world.manager)
        scrubber = None
        if self.scrub_interval:
            from repro.faults.scrub import IntegrityScrubber
            scrubber = IntegrityScrubber(world.pcu, world.manager)
        for index, event in enumerate(events):
            cached, oracle = world.apply(event)
            if count_outcomes:
                self.outcomes[oracle.status] += 1
            if cached != oracle:
                return Divergence(index, event, cached, oracle)
            if scrubber is not None and (index + 1) % self.scrub_interval == 0:
                report = scrubber.scrub(repair=False)
                self.scrubs_run += 1
                if report.detected:
                    self.scrub_detections.extend(report.cache_detections)
                    self.scrub_detections.extend(report.unrepairable)
                    if report.memory_repairs:
                        self.scrub_detections.append(
                            "%d corrupt trusted-memory word(s)"
                            % report.memory_repairs)
        return None

    # ------------------------------------------------------------------
    # Shrinking.
    # ------------------------------------------------------------------
    def shrink(self, events: Sequence[Event], divergence: Divergence,
               replay_budget: int = 400) -> List[Event]:
        """Delta-shrink to a (locally) minimal still-diverging stream."""
        needle: List[Event] = list(events[: divergence.index + 1])
        chunk = max(1, len(needle) // 2)
        while chunk >= 1 and replay_budget > 0:
            index = 0
            while index < len(needle) and replay_budget > 0:
                candidate = needle[:index] + needle[index + chunk:]
                replay_budget -= 1
                if candidate and self.replay(candidate) is not None:
                    needle = candidate
                else:
                    index += chunk
            if chunk == 1:
                break
            chunk //= 2
        return needle

    # ------------------------------------------------------------------
    # Reproducer dump.
    # ------------------------------------------------------------------
    def dump_reproducer(
        self,
        path: str,
        events: Sequence[Event],
        divergence: Divergence,
        seed: Optional[int] = None,
    ) -> None:
        manifest = {
            str(slot): {
                "instructions": sorted(entry["instructions"]),
                "csrs": sorted(entry["csrs"]),
                "mask": entry["mask"],
            }
            for slot, entry in self.backend.domain_manifest(events).items()
        }
        payload = {
            "format": "isagrid-conformance-repro-v1",
            "backend": self.backend.name,
            "config": self.config_name,
            "seed": seed,
            "stream_key": stream_key(list(events)),
            "divergence": {
                "index": divergence.index,
                "event": divergence.event.to_dict(),
                "cached": divergence.cached.to_dict(),
                "oracle": divergence.oracle.to_dict(),
            },
            "events": [event.to_dict() for event in events],
            "program": self.backend.render_program(events),
            "domain_manifest": manifest,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)


def load_reproducer(path: str) -> Tuple[str, str, List[Event]]:
    """Load a dumped reproducer; returns (backend, config, events)."""
    with open(path) as handle:
        payload = json.load(handle)
    events = [Event.from_dict(entry) for entry in payload["events"]]
    return payload["backend"], payload["config"], events


@dataclass
class ConformanceResult:
    """Result of one fuzzing run on one (backend, config) pair."""

    backend: str
    config: str
    events: int
    outcomes: Dict[str, int]
    divergence: Optional[Divergence] = None
    reproducer_path: Optional[str] = None
    #: Where the shrunk stream's contract trace landed (divergent runs
    #: with contracts on).  Deliberately NOT part of :meth:`summary` —
    #: the ``--jobs N`` byte-identity surface stays unchanged.
    contract_trace_path: Optional[str] = None
    scrub_detections: List[str] = None  # type: ignore[assignment]
    stream_key: Optional[str] = None
    #: Per-contract violation counts (None when monitoring was off).
    contract_counts: Optional[Dict[str, int]] = None
    contract_unwaived: int = 0
    contract_first: Optional[str] = None

    @property
    def clean(self) -> bool:
        return (self.divergence is None and not self.scrub_detections
                and not self.contract_unwaived)

    def summary(self) -> Dict[str, object]:
        """JSON-plain summary — the one shape both the serial CLI path
        and the orchestrator's shard payloads report through, so
        ``--jobs N`` output is line-identical with ``--jobs 1``."""
        return {
            "backend": self.backend,
            "config": self.config,
            "events": self.events,
            "outcomes": dict(self.outcomes),
            "clean": self.clean,
            "divergence": (self.divergence.describe()
                           if self.divergence is not None else None),
            "reproducer_path": self.reproducer_path,
            "scrub_detections": list(self.scrub_detections or []),
            "contracts": (dict(self.contract_counts)
                          if self.contract_counts is not None else None),
            "contract_unwaived": self.contract_unwaived,
            "contract_first": self.contract_first,
        }


def inject_cache_fill_bug(pcu: PrivilegeCheckUnit) -> None:
    """The seeded bug behind ``--inject-bug``: every instruction-bitmap
    cache fill flips the allow-bit of class 0.  The runner must catch it."""
    cache = pcu.hpt_cache.inst
    original = cache.fill
    cache.fill = lambda tag, payload: original(tag, payload ^ 1)


def fuzz_backend(
    backend_name: str,
    seed: int,
    count: int,
    config: str = "stress",
    mutate: Optional[Callable[[PrivilegeCheckUnit], None]] = None,
    dump_dir: Optional[str] = None,
    scrub_interval: int = 0,
    contracts: bool = True,
) -> ConformanceResult:
    """Generate a stream and differentially fuzz one backend.

    With ``contracts`` (the default) the replay runs under a
    :class:`~repro.contracts.monitor.ContractMonitor`; a fuzz run is
    only ``clean`` if, on top of zero divergences, it produced zero
    unwaived contract violations.
    """
    events = generate_events(seed, count)
    runner = DifferentialRunner(backend_name, config=config, mutate=mutate,
                                scrub_interval=scrub_interval)
    monitor = None
    if contracts:
        from repro.contracts import ContractMonitor
        monitor = ContractMonitor(seed=seed)
    divergence = runner.replay(events, count_outcomes=True, monitor=monitor)
    result = ConformanceResult(backend_name, config, len(events),
                               dict(runner.outcomes), divergence,
                               scrub_detections=list(runner.scrub_detections))
    if monitor is not None:
        result.contract_counts = monitor.counts()
        result.contract_unwaived = monitor.unwaived_violations
        first = monitor.first_unwaived()
        result.contract_first = None if first is None else first.describe()
    if divergence is not None:
        shrunk = runner.shrink(events, divergence)
        final = runner.replay(shrunk) or divergence
        # Dedup: rename slot ids to first-use order.  If the canonical
        # twin still reproduces (it almost always does — slot numbers are
        # arbitrary), dump *it*, so equal bugs from different seeds land
        # in byte-identical reproducer files.
        canonical = canonicalize_events(shrunk)
        canonical_divergence = runner.replay(canonical)
        if canonical_divergence is not None:
            shrunk, final = canonical, canonical_divergence
        result.divergence = final
        result.stream_key = stream_key(shrunk)
        if dump_dir is not None:
            path = "%s/conformance-repro-%s-%s-%s.json" % (
                dump_dir, backend_name, config, result.stream_key)
            runner.dump_reproducer(path, shrunk, final, seed=seed)
            result.reproducer_path = path
            if contracts:
                # Emit the ddmin-minimized divergence as a *contract
                # trace* too: one more replay of the shrunk stream under
                # a recording monitor, dumped in the corpus vocabulary so
                # the reproducer doubles as a replayable contract-layer
                # regression (no simulator needed to re-judge it).
                from repro.contracts import ContractMonitor
                trace_monitor = ContractMonitor(seed=seed, record=True)
                runner.replay(shrunk, monitor=trace_monitor)
                isa = runner.backend.isa_map
                trace_path = "%s/contract-trace-%s-%s-%s.json" % (
                    dump_dir, backend_name, config, result.stream_key)
                payload = {
                    "format": "isagrid-contract-trace-v1",
                    "backend": backend_name,
                    "config": config,
                    "seed": seed,
                    "stream_key": result.stream_key,
                    "divergence": final.describe(),
                    "geometry": {
                        "n_inst_classes": isa.n_inst_classes,
                        "n_csrs": isa.n_csrs,
                        "masked_csrs": [csr for csr in range(isa.n_csrs)
                                        if isa.mask_slot(csr) is not None],
                    },
                    "events": [event.to_dict()
                               for event in trace_monitor.recorded],
                }
                with open(trace_path, "w") as handle:
                    json.dump(payload, handle, indent=2)
                result.contract_trace_path = trace_path
    return result
