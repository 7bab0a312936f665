"""Machine-level fault campaigns: faults under a *running* kernel.

The abstract campaigns (:mod:`repro.faults.campaign`) replay generated
domain-0 event streams; this module injects the same fault vocabulary
under the PR-4 fetch-execute loop instead.  One campaign boots a
decomposed MiniKernel (RISC-V or x86), runs a gate-heavy user workload
through :meth:`repro.sim.machine.Machine.run`, and drives three things
against it:

* a **lockstep oracle** — the PCU's ``check`` / ``execute_gate`` /
  ``check_memory_access`` entry points are wrapped so every call the
  *CPU* makes is mirrored into a cache-free
  :class:`~repro.conformance.oracle.OraclePcu` sharing the same
  HPT/SGT/trusted memory, and the first disagreement (fault class,
  gate target, or post-gate domain/stack state) stops the machine;
* **reconfiguration pulses** — periodic domain-0 transactions (gate
  re-registration, instruction/CSR toggle pairs, mask rewrites) run
  while the machine is paused between instructions.  Each pulse is
  state-neutral when it commits, so pulses only change behaviour when
  a fault lands inside one — which is exactly what the commit-window
  fault kinds arm for;
* the **integrity-scrub watchdog** and a final audit, run by the
  :class:`~repro.faults.session.FaultSession` every campaign shares.

Triggers are machine-level: a fault fires at a retired-instruction
count (``inst``), a simulated-cycle count (``cycle``), or a pulse index
(``event``, the analogue of the abstract campaigns' event index).  The
commit-window kinds (``commit_store_fault``, ``commit_flip_journalled``)
use their trigger as the *arming* point and fire on the Nth journalled
store inside a later ``DomainManager`` transaction, exercising
``abort_transaction``'s newest-first replay directly.

Classification is the session's four-way split.  Two machine-specific
notes: a campaign whose workload exhausts its instruction budget
without halting counts as a *watchdog* detection (the liveness monitor
halts the core), and injected store faults that fire outside any
transaction are tallied as ``escaped_faults`` — they are not detections
and must earn their classification from the lockstep diff and the
audit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.generator import make_backend
from repro.conformance.oracle import OraclePcu
from repro.core import CONFIG_8E
from repro.core.errors import PrivilegeFault
from repro.core.trusted_memory import WORD_BYTES

from .injector import FaultInjector
from .plan import FaultPlan, FaultSpec
from .session import FaultMatrix, FaultRecord, FaultSession

#: Backends a machine campaign can target.
MACHINE_BACKENDS = ("riscv", "x86")

#: Default workload size (GATE_STRESS outer iterations) per campaign.
DEFAULT_MACHINE_ITERATIONS = 12

#: Nominal reconfiguration pulses across one campaign run.
PULSES_PER_RUN = 16

#: The liveness watchdog's instruction budget, in multiples of the
#: workload's estimated length (plus a fixed 100k headroom): a campaign
#: still running past it is halted as a watchdog detection.
WATCHDOG_FACTOR = 4

#: Measured boot + per-iteration dynamic instruction counts of the
#: machine-campaign workload (GATE_STRESS), per backend.  These only
#: size the trigger windows and pulse cadence — a drift of +-30% from
#: future kernel changes is harmless, because triggers are drawn from
#: the middle half of the estimated run and the step budget is
#: ``WATCHDOG_FACTOR`` times the estimate.
_BOOT_INSTRUCTIONS = {"riscv": 57, "x86": 57}
_PER_ITERATION_INSTRUCTIONS = {"riscv": 3180, "x86": 3186}


@dataclass(frozen=True)
class MachineGeometry:
    """Derived campaign timing parameters (a pure function of inputs).

    Every shard, in-process or in a worker, derives specs from this
    geometry, so it must depend only on the backend name and the
    explicit knobs — never on anything measured at run time.
    """

    n_steps: int          # estimated boot-to-halt instruction count
    budget: int           # hard instruction budget (liveness watchdog)
    pulse_interval: int   # instructions between reconfiguration pulses
    scrub_interval: int   # instructions between watchdog scrubs
    n_pulses: int         # nominal pulse count (event-trigger range)


def machine_geometry(
    backend_name: str,
    iterations: int = DEFAULT_MACHINE_ITERATIONS,
    scrub_interval: Optional[int] = None,
    pulse_interval: Optional[int] = None,
) -> MachineGeometry:
    n_steps = (_BOOT_INSTRUCTIONS[backend_name]
               + iterations * _PER_ITERATION_INSTRUCTIONS[backend_name])
    if pulse_interval is None:
        pulse_interval = max(500, n_steps // PULSES_PER_RUN)
    if scrub_interval is None:
        scrub_interval = max(2 * pulse_interval, n_steps // 4)
    return MachineGeometry(
        n_steps=n_steps,
        budget=WATCHDOG_FACTOR * n_steps + 100_000,
        pulse_interval=pulse_interval,
        scrub_interval=scrub_interval,
        n_pulses=max(1, n_steps // pulse_interval),
    )


def _build_kernel(backend_name: str):
    if backend_name == "riscv":
        from repro.kernel import RiscvKernel
        return RiscvKernel("decomposed", CONFIG_8E)
    if backend_name == "x86":
        from repro.kernel import X86Kernel
        return X86Kernel("decomposed", CONFIG_8E)
    raise ValueError("unknown machine backend %r" % backend_name)


def _workload(backend_name: str, iterations: int):
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import riscv_user_program, x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=iterations)
    if backend_name == "riscv":
        return riscv_user_program(profile)
    return x86_user_program(profile)


class MachineWorld:
    """Duck-typed ConformanceWorld stand-in over a booted kernel.

    :class:`~repro.faults.injector.FaultInjector` needs ``pcu``,
    ``manager``, ``backend`` and ``slot_ids``; here the abstract domain
    slots resolve to the kernel's real module domains (slot 0 is always
    domain-0, slots 1..N the live domains in id order).
    """

    def __init__(self, kernel, backend_name: str):
        self.kernel = kernel
        self.backend_name = backend_name
        self.pcu = kernel.system.pcu
        self.manager = kernel.system.manager
        self.backend = make_backend(backend_name)
        self.trusted_memory = self.pcu.trusted_memory
        self.slot_ids: Dict[int, Optional[int]] = {0: 0}
        for index, domain_id in enumerate(
                sorted(d for d in self.manager.domains if d != 0)):
            self.slot_ids[index + 1] = domain_id


class LockstepMonitor:
    """Mirror every CPU-originated PCU call into a cache-free oracle.

    Installed by shadowing the PCU's bound methods with instance
    attributes — the CPUs look the methods up per call, so no core code
    changes — and by clearing the PCU's ``_block_capable`` flag, so no
    block probe compresses the per-instruction ``check`` calls away
    while it is installed.  The real PCU always runs *first*; an
    :class:`InjectedFault` from it propagates before the oracle is
    consulted, so both sides agree the instruction never executed and a
    retry stays in lockstep (the injected faults are one-shot).

    Only the first divergence is recorded: once the two models disagree
    their downstream states are incomparable, and the campaign driver
    stops the machine at the next step anyway.
    """

    def __init__(self, pcu, oracle: OraclePcu, stats):
        self.pcu = pcu
        self.oracle = oracle
        self.stats = stats
        self.divergence: Optional[str] = None
        self.divergence_instruction: Optional[int] = None
        self.checks = 0

    # -- lifecycle ------------------------------------------------------
    def install(self) -> None:
        pcu = self.pcu
        self._real_check = pcu.check
        self._real_gate = pcu.execute_gate
        self._real_mem = pcu.check_memory_access
        pcu.check = self._check
        pcu.execute_gate = self._execute_gate
        pcu.check_memory_access = self._check_memory_access
        self._block_capable = pcu._block_capable
        pcu._block_capable = False

    def uninstall(self) -> None:
        for name in ("check", "execute_gate", "check_memory_access"):
            self.pcu.__dict__.pop(name, None)
        self.pcu._block_capable = self._block_capable

    # -- helpers --------------------------------------------------------
    def _diverge(self, description: str) -> None:
        if self.divergence is None:
            self.divergence = description
            self.divergence_instruction = self.stats.instructions

    @staticmethod
    def _fault_name(fault) -> Optional[str]:
        return None if fault is None else type(fault).__name__

    # -- wrapped entry points ------------------------------------------
    def _check(self, access):
        self.checks += 1
        stall = 0
        real_fault = None
        try:
            stall = self._real_check(access)
        except PrivilegeFault as fault:
            real_fault = fault
        oracle_fault = None
        try:
            self.oracle.check(access)
        except PrivilegeFault as fault:
            oracle_fault = fault
        if self._fault_name(real_fault) != self._fault_name(oracle_fault):
            self._diverge(
                "check(class %d @0x%x): pcu=%s oracle=%s"
                % (access.inst_class, access.address,
                   self._fault_name(real_fault),
                   self._fault_name(oracle_fault)))
        if real_fault is not None:
            raise real_fault
        return stall

    def _execute_gate(self, kind, gate_id, pc, return_address=None):
        self.checks += 1
        target = stall = 0
        real_fault = None
        try:
            target, stall = self._real_gate(
                kind, gate_id, pc, return_address=return_address)
        except PrivilegeFault as fault:
            real_fault = fault
        oracle_fault = None
        oracle_target = None
        try:
            oracle_target = self.oracle.execute_gate(
                kind, gate_id, pc, return_address)
        except PrivilegeFault as fault:
            oracle_fault = fault
        pcu, oracle = self.pcu, self.oracle
        if self._fault_name(real_fault) != self._fault_name(oracle_fault):
            self._diverge(
                "%s(gate %d @0x%x): pcu=%s oracle=%s"
                % (kind.name.lower(), gate_id, pc,
                   self._fault_name(real_fault),
                   self._fault_name(oracle_fault)))
        elif real_fault is None:
            if target != oracle_target:
                self._diverge(
                    "%s(gate %d @0x%x): target pcu=0x%x oracle=0x%x"
                    % (kind.name.lower(), gate_id, pc, target, oracle_target))
            elif (pcu.current_domain != oracle.domain
                  or pcu.previous_domain != oracle.pdomain
                  or pcu.trusted_stack.depth != oracle.depth):
                self._diverge(
                    "%s(gate %d @0x%x): post state pcu=(d%d,p%d,depth %d) "
                    "oracle=(d%d,p%d,depth %d)"
                    % (kind.name.lower(), gate_id, pc,
                       pcu.current_domain, pcu.previous_domain,
                       pcu.trusted_stack.depth,
                       oracle.domain, oracle.pdomain, oracle.depth))
        if real_fault is not None:
            raise real_fault
        return target, stall

    def _check_memory_access(self, address, pc=0, size=1):
        real_fault = None
        try:
            self._real_mem(address, pc, size)
        except PrivilegeFault as fault:
            real_fault = fault
        oracle_fault = None
        try:
            self.oracle.check_memory_access(address, pc, size)
        except PrivilegeFault as fault:
            oracle_fault = fault
        if self._fault_name(real_fault) != self._fault_name(oracle_fault):
            self._diverge(
                "check_memory_access(0x%x @0x%x): pcu=%s oracle=%s"
                % (address, pc, self._fault_name(real_fault),
                   self._fault_name(oracle_fault)))
        if real_fault is not None:
            raise real_fault


class ReconfigPulser:
    """Domain-0 transactions fired between instructions.

    By default every pulse is *state-neutral* — it commits back to the
    configuration it started from: gate re-registration of the same
    triple, a deny/re-allow instruction pair, a revoke/re-grant CSR
    read pair, or rewriting a bit mask to its current value.  The point
    is the *commit windows* they open — journalled trusted-memory
    stores for the commit-window fault kinds to land in — plus the
    coherence sweeps they trigger (the surface the ``drop_invalidate``
    kind needs).

    With ``state_changing`` the pulse rotation additionally spawns and
    retires short-lived *scratch domains* (create + grant, then
    destroy), so the commit windows genuinely move the table state the
    workload's live checks run against — multi-tenant churn in
    miniature — instead of always netting out to a no-op.  The flag
    defaults off so existing campaign reports stay byte-identical.

    The kernel domain (where the user workload executes) is never the
    toggle target: an aborted pulse may legitimately leave a deny
    standing, and stranding the *workload's own* domain without its
    basic classes would turn every campaign into a fault storm.
    Stranding a module domain instead is survivable — the kernel's
    fault handler skips, which is itself interesting campaign surface.
    """

    OPS = ("gate_rewrite", "inst_toggle", "csr_toggle", "mask_rewrite")
    STATE_CHANGING_OPS = OPS + ("scratch_spawn", "scratch_retire")

    #: Scratch-domain population cap under ``state_changing`` — enough
    #: to keep churn alive, bounded so long runs never exhaust the
    #: domain-id space.
    MAX_SCRATCH = 4

    def __init__(self, manager, protected_domain: Optional[int], seed: int,
                 state_changing: bool = False):
        import random

        self.manager = manager
        self.protected = protected_domain
        self.rng = random.Random(0x9C1 ^ seed)
        self.pulses_run = 0
        self.state_changing = state_changing
        self.ops = self.STATE_CHANGING_OPS if state_changing else self.OPS
        self._scratch: List[int] = []
        self._scratch_seq = 0

    def _toggle_domains(self) -> List[int]:
        return sorted(d for d in self.manager.domains
                      if d != 0 and d != self.protected)

    def pulse(self) -> None:
        op = self.ops[self.pulses_run % len(self.ops)]
        self.pulses_run += 1
        getattr(self, "_" + op)()

    def _scratch_spawn(self) -> None:
        from repro.core.errors import ConfigurationError

        if len(self._scratch) >= self.MAX_SCRATCH:
            return self._scratch_retire()
        try:
            descriptor = self.manager.create_domain(
                "pulse-scratch%d" % self._scratch_seq)
        except ConfigurationError:
            return  # out of domain ids: stop spawning, keep retiring
        self._scratch_seq += 1
        self._scratch.append(descriptor.domain_id)
        # Grant the newcomer a class some live domain really holds, so
        # the spawn writes genuine HPT state (not an all-zero row).
        for domain in self._toggle_domains():
            if domain in self._scratch:
                continue
            classes = sorted(self.manager.domains[domain].instructions)
            if classes:
                self.manager.allow_instructions(
                    descriptor.domain_id,
                    (classes[self.rng.randrange(len(classes))],))
                return

    def _scratch_retire(self) -> None:
        if self._scratch:
            self.manager.destroy_domain(self._scratch.pop(0))

    def _gate_rewrite(self) -> None:
        gates = sorted(self.manager.gates)
        if not gates:
            return
        gate_id = gates[self.rng.randrange(len(gates))]
        entry = self.manager.gates[gate_id]
        self.manager.register_gate(
            entry.gate_address, entry.destination_address,
            entry.destination_domain, gate_id=gate_id)

    def _inst_toggle(self) -> None:
        for domain in self._pick_order():
            classes = sorted(self.manager.domains[domain].instructions)
            if not classes:
                continue
            name = classes[self.rng.randrange(len(classes))]
            self.manager.deny_instruction(domain, name)
            self.manager.allow_instructions(domain, (name,))
            return

    def _csr_toggle(self) -> None:
        for domain in self._pick_order():
            csrs = sorted(self.manager.domains[domain].readable_csrs)
            if not csrs:
                continue
            name = csrs[self.rng.randrange(len(csrs))]
            self.manager.revoke_register(domain, name, read=True)
            self.manager.grant_register(domain, name, read=True)
            return

    def _mask_rewrite(self) -> None:
        candidates = self._toggle_domains()
        if self.protected is not None:
            candidates.append(self.protected)  # masks are rewrite-safe
        for domain in candidates:
            grants = sorted(self.manager.domains[domain].bit_grants.items())
            if not grants:
                continue
            name, mask = grants[self.rng.randrange(len(grants))]
            self.manager.set_register_mask(domain, name, mask)
            return

    def _pick_order(self) -> List[int]:
        domains = self._toggle_domains()
        self.rng.shuffle(domains)
        return domains


@dataclass
class MachineCampaignResult(FaultRecord):
    """Outcome of one machine-level fault campaign."""

    campaign: int
    backend: str
    spec: FaultSpec
    extra_specs: List[FaultSpec]
    classification: str
    instructions: int
    cycles: float
    fired: bool
    detail: str
    pulses_run: int
    divergence: Optional[str]
    divergence_instruction: Optional[int]
    detections: List[str]
    rollbacks: int
    escaped_faults: int
    scrub_repairs: int
    degraded_entries: int
    #: DomainManager transactions (committed + rolled back) during the
    #: run, and trusted-memory stores journalled inside them — the
    #: surface the commit-window fault kinds aim at.
    commit_windows: int
    journalled_stores: int
    workload_halted: bool
    kernel_faults: int
    syscalls: int
    lockstep_checks: int
    contract_violations: int
    unwaived_contract_violations: int
    contract_counts: Dict[str, int]


class _StopGate:
    """Mutable stop thresholds the per-step hook reads."""

    __slots__ = ("inst", "cycle")

    def __init__(self):
        self.inst = float("inf")
        self.cycle = float("inf")


def run_machine_campaign(
    backend_name: str,
    specs: Sequence[FaultSpec],
    campaign: int = 0,
    *,
    pulse_seed: int = 0,
    iterations: int = DEFAULT_MACHINE_ITERATIONS,
    scrub_interval: Optional[int] = None,
    pulse_interval: Optional[int] = None,
    contracts: bool = True,
    state_changing_pulses: bool = False,
) -> MachineCampaignResult:
    """Run one faulted kernel workload in lockstep and classify it."""
    if not specs:
        raise ValueError("a machine campaign needs at least one FaultSpec")
    geometry = machine_geometry(backend_name, iterations,
                                scrub_interval, pulse_interval)
    kernel = _build_kernel(backend_name)
    world = MachineWorld(kernel, backend_name)
    # The session is built after boot: the kernel's own domain
    # configuration is never the fault target, the running campaign is,
    # and the contract monitor seeds its shadows from the kernel's
    # committed domain/gate configuration.  The contract taps are inline
    # in the PCU class methods, so the lockstep monitor's instance-level
    # shadowing below still routes every check through them.
    session = FaultSession(world, specs, contracts=contracts,
                           seed=pulse_seed, campaign=campaign)

    pcu = world.pcu
    trusted_memory = world.trusted_memory
    registers = pcu.registers
    frames = (registers.hcsl - registers.hcsb) // (2 * WORD_BYTES)
    machine = kernel.system.machine
    stats = machine.stats
    oracle = OraclePcu(pcu.isa_map, pcu.hpt, pcu.sgt, trusted_memory,
                       stack_frames=frames)
    monitor = LockstepMonitor(pcu, oracle, stats)
    monitor.install()
    pulser = ReconfigPulser(world.manager,
                            world.kernel.domains.get("kernel"),
                            seed=pulse_seed,
                            state_changing=state_changing_pulses)

    base_commits = (world.manager.transactions_committed
                    + world.manager.transactions_rolled_back)
    base_journalled = trusted_memory.journalled_stores_total
    base_faults = kernel.fault_count

    # Trigger bookkeeping: event triggers key on the pulse index, the
    # others fire at the first pause point past their threshold.
    event_pending: Dict[int, List[FaultInjector]] = {}
    inst_pending: List[Tuple[int, FaultInjector]] = []
    cycle_pending: List[Tuple[int, FaultInjector]] = []
    for injector in session.injectors:
        spec = injector.spec
        if spec.trigger_kind == "inst":
            inst_pending.append((spec.trigger, injector))
        elif spec.trigger_kind == "cycle":
            cycle_pending.append((spec.trigger, injector))
        else:
            event_pending.setdefault(spec.trigger, []).append(injector)

    kernel.load_user(_workload(backend_name, iterations))
    kernel.cpu.pc = kernel.symbol("boot")
    gate = _StopGate()

    def hook(_info, stats=stats, gate=gate, monitor=monitor) -> bool:
        return (stats.instructions >= gate.inst
                or stats.cycles >= gate.cycle
                or monitor.divergence is not None)

    machine.step_hook = hook

    next_pulse = geometry.pulse_interval
    next_scrub = geometry.scrub_interval
    pulse_index = 0
    budget = geometry.budget
    while True:
        gate.inst = min([next_pulse, next_scrub, budget]
                        + [t for t, _ in inst_pending])
        gate.cycle = min((t for t, _ in cycle_pending), default=float("inf"))
        if session.run(machine.run,
                       max_steps=max(1, budget - stats.instructions),
                       require_halt=False) is None:
            # The faulted instruction never retired; the fault is
            # one-shot, so resuming retries it cleanly on both sides.
            continue
        if stats.halted or monitor.divergence is not None:
            break
        if stats.instructions >= budget:
            session.halt(
                "WATCHDOG: no halt after %d instructions (budget %dx nominal)"
                % (stats.instructions, WATCHDOG_FACTOR))
            break
        for threshold, injector in list(inst_pending):
            if stats.instructions >= threshold:
                injector.fire()
                inst_pending.remove((threshold, injector))
        for threshold, injector in list(cycle_pending):
            if stats.cycles >= threshold:
                injector.fire()
                cycle_pending.remove((threshold, injector))
        if stats.instructions >= next_pulse:
            for injector in event_pending.pop(pulse_index, ()):
                injector.fire()
            session.run(pulser.pulse)
            pulse_index += 1
            next_pulse += geometry.pulse_interval
        if stats.instructions >= next_scrub:
            next_scrub += geometry.scrub_interval
            if session.scrub().unrepairable:
                break

    machine.step_hook = None
    shared = session.finish(monitor.divergence is not None)
    return MachineCampaignResult(
        backend=backend_name,
        instructions=stats.instructions,
        cycles=round(stats.cycles, 3),
        pulses_run=pulser.pulses_run,
        divergence=monitor.divergence,
        divergence_instruction=monitor.divergence_instruction,
        degraded_entries=pcu.stats.degraded_entries,
        commit_windows=(world.manager.transactions_committed
                        + world.manager.transactions_rolled_back
                        - base_commits),
        journalled_stores=(trusted_memory.journalled_stores_total
                           - base_journalled),
        workload_halted=stats.halted,
        kernel_faults=kernel.fault_count - base_faults,
        syscalls=kernel.syscall_count,
        lockstep_checks=monitor.checks,
        **shared,
    )


def run_planned_machine_campaign(
    backend_name: str,
    seed: int,
    campaign: int,
    *,
    iterations: int = DEFAULT_MACHINE_ITERATIONS,
    faults_per_campaign: int = 1,
    scrub_interval: Optional[int] = None,
    pulse_interval: Optional[int] = None,
    contracts: bool = True,
    state_changing_pulses: bool = False,
) -> MachineCampaignResult:
    """Draw campaign ``campaign``'s specs from the plan and run it.

    This is the unit the orchestrator's shard runner calls, in-process
    or in a worker: specs come from :meth:`FaultPlan.draw_machine_specs`
    (a per-campaign RNG, so workers need not replay earlier campaigns)
    and every derived parameter is a pure function of the arguments —
    the foundation of the ``--jobs N`` byte-identity contract.
    """
    geometry = machine_geometry(backend_name, iterations,
                                scrub_interval, pulse_interval)
    specs = FaultPlan(seed).draw_machine_specs(
        campaign, geometry.n_steps, geometry.n_pulses, faults_per_campaign)
    return run_machine_campaign(
        backend_name, specs, campaign,
        pulse_seed=seed * 1_000_003 + campaign,
        iterations=iterations,
        scrub_interval=scrub_interval,
        pulse_interval=pulse_interval,
        contracts=contracts,
        state_changing_pulses=state_changing_pulses,
    )


@dataclass
class MachineCampaignMatrix(FaultMatrix):
    """All machine campaigns of one backend."""

    backend: str
    seed: int
    iterations: int
    results: List[MachineCampaignResult]

    FORMAT = "isagrid-machine-fault-campaign-v1"

    def _totals(self) -> Dict[str, object]:
        return {"reconfig_rollbacks": self.rollbacks, **super()._totals()}

    @classmethod
    def _report_lead(cls, matrices) -> Dict[str, object]:
        return {"reconfig_rollbacks": sum(m.rollbacks for m in matrices)}
