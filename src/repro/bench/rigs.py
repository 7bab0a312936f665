"""Benchmark rigs: the paper's evaluation workloads as timed units.

A *rig* is one self-contained slice of the evaluation — a Table-4/5
latency experiment or a Fig-5–8 workload sweep — packaged so the bench
runner (and the sharded orchestrator behind ``python -m repro bench``)
can execute it in isolation and report how much simulated work it did:

* ``instructions`` / ``cycles`` — total simulated work across every
  run the rig performs (both sides of each native-vs-protected pair);
* ``detail`` — the experiment's own numbers (per-op latencies,
  normalized times), so a trajectory file doubles as a coarse
  correctness record.

The Figure 5-8 and Table 4-5 rigs run the paper artifacts of
:mod:`repro.analysis.paper` at the scale their records use, so a rig
times exactly the computation behind the numbers EXPERIMENTS.md quotes.

Rigs take two parameters.  With ``fast_path=False`` every PCU in the
rig runs with the compiled verdict plan disabled
(:attr:`repro.core.config.PcuConfig.fast_path`), and with
``block_cache=False`` without the block-summary executor: the
``--slow-path`` and ``--no-block-cache`` escape hatches.  A rig must
produce identical ``instructions``, ``cycles`` and ``detail`` on every
path — only wall-clock may differ.  A rig whose own correctness check
fails raises :class:`RuntimeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from repro.core import CONFIG_8E, PcuConfig


@dataclass(frozen=True)
class BenchRig:
    """One orchestratable benchmark unit."""

    name: str
    description: str
    run: Callable[[bool, bool], Dict[str, object]]
    #: Rough dynamic instruction count, used as the shard weight so the
    #: orchestrator's metrics can report events/sec without running it.
    approx_instructions: int = 1_000_000


def _config(fast_path: bool, block_cache: bool = True) -> PcuConfig:
    if fast_path and block_cache:
        return CONFIG_8E
    return replace(CONFIG_8E, fast_path=fast_path, block_summaries=block_cache)


def _result(instructions: int, cycles: float, detail: Dict[str, object]):
    return {
        "instructions": int(instructions),
        "cycles": float(cycles),
        "detail": detail,
    }


# ----------------------------------------------------------------------
# Gate stress (the §7.1 hit-rate workload — the hot-path acceptance rig).
# ----------------------------------------------------------------------
def _run_gate_stress(fast_path: bool, block_cache: bool = True,
                     iterations: int = 300, max_steps: int = 20_000_000,
                     full_stats: bool = False) -> Dict[str, object]:
    import dataclasses

    from repro.kernel import X86Kernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=iterations)
    kernel = X86Kernel("decomposed", _config(fast_path, block_cache))
    stats = kernel.run(x86_user_program(profile), max_steps=max_steps)
    if kernel.fault_count:
        raise RuntimeError("gate stress: %d kernel fault(s)"
                           % kernel.fault_count)
    pcu = kernel.system.pcu
    hit_rates = pcu.stats.hit_rates()
    detail: Dict[str, object] = {
        "hit_rates": {name: round(rate, 6) for name, rate in hit_rates.items()},
        "syscalls": kernel.syscall_count,
    }
    if full_stats:
        # For identity-checking wrappers (smoke_blocks): the whole
        # counter surface, not just the headline hit rates.
        detail["pcu_stats"] = pcu.stats.as_dict()
        detail["block_stats"] = pcu.block_stats.as_dict()
    return _result(stats.instructions, stats.cycles, detail)


def _run_smoke(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    return _run_gate_stress(fast_path, block_cache, iterations=60,
                            max_steps=4_000_000)


def _run_smoke_blocks(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    """``smoke`` run twice: block executor on, then off, as one rig.

    The on-vs-off identity check (instructions, cycles and the
    whole :class:`~repro.core.stats.PcuStats` dict must match exactly)
    turns the block-summary coherence contract (DESIGN §3.18) into a
    trajectory row: a divergence fails the rig.  ``detail`` carries the
    block cache's own probe counters.  The rig's own ``block_cache``
    flag only affects the *first* run — under ``--no-block-cache``
    both runs take the per-instruction loop and the check still
    holds trivially.
    """
    on = _run_gate_stress(fast_path, block_cache, iterations=60,
                          max_steps=4_000_000, full_stats=True)
    off = _run_gate_stress(fast_path, False, iterations=60,
                           max_steps=4_000_000, full_stats=True)
    for key in ("instructions", "cycles"):
        if on[key] != off[key]:
            raise RuntimeError("smoke_blocks: %s %r with blocks on, %r with "
                               "blocks off" % (key, on[key], off[key]))
    if on["detail"]["pcu_stats"] != off["detail"]["pcu_stats"]:
        raise RuntimeError("smoke_blocks: PcuStats differ with blocks on "
                           "and off")
    block_stats = on["detail"].pop("block_stats")
    off_blocks = off["detail"].pop("block_stats")
    if off_blocks["insts"]:
        raise RuntimeError("smoke_blocks: %d instructions retired in blocks "
                           "with blocks off" % off_blocks["insts"])
    on["detail"].pop("pcu_stats")
    off["detail"].pop("pcu_stats")
    if on["detail"] != off["detail"]:
        raise RuntimeError("smoke_blocks: detail %r with blocks on, %r with "
                           "blocks off" % (on["detail"], off["detail"]))
    return _result(on["instructions"] + off["instructions"],
                   on["cycles"] + off["cycles"], {
        "verified_identical": True,
        "block_stats": block_stats,
        "hit_rates": on["detail"]["hit_rates"],
    })


def _run_smoke_contracts(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
    """``smoke`` with the universal-contract monitor attached.

    The contract tap (see DESIGN §3.16) must be invisible when armed on
    a healthy run: zero violations, and ``instructions``/``cycles``/
    hit-rates identical to the unmonitored ``smoke`` rig.  Blocks run
    under the armed tap, each narrated as one ``block`` event, so this
    rig contract-checks the block executor, the path ``smoke`` runs:
    ``detail`` reports the share of instructions retired in blocks
    (``block_coverage``) next to the event count, and how many of those
    events the monitor's clean-verdict memo served without calling a
    contract (``contract_memo_hits``).
    """
    import dataclasses

    from repro.contracts import ContractMonitor
    from repro.kernel import X86Kernel
    from repro.workloads import GATE_STRESS
    from repro.workloads.generator import x86_user_program

    profile = dataclasses.replace(GATE_STRESS, outer_iterations=60)
    kernel = X86Kernel("decomposed", _config(fast_path, block_cache))
    monitor = ContractMonitor(seed=0)
    monitor.attach(kernel.system.pcu, kernel.system.manager)
    stats = kernel.run(x86_user_program(profile), max_steps=4_000_000)
    if kernel.fault_count:
        raise RuntimeError("smoke_contracts: %d kernel fault(s)"
                           % kernel.fault_count)
    if monitor.total_violations:
        raise RuntimeError("smoke_contracts: %d contract violation(s), "
                           "first %r" % (monitor.total_violations,
                                         monitor.first_unwaived()))
    hit_rates = kernel.system.pcu.stats.hit_rates()
    return _result(stats.instructions, stats.cycles, {
        "hit_rates": {name: round(rate, 6) for name, rate in hit_rates.items()},
        "syscalls": kernel.syscall_count,
        "contract_events": monitor.events_seen,
        "contract_memo_hits": monitor.memo_hits,
        "block_coverage": round(kernel.system.pcu.block_stats.coverage, 6),
        "contract_counts": monitor.counts(),
    })


# ----------------------------------------------------------------------
# Tenant churn: domain-ID virtualization under eviction pressure.
# ----------------------------------------------------------------------
def _run_churn_stress(fast_path: bool, block_cache: bool = True,
                      n_ops: int = 900,
                      max_slots: int = 24) -> Dict[str, object]:
    """Fault-free churn stream over a deliberately small slot pool.

    ``block_cache`` is accepted for signature uniformity but has no
    effect: the churn world drives ``pcu.check`` directly with no
    Machine run loop, so the block executor never engages.

    Times the virtualization layer where it hurts: constant eviction,
    recycle and rebind traffic interleaved with live gate/check pairs.
    ``detail`` carries the p50/p99 check-stall tail — the
    generation-guard and refill costs the virtualizer adds to the check
    path — plus the lifecycle counters, so a trajectory row doubles as
    a coarse churn-correctness record.  Simulated work (checks, pairs,
    stall cycles) must be fast/slow-path identical; only wall-clock and
    ips may move.
    """
    from repro.conformance.events import N_CSR_SLOTS, N_INST_SLOTS
    from repro.conformance.generator import make_backend
    from repro.faults.churn import ChurnWorld, latency_percentiles
    from repro.workloads import generate_churn_ops

    world = ChurnWorld(make_backend("x86"), max_slots=max_slots,
                       config="stress", fast_path=fast_path)
    trace = generate_churn_ops(0, n_ops, N_INST_SLOTS, N_CSR_SLOTS)
    pairs = 0
    for index, op in enumerate(trace.ops):
        for cached, oracle in world.apply(op, index):
            if cached != oracle:
                raise RuntimeError("churn_stress: op %d: cached PCU %r, "
                                   "oracle %r" % (index, cached, oracle))
            pairs += 1
    stall_cycles = sum(stall * count for stall, count in world.latency.items())
    stats = world.virtualizer.stats
    return _result(world.checks_run, stall_cycles, {
        "pairs": pairs,
        "latency": latency_percentiles(dict(world.latency)),
        "spawned": stats.spawned,
        "retired": stats.retired,
        "recycles": stats.recycles,
        "evictions": stats.evictions,
        "slot_exhausted": stats.slot_exhausted,
        "backpressured": world.backpressured,
    })


# ----------------------------------------------------------------------
# Figures 5-8 and Tables 4-5: the paper artifacts themselves.
# ----------------------------------------------------------------------
def _artifact(name: str) -> Callable[[bool, bool], Dict[str, object]]:
    """A rig that runs paper artifact ``name`` (:mod:`repro.analysis.paper`)
    under the rig's config: its totals are the rig's work, its rows the
    ``detail``, and a failed shape check fails the rig."""

    def run(fast_path: bool, block_cache: bool = True) -> Dict[str, object]:
        from repro.analysis.paper import ARTIFACTS

        result = ARTIFACTS[name](_config(fast_path, block_cache))
        if result.failed:
            raise RuntimeError("%s: failed checks: %s"
                               % (name, "; ".join(result.failed)))
        return _result(result.instructions, result.cycles, result.rows())

    return run


#: Registry of every rig the bench CLI knows, in canonical order.
RIGS: Dict[str, BenchRig] = {
    rig.name: rig
    for rig in (
        BenchRig("smoke", "short gate-stress loop (CI smoke rig)",
                 _run_smoke, approx_instructions=200_000),
        BenchRig("smoke_contracts",
                 "smoke with the universal-contract monitor attached "
                 "(simulated work identical to smoke)",
                 _run_smoke_contracts, approx_instructions=200_000),
        BenchRig("smoke_blocks",
                 "smoke with the block-summary executor on vs off, "
                 "requiring bit-identical work (DESIGN §3.18 gate)",
                 _run_smoke_blocks, approx_instructions=400_000),
        BenchRig("gate_stress", "§7.1 privilege-cache stress workload",
                 _run_gate_stress, approx_instructions=1_000_000),
        BenchRig("churn_stress",
                 "tenant churn over a small slot pool (virtualizer "
                 "eviction/recycle path; p50/p99 check-stall tail)",
                 _run_churn_stress, approx_instructions=10_000),
        BenchRig("fig5_riscv", "Figure 5: LMbench microbenchmarks, RISC-V",
                 _artifact("fig5"), approx_instructions=2_600_000),
        BenchRig("fig6_apps_riscv", "Figure 6: application profiles, RISC-V",
                 _artifact("fig6"), approx_instructions=1_900_000),
        BenchRig("fig7_apps_x86", "Figure 7: application profiles, x86",
                 _artifact("fig7"), approx_instructions=4_000_000),
        BenchRig("fig8_nested", "Figure 8: Nested-Kernel monitor variants, x86",
                 _artifact("fig8"), approx_instructions=5_900_000),
        BenchRig("table4_switch", "Table 4: domain-switch latencies",
                 _artifact("table4"), approx_instructions=94_000),
        BenchRig("table5_services", "Table 5: ioctl service latencies, x86",
                 _artifact("table5"), approx_instructions=350_000),
    )
}

#: What ``python -m repro bench`` runs by default: the full evaluation
#: suite.  The smoke rigs are opt-in (CI's bench-smoke job runs them).
DEFAULT_RIGS: Sequence[str] = (
    "gate_stress", "fig5_riscv", "fig6_apps_riscv", "fig7_apps_x86",
    "fig8_nested", "table4_switch", "table5_services",
)


def resolve_rigs(names: str = None) -> List[str]:
    """Expand a ``--rigs`` argument into an ordered, validated list.

    Raises :class:`KeyError` for an unknown name and :class:`ValueError`
    for a repeated name or a list that names no rig; the exception's
    one argument is a one-line message.
    """
    if not names or names == "default":
        return list(DEFAULT_RIGS)
    if names == "all":
        return list(RIGS)
    chosen = [name.strip() for name in names.split(",") if name.strip()]
    unknown = [name for name in chosen if name not in RIGS]
    if unknown:
        raise KeyError("unknown rig(s) %s (choose from %s)"
                       % (", ".join(unknown), ", ".join(RIGS)))
    if not chosen:
        raise ValueError("--rigs %r names no rig (choose from %s)"
                         % (names, ", ".join(RIGS)))
    repeated = sorted({name for name in chosen if chosen.count(name) > 1})
    if repeated:
        raise ValueError("rig(s) %s named more than once in --rigs"
                         % ", ".join(repeated))
    return chosen


def run_rig(name: str, fast_path: bool = True,
            block_cache: bool = True) -> Dict[str, object]:
    """Execute one rig and wrap it with wall-clock accounting.

    The returned payload is the per-rig record of the trajectory file:
    simulated work (``instructions``/``cycles``), the rig's ``detail``,
    host wall-clock (``wall_s``) and the throughput quotient (``ips``).
    The last two are for reading only; the ``perf/`` benchmark measures
    speed.
    """
    import time

    rig = RIGS[name]
    started = time.perf_counter()
    out = rig.run(fast_path, block_cache)
    wall = time.perf_counter() - started
    return {
        "rig": name,
        "fast_path": bool(fast_path),
        "block_cache": bool(block_cache),
        "instructions": out["instructions"],
        "cycles": round(out["cycles"], 1),
        "wall_s": round(wall, 3),
        "ips": round(out["instructions"] / wall, 1) if wall > 0 else 0.0,
        "detail": out["detail"],
    }
