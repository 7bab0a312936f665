"""The tap must be invisible: monitored == unmonitored, fast == slow.

The contract tap sits inside ``PrivilegeCheckUnit.check``/
``execute_gate``, ``TrustedMemory`` and the ``DomainManager`` behind a
``_tap is None`` branch.  This suite runs the gate-stress smoke
workload through all four (fast/slow path x monitored/unmonitored)
corners and requires bit-identical simulated results — instructions,
cycles, cache hit rates, syscalls, faults — with zero contract
violations on the healthy run.  Only wall-clock may differ.  The fast
path retires most of the workload in blocks, one ``block`` event each;
expanded into member checks, its trace equals the slow path's.
"""

import dataclasses

import pytest

from repro.contracts import ContractMonitor
from repro.core import CONFIG_8E
from repro.kernel import X86Kernel
from repro.workloads import GATE_STRESS
from repro.workloads.generator import x86_user_program

from .reference import expanded_stream

ITERATIONS = 12
MAX_STEPS = 1_000_000


def _run_smoke(fast_path: bool, monitored: bool):
    config = (CONFIG_8E if fast_path
              else dataclasses.replace(CONFIG_8E, fast_path=False))
    profile = dataclasses.replace(GATE_STRESS, outer_iterations=ITERATIONS)
    kernel = X86Kernel("decomposed", config)
    monitor = None
    if monitored:
        monitor = ContractMonitor(seed=0, record=True)
        monitor.attach(kernel.system.pcu, kernel.system.manager)
    stats = kernel.run(x86_user_program(profile), max_steps=MAX_STEPS)
    observed = {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "hit_rates": kernel.system.pcu.stats.hit_rates(),
        "syscalls": kernel.syscall_count,
        "faults": kernel.fault_count,
    }
    return observed, monitor


@pytest.fixture(scope="module")
def corners():
    return {(fast, monitored): _run_smoke(fast, monitored)
            for fast in (True, False) for monitored in (True, False)}


def test_all_four_corners_bit_identical(corners):
    baseline = corners[(True, False)][0]
    for key, (observed, _) in corners.items():
        assert observed == baseline, (
            "corner fast_path=%s monitored=%s diverged from the "
            "unmonitored fast path" % key)


def test_healthy_run_has_zero_violations(corners):
    for (_, monitored), (_, monitor) in corners.items():
        if not monitored:
            continue
        assert monitor.total_violations == 0, monitor.violations[0].describe()
        assert monitor.events_seen > 0


def test_monitored_runs_saw_the_whole_workload(corners):
    fast = corners[(True, True)][1]
    slow = corners[(False, True)][1]
    # The tap narrates architectural events, not micro-architecture:
    # with each block expanded into its member checks, the fast path
    # (blocks) and the slow path (no blocks) narrate the same trace.
    assert any(event.kind == "block" for event in fast.recorded)
    assert not any(event.kind == "block" for event in slow.recorded)
    assert expanded_stream(fast.recorded) == expanded_stream(slow.recorded)


def test_detach_restores_the_untapped_pcu(corners):
    kernel = X86Kernel("decomposed", CONFIG_8E)
    monitor = ContractMonitor(seed=0)
    monitor.attach(kernel.system.pcu, kernel.system.manager)
    monitor.detach()
    assert kernel.system.pcu._tap is None
    assert kernel.system.pcu.trusted_memory._tap is None
    assert kernel.system.manager._tap is None
