"""Machine-level fault campaigns: lockstep, commit windows, determinism.

Everything here runs with tiny workloads (``iterations=2``/``3``) so the
full file stays a few seconds; geometry and triggers scale with the
workload, so small runs exercise the same machinery as the shipped
report.
"""

import json

import pytest

from repro import orchestrator
from repro.conformance.oracle import OraclePcu
from repro.faults import (
    CLASSIFICATIONS,
    MACHINE_FAULT_KINDS,
    FaultPlan,
    MachineCampaignMatrix,
    LockstepMonitor,
    machine_geometry,
    run_planned_machine_campaign,
)
from repro.faults.machine import _build_kernel, _workload

COMMIT_STORE = MACHINE_FAULT_KINDS.index("commit_store_fault")
COMMIT_FLIP = MACHINE_FAULT_KINDS.index("commit_flip_journalled")


class TestGeometry:
    def test_geometry_is_a_pure_function(self):
        a = machine_geometry("riscv", 3)
        b = machine_geometry("riscv", 3)
        assert a == b

    def test_geometry_scales_with_iterations(self):
        small = machine_geometry("riscv", 2)
        large = machine_geometry("riscv", 8)
        assert large.n_steps > small.n_steps
        assert large.budget > large.n_steps  # watchdog headroom

    def test_explicit_intervals_override_derived(self):
        g = machine_geometry("x86", 3, scrub_interval=999,
                             pulse_interval=400)
        assert g.scrub_interval == 999
        assert g.pulse_interval == 400


class TestSingleCampaign:
    def test_campaigns_are_deterministic(self):
        a = run_planned_machine_campaign("riscv", 7, 3, iterations=2)
        b = run_planned_machine_campaign("riscv", 7, 3, iterations=2)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("backend", ["riscv", "x86"])
    def test_commit_store_fault_rolls_back(self, backend):
        result = run_planned_machine_campaign(backend, 7, COMMIT_STORE,
                                              iterations=3)
        assert result.spec.kind == "commit_store_fault"
        assert result.fired
        assert result.rollbacks >= 1
        assert result.classification == "detected_recovered"
        assert "commit-window store fault" in result.detail
        assert result.commit_windows > 0

    @pytest.mark.parametrize("backend", ["riscv", "x86"])
    def test_commit_flip_is_repaired_by_rollback_replay(self, backend):
        result = run_planned_machine_campaign(backend, 7, COMMIT_FLIP,
                                              iterations=3)
        assert result.spec.kind == "commit_flip_journalled"
        assert result.rollbacks >= 1
        # The bit was flipped under an already-journalled word; the
        # newest-first replay must have overwritten it, so the run ends
        # recovered with a clean audit — not halted on raw corruption.
        assert "flipped under journalled word" in result.detail
        assert result.classification == "detected_recovered"

    def test_lockstep_oracle_is_actually_consulted(self):
        result = run_planned_machine_campaign("riscv", 7, 0, iterations=2)
        assert result.lockstep_checks > 0
        assert result.workload_halted

    def test_result_roundtrips_to_dict(self):
        result = run_planned_machine_campaign("x86", 7, 1, iterations=2)
        data = result.to_dict()
        json.dumps(data)
        assert data["classification"] == result.classification
        assert data["spec"]["kind"] == result.spec.kind
        from repro.faults import MachineCampaignResult
        assert MachineCampaignResult.from_dict(data).to_dict() == data



class TestLockstepSeesEveryDataAccess:
    """The oracle judges every load and store the CPU retires.  The
    CPUs look ``check_memory_access`` up on ``cpu.pcu`` at each access,
    so the monitor's instance shadowing reaches them; a CPU that bound
    the filter when it was built would leave the oracle blind."""

    @pytest.mark.parametrize("backend", ["riscv", "x86"])
    def test_oracle_checks_each_retired_load_and_store(self, backend,
                                                       monkeypatch):
        judged = []
        reference = OraclePcu.check_memory_access

        def counted(oracle, address, pc=0):
            judged.append(address)
            return reference(oracle, address, pc)

        monkeypatch.setattr(OraclePcu, "check_memory_access", counted)
        kernel = _build_kernel(backend)
        pcu = kernel.system.pcu
        registers = pcu.registers
        machine = kernel.system.machine
        oracle = OraclePcu(
            pcu.isa_map, pcu.hpt, pcu.sgt, pcu.trusted_memory,
            stack_frames=(registers.hcsl - registers.hcsb) // 16)
        monitor = LockstepMonitor(pcu, oracle, machine.stats)
        monitor.install()
        accessed = []

        def hook(info):
            if info.is_load or info.is_store:
                accessed.append(info.mem_address)
            return False

        kernel.load_user(_workload(backend, 2))
        kernel.cpu.pc = kernel.symbol("boot")
        machine.step_hook = hook
        machine.run(machine_geometry(backend, 2).budget)
        monitor.uninstall()
        assert machine.stats.halted
        assert monitor.divergence is None
        assert len(accessed) > 1000
        assert judged == accessed


@pytest.fixture(scope="module")
def matrices():
    """One full kind-cycle matrix per backend, run once for the module.

    Both the matrix-shape tests and the jobs-vs-serial identity test
    consume these: machine campaign draws are campaign-local (see
    ``test_machine_plan_draws_are_campaign_local``), so a prefix of a
    full matrix doubles as the serial reference for a shorter sharded
    run — no second serial campaign sweep needed.
    """
    merged, _, _ = orchestrator.run_campaign(
        orchestrator.KINDS["machine_faults"],
        {"backends": ["riscv", "x86"], "seed": 7,
         "n_campaigns": len(MACHINE_FAULT_KINDS), "iterations": 2})
    return {matrix.backend: matrix for matrix in merged}


class TestMachineMatrix:
    @pytest.fixture(params=["riscv", "x86"])
    def matrix(self, request, matrices):
        return matrices[request.param]

    def test_no_widening_silent_divergence(self, matrix):
        assert matrix.widening_silent == []

    def test_full_kind_cycle_covered(self, matrix):
        assert ({r.spec.kind for r in matrix.results}
                == set(MACHINE_FAULT_KINDS))

    def test_classifications_valid_and_recovery_exercised(self, matrix):
        for result in matrix.results:
            assert result.classification in CLASSIFICATIONS
        assert matrix.rollbacks >= 1
        assert matrix.counts["detected_recovered"] > 0

    def test_reconfig_pulses_ran(self, matrix):
        assert all(r.pulses_run > 0 for r in matrix.results)

    def test_no_unwaived_contract_violations(self, matrix):
        # Every campaign runs monitored by default; any violation must
        # be attributable to the armed injector (waived), never free.
        assert all(r.unwaived_contract_violations == 0
                   for r in matrix.results)

    def test_report_written_with_rollback_count(self, matrix, tmp_path):
        path = str(tmp_path / "machine_report.json")
        payload = MachineCampaignMatrix.write_report([matrix], path)
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["format"] == "isagrid-machine-fault-campaign-v1"
        assert on_disk["reconfig_rollbacks"] == matrix.rollbacks >= 1
        assert payload["widening_silent_divergences"] == 0


class TestOrchestration:
    def test_jobs_identical_to_serial(self, tmp_path, matrices):
        # The serial reference is the first 4 campaigns of the already-
        # computed full matrices (campaign draws are campaign-local, so
        # a prefix is exactly what a 4-campaign serial run produces) —
        # this test only pays for the sharded side.
        from repro.orchestrator import KINDS, run_campaign

        sharded, run, _ = run_campaign(
            KINDS["machine_faults"],
            {"backends": ("riscv", "x86"), "seed": 7, "n_campaigns": 4,
             "iterations": 2},
            jobs=2, run_dir=str(tmp_path / "run"))
        assert run.quarantined == []
        assert [[r.to_dict() for r in m.results] for m in sharded] == \
            [[r.to_dict() for r in matrices[backend].results[:4]]
             for backend in ("riscv", "x86")]

    def test_machine_plan_draws_are_campaign_local(self):
        # A worker must be able to draw campaign k without replaying
        # campaigns 0..k-1 — and the abstract plan stream must be
        # untouched by machine draws.
        plan = FaultPlan(7)
        geometry = machine_geometry("riscv", 2)
        direct = plan.draw_machine_specs(5, geometry.n_steps,
                                         geometry.n_pulses)
        abstract_after = plan.draw(0, 300)
        fresh = FaultPlan(7)
        assert fresh.draw_machine_specs(5, geometry.n_steps,
                                        geometry.n_pulses) == direct
        assert fresh.draw(0, 300) == abstract_after


class TestStateChangingPulses:
    """Satellite: the pulse rotation can genuinely move table state
    (scratch-domain spawn/retire) instead of always netting to a no-op.
    The flag defaults off so committed machine reports stay stable."""

    def test_default_path_is_unchanged_and_deterministic(self):
        a = run_planned_machine_campaign("x86", 7, 0, iterations=2)
        b = run_planned_machine_campaign("x86", 7, 0, iterations=2,
                                         state_changing_pulses=False)
        assert a.to_dict() == b.to_dict()

    def test_state_changing_rotation_actually_differs(self):
        neutral = run_planned_machine_campaign("x86", 7, 0, iterations=3)
        churny = run_planned_machine_campaign("x86", 7, 0, iterations=3,
                                              state_changing_pulses=True)
        assert churny.pulses_run > 0
        # Same geometry, same fault draws — only the pulse ops differ.
        assert churny.spec.to_dict() == neutral.spec.to_dict()
        assert churny.to_dict() != neutral.to_dict()

    @pytest.mark.parametrize("campaign", [0, 3])
    def test_state_changing_campaigns_classify_cleanly(self, campaign):
        result = run_planned_machine_campaign(
            "riscv", 5, campaign, iterations=2, state_changing_pulses=True)
        assert result.classification in CLASSIFICATIONS
        assert result.unwaived_contract_violations == 0
