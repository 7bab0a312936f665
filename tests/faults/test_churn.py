"""Tenant-churn campaigns: recycle-window faults, determinism, sharding.

Small streams throughout (a few hundred ops, a dozen slots) — the churn
machinery scales with the op count, so tiny runs exercise the same
bind/evict/recycle traffic, fault windows and classification ladder as
the shipped ``results/churn_campaigns.json``.
"""

import dataclasses
import json

import pytest

from repro import orchestrator
from repro.conformance import CONFORMANCE_CONFIGS, ConformanceWorld, make_backend
from repro.core import InstructionPrivilegeFault, PrivilegeCheckUnit
from repro.faults import (
    CHURN_FAULT_KINDS,
    CLASSIFICATIONS,
    ChurnMatrix,
    ChurnWorld,
    FaultInjector,
    FaultPlan,
    FaultyWordBacking,
    run_churn_campaign,
)
from repro.workloads import generate_churn_ops

N_OPS = 250
SLOTS = 12

RECYCLE_KINDS = ("recycle_store_fault", "generation_flip", "drop_reuse_flush")


class TestChurnWorld:
    def test_fault_free_stream_never_diverges(self):
        world = ChurnWorld(make_backend("riscv"), max_slots=SLOTS)
        trace = generate_churn_ops(3, N_OPS, 5, 5)
        for index, op in enumerate(trace.ops):
            for cached, oracle in world.apply(op, index):
                assert cached == oracle, (index, op, cached, oracle)
        # The stream actually exercised the virtualizer where it hurts.
        stats = world.virtualizer.stats
        assert stats.spawned > SLOTS  # more tenants than slots
        assert stats.recycles > 0
        assert stats.evictions > 0
        assert world.checks_run > 0

    @staticmethod
    def _diverged_pairs():
        """The pairs whose sides disagree on the seed-3 stream, which
        runs clean with a correct PCU."""
        world = ChurnWorld(make_backend("riscv"), max_slots=SLOTS)
        trace = generate_churn_ops(3, N_OPS, 5, 5)
        return [(cached, oracle)
                for index, op in enumerate(trace.ops)
                for cached, oracle in world.apply(op, index)
                if cached != oracle]

    def test_lockstep_catches_a_swallowed_instruction_fault(
            self, monkeypatch):
        real_check = PrivilegeCheckUnit.check

        def check(self, access):
            try:
                return real_check(self, access)
            except InstructionPrivilegeFault:
                return 0

        monkeypatch.setattr(PrivilegeCheckUnit, "check", check)
        diverged = self._diverged_pairs()
        assert diverged
        for cached, oracle in diverged:
            assert (cached.status, oracle.status) == (
                "ok", "InstructionPrivilegeFault")

    def test_lockstep_catches_a_shifted_gate_target(self, monkeypatch):
        real_gate = PrivilegeCheckUnit.execute_gate

        def execute_gate(self, *args, **kwargs):
            target, stall = real_gate(self, *args, **kwargs)
            return target + 4, stall

        monkeypatch.setattr(PrivilegeCheckUnit, "execute_gate", execute_gate)
        diverged = self._diverged_pairs()
        assert diverged
        for cached, oracle in diverged:
            assert cached.status == oracle.status == "ok"
            assert cached.target == oracle.target + 4

    def test_slow_path_churns_identically(self, monkeypatch):
        """The compiled verdict plan is invisible to churn: a fault-free
        x86 stream runs the same checks, stall histogram and
        virtualizer traffic with it turned off."""
        monkeypatch.setitem(CONFORMANCE_CONFIGS, "stress_slow_path",
                            dataclasses.replace(CONFORMANCE_CONFIGS["stress"],
                                                fast_path=False))
        trace = generate_churn_ops(0, N_OPS, 5, 5)
        runs = []
        for config in ("stress", "stress_slow_path"):
            world = ChurnWorld(make_backend("x86"), max_slots=SLOTS,
                               config=config)
            for index, op in enumerate(trace.ops):
                for cached, oracle in world.apply(op, index):
                    assert cached == oracle, (config, index, op)
            runs.append((world.checks_run, world.latency,
                         world.virtualizer.stats))
        assert runs[0] == runs[1]
        checks, _, stats = runs[0]
        assert checks > 0 and stats.recycles > 0 and stats.evictions > 0

    def test_saturation_backpressure_not_crash(self):
        """A slot pool smaller than the live-tenant floor must degrade
        (slot_exhausted counts, visits abort) rather than crash."""
        world = ChurnWorld(make_backend("x86"), max_slots=4)
        trace = generate_churn_ops(1, N_OPS, 5, 5)
        for index, op in enumerate(trace.ops):
            for cached, oracle in world.apply(op, index):
                assert cached == oracle
        assert world.virtualizer.stats.slot_exhausted > 0


class TestChurnPlan:
    def test_specs_cycle_through_the_churn_kinds(self):
        plan = FaultPlan(0)
        kinds = [plan.draw_churn_specs(campaign, N_OPS)[0].kind
                 for campaign in range(len(CHURN_FAULT_KINDS))]
        assert kinds == list(CHURN_FAULT_KINDS)

    def test_draws_are_deterministic_per_campaign(self):
        a = FaultPlan(9).draw_churn_specs(4, N_OPS)
        b = FaultPlan(9).draw_churn_specs(4, N_OPS)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_recycle_window_kinds_are_widening(self):
        plan = FaultPlan(0)
        for campaign, kind in enumerate(CHURN_FAULT_KINDS):
            spec = plan.draw_churn_specs(campaign, N_OPS)[0]
            if kind in RECYCLE_KINDS:
                assert spec.widening, kind


class TestRecycleWindowFaults:
    @pytest.mark.parametrize("kind", RECYCLE_KINDS)
    def test_kind_fires_and_never_widens_silently(self, kind):
        campaign = CHURN_FAULT_KINDS.index(kind)
        spec = FaultPlan(0).draw_churn_specs(campaign, N_OPS)[0]
        assert spec.kind == kind
        result = run_churn_campaign("riscv", spec, stream_seed=campaign,
                                    n_ops=N_OPS, max_slots=SLOTS,
                                    campaign=campaign)
        assert result.classification in CLASSIFICATIONS
        assert not (result.classification == "silent_divergence"
                    and result.widening), result.detail

    def test_injector_notes_missing_virtualizer(self):
        """The recycle-window kinds degrade gracefully on worlds without
        a DomainVirtualizer (e.g. a conformance world)."""
        world = ConformanceWorld(make_backend("riscv"),
                                 CONFORMANCE_CONFIGS["stress"])
        backing = FaultyWordBacking(world.trusted_memory._backing)
        world.trusted_memory._backing = backing
        spec = FaultPlan(0).draw_churn_specs(0, N_OPS)[0]
        injector = FaultInjector(world, backing, spec)
        injector.fire()
        assert not injector.fired
        assert "no domain virtualizer" in injector.detail


def churn_matrix():
    (matrix,), _, _ = orchestrator.run_campaign(
        orchestrator.KINDS["churn"],
        {"backends": ["riscv"], "seed": 0, "n_ops": N_OPS,
         "n_campaigns": 4, "max_slots": SLOTS, "scrub_interval": 64})
    return matrix


@pytest.fixture(scope="module")
def matrix():
    return churn_matrix()


class TestChurnMatrix:
    def test_campaigns_are_deterministic(self, matrix):
        again = churn_matrix()
        assert matrix.to_dict() == again.to_dict()

    def test_campaign_range_matches_full_run(self, matrix):
        """The sharding contract: running ``[lo, hi)`` alone reproduces
        exactly that slice of the full matrix."""
        part = orchestrator.KINDS["churn"].run_shard(
            {"backend": "riscv", "seed": 0, "n_ops": N_OPS,
             "max_slots": SLOTS, "scrub_interval": 64,
             "campaign_lo": 2, "campaign_hi": 4})
        assert (part["results"]
                == [r.to_dict() for r in matrix.results[2:4]])

    def test_results_roundtrip_through_dicts(self, matrix):
        from repro.faults import ChurnCampaignResult

        for result in matrix.results:
            encoded = json.loads(json.dumps(result.to_dict()))
            assert ChurnCampaignResult.from_dict(encoded).to_dict() \
                == result.to_dict()

    def test_report_payload_is_self_describing(self, matrix, tmp_path):
        from repro.contracts import CONTRACT_NAMES

        path = tmp_path / "churn.json"
        payload = ChurnMatrix.write_report([matrix], str(path))
        assert payload["format"] == "isagrid-churn-campaign-v1"
        assert payload["logical_domains"] == matrix.logical_domains > 0
        assert payload["unwaived_contract_violations"] == 0
        assert set(payload["contract_counts"]) == set(CONTRACT_NAMES)
        assert set(payload["latency_percentiles"]) == {"p50", "p99"}
        with open(path) as handle:
            assert json.load(handle) == payload


class TestOrchestration:
    def test_jobs_2_report_is_byte_identical_to_serial(self, tmp_path,
                                                       matrix):
        from repro.orchestrator import KINDS, run_campaign

        serial_path = tmp_path / "serial.json"
        ChurnMatrix.write_report([matrix], str(serial_path))
        matrices, run, _ = run_campaign(
            KINDS["churn"],
            {"backends": ["riscv"], "seed": 0, "n_ops": N_OPS,
             "n_campaigns": 4, "max_slots": SLOTS},
            jobs=2, run_dir=str(tmp_path / "run"))
        assert run.complete
        parallel_path = tmp_path / "parallel.json"
        ChurnMatrix.write_report(matrices, str(parallel_path))
        assert serial_path.read_bytes() == parallel_path.read_bytes()
