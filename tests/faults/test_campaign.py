"""Campaign runner: classification protocol, determinism, reporting."""

import json

import pytest

from repro import orchestrator
from repro.faults import (
    CLASSIFICATIONS,
    FAULT_KINDS,
    CampaignMatrix,
    FaultPlan,
    FaultSpec,
    run_campaign,
)


class TestSingleCampaign:
    def test_campaigns_are_deterministic(self):
        spec = FaultPlan(0).draw(0, 300)
        a = run_campaign("riscv", spec, stream_seed=0, n_events=300)
        b = run_campaign("riscv", spec, stream_seed=0, n_events=300)
        assert a.classification == b.classification
        assert a.detail == b.detail
        assert a.divergence_index == b.divergence_index

    def test_store_fault_rolls_back_and_recovers(self):
        # store_fault arms a one-shot failing store; the transactional
        # DomainManager must roll back and the run must end recovered.
        spec = FaultPlan(0).draw(FAULT_KINDS.index("store_fault"), 300)
        assert spec.kind == "store_fault"
        result = run_campaign("riscv", spec, stream_seed=11, n_events=300)
        assert result.classification in ("detected_recovered", "benign")
        if result.rollbacks:
            assert result.classification == "detected_recovered"

    def test_classification_is_always_valid(self):
        plan = FaultPlan(2)
        for campaign in range(len(FAULT_KINDS)):
            spec = plan.draw(campaign, 200)
            result = run_campaign("riscv", spec, stream_seed=campaign,
                                  n_events=200, campaign=campaign)
            assert result.classification in CLASSIFICATIONS
            assert result.events_run > 0

    def test_escaped_store_fault_is_not_a_recovery(self):
        # Regression: this fault fires on a non-transactional store (a
        # gate-event trusted-stack push) — nothing rolls back, so the
        # classifier must NOT credit a phantom rollback and upgrade the
        # run to detected_recovered.
        spec = FaultSpec(kind="store_fault", trigger=40)
        result = run_campaign("riscv", spec, stream_seed=0, n_events=200)
        assert result.escaped_faults == 1
        assert result.rollbacks == 0
        assert result.classification == "benign"
        assert "fired outside any transaction" in result.detail

    def test_dual_fault_rollback_attributed_to_firing_injector(self):
        # Regression: with two store-fault specs armed, the rollback
        # belongs to the injector whose fault actually fired — not to
        # whichever store-ish spec happens to come first in the list.
        primary = FaultSpec(kind="store_fault", trigger=10_000)  # never arms
        extra = FaultSpec(kind="store_fault", trigger=5)
        result = run_campaign("riscv", primary, stream_seed=0, n_events=200,
                              extra_specs=[extra])
        assert result.rollbacks == 1
        first_detail, _, rest = result.detail.partition("; ")
        assert first_detail == "not triggered"
        assert "rolled back" in rest

    def test_result_roundtrips_to_dict(self):
        spec = FaultPlan(1).draw(0, 200)
        result = run_campaign("riscv", spec, stream_seed=1, n_events=200)
        data = result.to_dict()
        assert data["classification"] == result.classification
        assert data["spec"]["kind"] == spec.kind
        json.dumps(data)  # JSON-serializable


class TestFastSlowIdentity:
    """Cache-layer campaigns must classify identically with the PCU's
    compiled verdict plan disabled — the fast path is an optimisation,
    never a behaviour change, even under injected cache corruption."""

    KINDS = ("cache_corrupt", "cache_stale_pin", "bypass_corrupt")

    def test_cache_fault_campaigns_identical_without_fast_path(self):
        import dataclasses

        from repro.conformance.runner import CONFORMANCE_CONFIGS

        CONFORMANCE_CONFIGS["_slow_test"] = dataclasses.replace(
            CONFORMANCE_CONFIGS["draco"], fast_path=False)
        try:
            for kind in self.KINDS:
                campaign = FAULT_KINDS.index(kind)
                fast = run_campaign(
                    "riscv", FaultPlan(3).draw(campaign, 200),
                    stream_seed=campaign, n_events=200,
                    config="draco", campaign=campaign)
                slow = run_campaign(
                    "riscv", FaultPlan(3).draw(campaign, 200),
                    stream_seed=campaign, n_events=200,
                    config="_slow_test", campaign=campaign)
                assert fast.to_dict() == slow.to_dict(), kind
        finally:
            del CONFORMANCE_CONFIGS["_slow_test"]


class TestCampaignMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        # one full cycle of fault kinds on the nastiest (draco) config
        (matrix,), _, _ = orchestrator.run_campaign(
            orchestrator.KINDS["faults"],
            {"backends": ["riscv"], "configs": ["draco"], "seed": 0,
             "n_events": 300, "n_campaigns": len(FAULT_KINDS),
             "scrub_interval": 64})
        return matrix

    def test_no_widening_silent_divergence(self, matrix):
        assert matrix.widening_silent == []

    def test_detection_machinery_exercised(self, matrix):
        counts = matrix.counts
        assert sum(counts.values()) == len(FAULT_KINDS)
        assert counts["detected_recovered"] + counts["detected_halted"] > 0
        assert counts["benign"] > 0

    def test_full_fault_surface_covered(self, matrix):
        assert {r.spec.kind for r in matrix.results} == set(FAULT_KINDS)

    def test_x86_backend_matches_protocol(self):
        (matrix,), _, _ = orchestrator.run_campaign(
            orchestrator.KINDS["faults"],
            {"backends": ["x86"], "configs": ["draco"], "seed": 0,
             "n_events": 300, "n_campaigns": 4, "scrub_interval": 64})
        assert matrix.widening_silent == []
        for result in matrix.results:
            assert result.classification in CLASSIFICATIONS

    def test_report_written_and_gates_on_widening(self, matrix, tmp_path):
        path = str(tmp_path / "report.json")
        payload = CampaignMatrix.write_report([matrix], path)
        assert payload["widening_silent_divergences"] == 0
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["format"] == "isagrid-fault-campaign-v2"
        assert on_disk["classification_counts"] == matrix.counts


class TestShardRanges:
    def test_shard_ranges_replay_the_one_pass_draws(self):
        """A shard re-derives the plan from campaign 0, so any split of
        a campaign range runs exactly the campaigns of one pass."""
        params = {"backend": "riscv", "config": "stress", "seed": 0,
                  "n_events": 60, "scrub_interval": 64}
        run_shard = orchestrator.KINDS["faults"].run_shard
        whole = run_shard(dict(params, campaign_lo=0, campaign_hi=4))
        parts = [run_shard(dict(params, campaign_lo=lo, campaign_hi=hi))
                 for lo, hi in ((0, 1), (1, 4))]
        assert [r["campaign"] for r in whole["results"]] == [0, 1, 2, 3]
        assert whole["results"] == [r for part in parts
                                    for r in part["results"]]
