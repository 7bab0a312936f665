"""Shard planning: layout determinism, coverage, fingerprints."""

from repro.orchestrator import (
    KINDS,
    ShardPlan,
    ShardResult,
    ShardSpec,
    plan_shards,
)
from repro.orchestrator.shards import FAULT_SHARDS_PER_UNIT, _fault_chunk


def fault_plan(backends, configs, seed, n_events, n_campaigns,
               scrub_interval, **params):
    return plan_shards(KINDS["faults"], dict(
        backends=backends, configs=configs, seed=seed, n_events=n_events,
        n_campaigns=n_campaigns, scrub_interval=scrub_interval, **params))


def conformance_plan(backends, configs, seed, n_events):
    return plan_shards(KINDS["conformance"], dict(
        backends=backends, configs=configs, seed=seed, n_events=n_events))


class TestFaultPlanning:
    def test_layout_is_pure_function_of_campaign_params(self):
        a = fault_plan(["riscv", "x86"], ["stress"], 0, 500, 20, 200)
        b = fault_plan(["riscv", "x86"], ["stress"], 0, 500, 20, 200)
        assert [s.shard_id for s in a.shards] == [s.shard_id for s in b.shards]
        assert [s.params for s in a.shards] == [s.params for s in b.shards]
        assert a.fingerprint() == b.fingerprint()

    def test_campaign_ranges_tile_the_matrix_exactly(self):
        for n_campaigns in (1, 7, 8, 9, 50, 100):
            plan = fault_plan(["riscv"], ["stress"], 0, 100,
                              n_campaigns, 200)
            covered = []
            for shard in plan.shards:
                lo = shard.params["campaign_lo"]
                hi = shard.params["campaign_hi"]
                assert lo < hi
                covered.extend(range(lo, hi))
            assert covered == list(range(n_campaigns))
            assert len(plan.shards) <= FAULT_SHARDS_PER_UNIT

    def test_chunk_depends_only_on_matrix_size(self):
        # The worker count must never influence the layout; the planner
        # does not even accept one.
        assert _fault_chunk(8) == 1
        assert _fault_chunk(9) == 2
        assert _fault_chunk(100) == 13

    def test_fingerprint_tracks_campaign_parameters(self):
        base = fault_plan(["riscv"], ["stress"], 0, 500, 20, 200)
        for other in (
            fault_plan(["riscv"], ["stress"], 1, 500, 20, 200),
            fault_plan(["riscv"], ["stress"], 0, 501, 20, 200),
            fault_plan(["riscv"], ["stress"], 0, 500, 21, 200),
            fault_plan(["riscv"], ["draco"], 0, 500, 20, 200),
            fault_plan(["riscv"], ["stress"], 0, 500, 20, 200,
                       faults_per_campaign=2),
        ):
            assert other.fingerprint() != base.fingerprint()

    def test_weight_accounts_every_event(self):
        plan = fault_plan(["riscv", "x86"], ["stress", "draco"],
                          0, 500, 20, 200)
        assert plan.total_weight == 2 * 2 * 20 * 500


class TestConformancePlanning:
    def test_one_shard_per_backend_config_pair(self):
        plan = conformance_plan(["riscv", "x86"], ["stress", "draco"],
                                7, 1000)
        assert len(plan.shards) == 4
        pairs = {(s.params["backend"], s.params["config"])
                 for s in plan.shards}
        assert pairs == {("riscv", "stress"), ("riscv", "draco"),
                         ("x86", "stress"), ("x86", "draco")}

    def test_layout_deterministic(self):
        a = conformance_plan(["riscv"], ["stress"], 0, 100)
        b = conformance_plan(["riscv"], ["stress"], 0, 100)
        assert a.fingerprint() == b.fingerprint()


class TestSerialization:
    def test_spec_roundtrip(self):
        spec = ShardSpec("s1", "faults", {"seed": 3}, weight=10,
                         sabotage={"kind": "sigkill", "attempts": 1})
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_result_roundtrip(self):
        result = ShardResult("s1", "ok", {"results": []}, elapsed_s=1.5,
                             events_run=100, worker_pid=42, max_rss_kb=9000,
                             attempt=2, failures=["worker crashed"])
        clone = ShardResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.cached is False  # cached is run-local, not serialized
