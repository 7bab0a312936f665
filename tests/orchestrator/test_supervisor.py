"""Supervisor failure paths and serial/parallel report equivalence.

These tests exercise the orchestrator end to end over real (small)
fault and conformance campaigns, using the worker sabotage hook to
reproduce the failure modes deterministically: a worker SIGKILLed
mid-shard, a hung worker hitting the shard timeout, a poison shard
exhausting its retries, and an interrupted run resumed from its
checkpoints.  The invariant under test throughout: whatever the
workers' fate, a completed run's merged report is byte-identical to
the serial path's.
"""

import json
import os

import pytest

from repro.faults import CampaignMatrix
from repro.orchestrator import KINDS, RunJournal, run_campaign

BACKENDS = ["riscv"]
CONFIGS = ["stress"]
SEED = 0
N_EVENTS = 120
N_CAMPAIGNS = 6          # < FAULT_SHARDS_PER_UNIT -> one campaign per shard
SCRUB_INTERVAL = 64

#: The shard the sabotage tests poison (campaign 2 of 6).
VICTIM = "faults-riscv-stress-c0002-c0003"


def fault_params(seed=SEED):
    return {"backends": BACKENDS, "configs": CONFIGS, "seed": seed,
            "n_events": N_EVENTS, "n_campaigns": N_CAMPAIGNS,
            "scrub_interval": SCRUB_INTERVAL}


def run_parallel(tmp_path, **kwargs):
    """run_campaign over the shared tiny fault matrix."""
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("run_dir", str(tmp_path / "run"))
    return run_campaign(KINDS["faults"], fault_params(), **kwargs)


def report_bytes(matrices, path) -> bytes:
    CampaignMatrix.write_report(matrices, str(path))
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def serial_report(tmp_path_factory):
    """The ground truth: the in-process run over the same matrix."""
    matrices, _, _ = run_campaign(KINDS["faults"], fault_params())
    path = tmp_path_factory.mktemp("serial") / "report.json"
    return report_bytes(matrices, path)


class TestReportEquivalence:
    def test_jobs_n_matches_jobs_1_byte_for_byte(self, tmp_path,
                                                 serial_report):
        matrices, run, _ = run_parallel(tmp_path, jobs=3)
        assert run.complete
        assert report_bytes(matrices, tmp_path / "parallel.json") \
            == serial_report

    def test_in_process_run_matches_serial_byte_for_byte(self, tmp_path,
                                                        serial_report):
        # --jobs 1 with no run directory runs the same shards in-process.
        matrices, run, run_dir = run_campaign(KINDS["faults"],
                                              fault_params())
        assert run is None and run_dir is None
        assert report_bytes(matrices, tmp_path / "in_process.json") \
            == serial_report

    def test_conformance_payloads_match_serial_summaries(self, tmp_path):
        from repro.conformance.runner import fuzz_backend

        serial = []
        for backend in ("riscv", "x86"):
            result = fuzz_backend(backend, SEED, 400, config="stress",
                                  dump_dir=None)
            summary = result.summary()
            summary["events_run"] = result.events
            serial.append(summary)
        payloads, run, _ = run_campaign(
            KINDS["conformance"],
            {"backends": ["riscv", "x86"], "configs": ["stress"],
             "seed": SEED, "n_events": 400, "dump_dir": None},
            jobs=2, run_dir=str(tmp_path / "run"))
        assert run.complete
        assert payloads == serial


class TestFailurePaths:
    def test_sigkilled_worker_is_retried_without_failing_the_campaign(
            self, tmp_path, serial_report):
        matrices, run, run_dir = run_parallel(
            tmp_path,
            sabotage={VICTIM: {"kind": "sigkill", "attempts": 1}})
        # The campaign survived the kill and lost nothing.
        assert run.complete
        assert report_bytes(matrices, tmp_path / "report.json") \
            == serial_report
        # The kill was seen, retried on a fresh worker, and journaled.
        assert run.metrics.crashes == 1
        assert run.metrics.retries == 1
        victim = run.by_id()[VICTIM]
        assert victim.attempt == 1
        assert any("crashed" in failure for failure in victim.failures)
        events = RunJournal(run_dir).read_events()
        assert any(e["event"] == "failure" and e["shard"] == VICTIM
                   and e["retried"] for e in events)

    def test_hung_worker_hits_shard_timeout_and_is_retried(
            self, tmp_path, serial_report):
        matrices, run, _ = run_parallel(
            tmp_path,
            shard_timeout=10.0,
            sabotage={VICTIM: {"kind": "hang", "seconds": 600,
                               "attempts": 1}})
        assert run.complete
        assert run.metrics.timeouts == 1
        assert run.metrics.retries == 1
        victim = run.by_id()[VICTIM]
        assert any("timeout" in failure for failure in victim.failures)
        assert report_bytes(matrices, tmp_path / "report.json") \
            == serial_report

    def test_poison_shard_is_quarantined_and_the_run_continues(
            self, tmp_path):
        matrices, run, run_dir = run_parallel(
            tmp_path,
            max_retries=1,
            sabotage={VICTIM: {"kind": "exception", "attempts": 99}})
        # The poison shard is recorded, not fatal.
        assert not run.complete
        assert [spec.shard_id for spec in run.quarantined] == [VICTIM]
        assert run.metrics.quarantined == 1
        entries = RunJournal(run_dir).read_quarantine()
        assert entries[0]["shard_id"] == VICTIM
        # The offending seed range is recorded for isolated replay.
        assert entries[0]["params"]["campaign_lo"] == 2
        assert entries[0]["params"]["seed"] == SEED
        assert len(entries[0]["failures"]) == 2  # initial + 1 retry
        # Every other campaign still produced its result.
        (matrix,) = matrices
        assert [r.campaign for r in matrix.results] == [0, 1, 3, 4, 5]


class TestResume:
    def test_resume_after_interrupt_produces_identical_report(
            self, tmp_path, serial_report):
        run_dir = str(tmp_path / "run")
        done = []

        def interrupt_after_two(result):
            done.append(result.shard_id)
            if len(done) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_parallel(tmp_path, jobs=1, run_dir=run_dir,
                         on_shard_done=interrupt_after_two)
        # The interrupted run left its completed shards checkpointed.
        checkpointed = os.listdir(os.path.join(run_dir, "shards"))
        assert len(checkpointed) >= 2

        matrices, run, _ = run_parallel(tmp_path, run_dir=run_dir,
                                        resume=True)
        assert run.complete
        assert run.metrics.shards_resumed >= 2
        assert run.metrics.shards_done \
            == N_CAMPAIGNS - run.metrics.shards_resumed
        assert report_bytes(matrices, tmp_path / "report.json") \
            == serial_report

    def test_resume_rejects_a_different_campaign(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_parallel(tmp_path, run_dir=run_dir)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(KINDS["faults"], fault_params(seed=SEED + 1),
                         jobs=2, run_dir=run_dir, resume=True)

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        run_dir = str(tmp_path / "run")
        _, first, _ = run_parallel(tmp_path, run_dir=run_dir)
        assert first.metrics.shards_resumed == 0
        # Without --resume the directory is rebound and re-run fresh.
        _, second, _ = run_parallel(tmp_path, run_dir=run_dir)
        assert second.metrics.shards_resumed == 0
        assert second.metrics.shards_done == N_CAMPAIGNS


class TestStatusSurface:
    def test_metrics_and_manifest_are_written_for_status_view(
            self, tmp_path):
        _, run, run_dir = run_parallel(tmp_path)
        journal = RunJournal(run_dir)
        manifest = journal.read_manifest()
        assert manifest["kind"] == "faults"
        assert len(manifest["shards"]) == N_CAMPAIGNS
        metrics = journal.read_metrics()
        assert metrics["shards_done"] == N_CAMPAIGNS
        assert metrics["events_total"] == run.metrics.events_total
        assert metrics["peak_rss_kb"] > 0
        # Worker accounting covers every shard exactly once.
        assert sum(w["shards"] for w in metrics["workers"].values()) \
            == N_CAMPAIGNS
