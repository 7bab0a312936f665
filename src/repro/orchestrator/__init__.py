"""Parallel campaign orchestration (the scalability substrate).

Every heavy harness in this reproduction — the differential conformance
fuzzer, the fault, machine and churn campaigns and the attack
campaigns — boils down to "replay a seeded matrix of event
streams and merge the verdicts".  This package makes that one
operation, shared by every campaign family:

* :mod:`~repro.orchestrator.campaigns` — the :data:`KINDS` registry
  (one :class:`CampaignKind` per family) and :func:`run_campaign`,
  which plans, executes (in-process, or supervised for ``--jobs N``)
  and merges any campaign into one object per unit — for the fault
  families a matrix (``--jobs N`` is bit-compatible with ``--jobs 1``);
* :mod:`~repro.orchestrator.shards` — :func:`plan_shards`, the
  deterministic partitioning of a campaign's seed space into
  JSON-plain :class:`ShardSpec` units, with a layout that depends only
  on the campaign parameters (never on ``--jobs``), so parallelism can
  never change which streams run;
* :mod:`~repro.orchestrator.worker` — the dumb per-shard process that
  publishes its :class:`ShardResult` with an atomic rename;
* :mod:`~repro.orchestrator.supervisor` — the policy loop: per-shard
  timeouts, SIGKILL recovery with bounded retries on fresh workers, and
  poison-shard quarantine that records the offending seeds and moves on;
* :mod:`~repro.orchestrator.checkpoint` — journaled run directories
  whose shard files double as resume checkpoints (``--resume``);
* :mod:`~repro.orchestrator.metrics` — events/sec per worker, shard
  latency histogram, retry/quarantine counters and peak worker RSS,
  persisted per run and printable via
  ``python -m repro orchestrate --status``.

CLI: ``python -m repro faults --jobs 4`` /
``python -m repro conformance --jobs 4 --resume`` /
``python -m repro orchestrate --status``.
"""

from .campaigns import KINDS, RunDirConflict, run_campaign
from .checkpoint import (
    RunJournal,
    default_run_dir,
    latest_run_dir,
)
from .metrics import RunMetrics, render_metrics
from .shards import (
    FAULT_SHARDS_PER_UNIT,
    CampaignKind,
    ShardPlan,
    ShardResult,
    ShardSpec,
    plan_shards,
)
from .supervisor import (
    DEFAULT_MAX_RETRIES,
    SupervisedRun,
    Supervisor,
)
from .worker import execute_shard, worker_entry

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "FAULT_SHARDS_PER_UNIT",
    "KINDS",
    "CampaignKind",
    "RunDirConflict",
    "RunJournal",
    "RunMetrics",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "SupervisedRun",
    "Supervisor",
    "default_run_dir",
    "execute_shard",
    "latest_run_dir",
    "plan_shards",
    "render_metrics",
    "run_campaign",
    "worker_entry",
]
