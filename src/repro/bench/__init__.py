"""Benchmark orchestration (``python -m repro bench``).

The evaluation rigs (Tables 4/5, Figures 5–8, the gate-stress hit-rate
workload) are embarrassingly parallel per rig, so the bench runner is
one more campaign kind of the orchestrator — one shard per rig, run
in-process at ``--jobs 1`` or on the supervised worker pool with
checkpointed ``--resume`` and run metrics — and folds the per-rig
results into a ``BENCH_<stamp>.json`` trajectory: instructions/s and
wall-clock per rig, the perf baseline every future PR regresses
against.  ``--slow-path`` runs every rig with the PCU's
compiled verdict plan disabled, which is both the escape hatch and the
fast-vs-slow differential surface.
"""

from .report import (
    DEFAULT_REGRESSION_THRESHOLD,
    build_trajectory,
    compare_trajectories,
    load_trajectory,
    write_trajectory,
)
from .rigs import DEFAULT_RIGS, RIGS, BenchRig, resolve_rigs, run_rig

__all__ = [
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_RIGS",
    "RIGS",
    "BenchRig",
    "build_trajectory",
    "compare_trajectories",
    "load_trajectory",
    "resolve_rigs",
    "run_rig",
    "write_trajectory",
]
