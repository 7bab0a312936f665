"""The shard worker: one process, one shard, one JSON result file.

``worker_entry`` is the ``multiprocessing`` target.  It executes the
shard described by a :class:`~repro.orchestrator.shards.ShardSpec`
dict and writes the :class:`~repro.orchestrator.shards.ShardResult`
payload to ``result_path`` with a write-to-temp-then-rename, so the
supervisor can treat "result file exists" as "shard completed":
a worker that crashed or was killed mid-shard leaves no file (or a
stray ``.tmp`` the next attempt overwrites), never a torn one.

Workers are deliberately dumb: no queues, no shared state, no retry
logic.  All supervision policy (timeouts, retries, quarantine) lives in
:mod:`~repro.orchestrator.supervisor`; all layout policy lives in
:mod:`~repro.orchestrator.shards`.  That split keeps the failure
semantics auditable — whatever a worker does, the worst outcome is a
missing result file.

The ``sabotage`` hook exists for the failure-path tests only: it lets a
spec ask the worker to SIGKILL itself, hang, or raise on attempts below
a threshold, which is how "a worker crashed mid-shard" is reproduced
deterministically inside the test suite.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Dict

try:  # Unix-only; absent on some platforms, so peak RSS degrades to 0.
    import resource
except ImportError:  # pragma: no cover - non-posix fallback
    resource = None


def _max_rss_kb() -> int:
    """Peak RSS of this worker in KiB (0 where unsupported)."""
    if resource is None:  # pragma: no cover - non-posix fallback
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS — keyed on the
    # platform, not the magnitude (a Darwin worker peaking under 1 GiB
    # must not be reported 1024x too large).
    return usage // 1024 if sys.platform == "darwin" else usage


def _apply_sabotage(sabotage, attempt: int) -> None:
    """Test-only failure injection, keyed on the attempt number."""
    if not sabotage or attempt >= int(sabotage.get("attempts", 1)):
        return
    kind = sabotage.get("kind")
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(float(sabotage.get("seconds", 3600)))
    elif kind == "exception":
        raise RuntimeError("sabotaged shard (test hook)")


def execute_shard(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Dispatch one shard spec dict to its kind's runner (in-process)."""
    from .campaigns import KINDS

    return KINDS[spec_dict["kind"]].run_shard(spec_dict["params"])


def worker_entry(spec_dict: Dict[str, object], attempt: int,
                 result_path: str) -> None:
    """Process target: run the shard, atomically publish the result."""
    started = time.monotonic()
    _apply_sabotage(spec_dict.get("sabotage"), attempt)
    payload = execute_shard(spec_dict)
    result = {
        "shard_id": spec_dict["shard_id"],
        "status": "ok",
        "payload": payload,
        "elapsed_s": time.monotonic() - started,
        "events_run": int(payload.get("events_run", 0)),
        "worker_pid": os.getpid(),
        "max_rss_kb": _max_rss_kb(),
        "attempt": attempt,
        "failures": [],
    }
    tmp_path = result_path + ".tmp.%d" % os.getpid()
    with open(tmp_path, "w") as handle:
        json.dump(result, handle, indent=2)
    os.replace(tmp_path, result_path)
