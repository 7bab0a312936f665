"""The bench trajectory file (``BENCH_<stamp>.json``).

One trajectory file captures one full bench invocation: which rigs ran,
how much simulated work each did and the experiment's own numbers
(``detail``), plus the host wall-clock and instructions/s of each rig
for reading.  Nothing gates on the wall-clock figures: the simulator's
speed is measured by the ``perf/`` benchmark.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Sequence

FORMAT = "bench-trajectory-v1"


def build_trajectory(
    payloads: Sequence[Dict[str, object]],
    *,
    fast_path: bool = True,
    block_cache: bool = True,
) -> Dict[str, object]:
    """Assemble per-rig payloads into one trajectory document."""
    return {
        "format": FORMAT,
        "fast_path": bool(fast_path),
        "block_cache": bool(block_cache),
        "rigs": {payload["rig"]: {key: value
                                  for key, value in payload.items()
                                  if key != "rig"}
                 for payload in payloads},
    }


def write_trajectory(trajectory: Dict[str, object], path: str) -> str:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp.%d" % os.getpid()
    with open(tmp_path, "w") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path
