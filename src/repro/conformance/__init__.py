"""Differential conformance subsystem (the executable specification).

Layered caches make the PCU fast and make its bugs silent: a stale fill
can grant or deny a privilege without any functional test noticing.
This package is the defence:

* :mod:`~repro.conformance.oracle` — a cache-free, bypass-free reference
  PCU sharing only the HPT/SGT trusted-memory tables with the real one;
* :mod:`~repro.conformance.events` — seeded generation of abstract
  (instruction, CSR access, gate, prefetch/flush, reconfigure) streams;
* :mod:`~repro.conformance.generator` — cross-ISA bindings rendering one
  abstract stream onto both the x86 and RISC-V instances;
* :mod:`~repro.conformance.runner` — the lockstep differential runner
  with delta-shrinking and JSON reproducer dumps.

CLI: ``python -m repro conformance --events 5000 --seed 0``.
"""

from .events import (
    Event,
    EventGenerator,
    canonicalize_events,
    generate_events,
    stream_key,
)
from .generator import BACKEND_NAMES, Backend, make_backend
from .oracle import OraclePcu
from .runner import (
    CONFORMANCE_CONFIGS,
    DEFAULT_CONFIGS,
    ConformanceResult,
    ConformanceWorld,
    DifferentialRunner,
    Divergence,
    Outcome,
    fuzz_backend,
    inject_cache_fill_bug,
    load_reproducer,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "CONFORMANCE_CONFIGS",
    "ConformanceResult",
    "ConformanceWorld",
    "DEFAULT_CONFIGS",
    "DifferentialRunner",
    "Divergence",
    "Event",
    "EventGenerator",
    "OraclePcu",
    "Outcome",
    "canonicalize_events",
    "fuzz_backend",
    "inject_cache_fill_bug",
    "generate_events",
    "load_reproducer",
    "make_backend",
    "stream_key",
]
