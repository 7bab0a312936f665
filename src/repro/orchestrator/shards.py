"""Shard planning: deterministic partitioning of a campaign's seed space.

A *shard* is the orchestrator's unit of distribution: one self-contained
slice of a campaign matrix that a worker process can execute without
talking to anyone else, described entirely by JSON-serializable
parameters.  Two invariants make parallel runs trustworthy:

* **Seed-space determinism** — the shard layout is a pure function of
  the campaign parameters (backends, configs, seed, event and campaign
  counts), never of ``--jobs``, worker scheduling, or a previous run's
  state.  ``--jobs 4`` therefore generates exactly the streams that
  ``--jobs 1`` generates, and a resumed run slots its completed shards
  back into the same layout.
* **Order-independent merging** — the merge step walks the plan, not
  the order results arrived in, so it reassembles results in canonical
  matrix order no matter which worker finished first.

Shard granularity: every campaign family is a :class:`CampaignKind`,
and :func:`plan_shards` is the one planner for all of them.  A *unit*
is one point of the kind's axes — a (backend, config) pair, a backend
or a seed.  The conformance fuzzer replays one stateful stream per
unit, so the unit is its smallest splittable slice.  Fault, machine
and churn campaigns are independent per campaign index, so their units
are further chunked into contiguous campaign ranges; the chunk size is
derived from the campaign count alone (see
:data:`FAULT_SHARDS_PER_UNIT`) so the layout survives re-planning with
a different worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: How many shards one (backend, config) fault unit is split into, at
#: most.  A policy constant, not a tunable: changing it changes shard
#: ids and orphans the checkpoints of in-flight runs.
FAULT_SHARDS_PER_UNIT = 8


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained slice of a campaign, ready to hand a worker.

    ``params`` must stay JSON-plain: it crosses the process boundary as
    the worker's whole world view.  ``sabotage`` is a test-only hook the
    failure-path tests use to make a worker crash, hang or raise on a
    chosen attempt; production planners never set it.
    """

    shard_id: str
    kind: str                      # a CampaignKind.name, e.g. "faults"
    params: Dict[str, object] = field(default_factory=dict, hash=False)
    weight: int = 0                # events this shard replays (metrics)
    sabotage: Optional[Dict[str, object]] = field(default=None, hash=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "params": dict(self.params),
            "weight": self.weight,
            "sabotage": dict(self.sabotage) if self.sabotage else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardSpec":
        return cls(
            shard_id=data["shard_id"],
            kind=data["kind"],
            params=dict(data.get("params") or {}),
            weight=int(data.get("weight") or 0),
            sabotage=dict(data["sabotage"]) if data.get("sabotage") else None,
        )


@dataclass
class ShardResult:
    """What came back from one shard: payload plus run accounting."""

    shard_id: str
    status: str                    # "ok" | "quarantined"
    payload: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0
    events_run: int = 0
    worker_pid: int = 0
    max_rss_kb: int = 0
    attempt: int = 0
    failures: List[str] = field(default_factory=list)
    cached: bool = False           # satisfied from the resume journal

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "status": self.status,
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
            "events_run": self.events_run,
            "worker_pid": self.worker_pid,
            "max_rss_kb": self.max_rss_kb,
            "attempt": self.attempt,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardResult":
        return cls(
            shard_id=data["shard_id"],
            status=data.get("status", "ok"),
            payload=data.get("payload") or {},
            elapsed_s=float(data.get("elapsed_s") or 0.0),
            events_run=int(data.get("events_run") or 0),
            worker_pid=int(data.get("worker_pid") or 0),
            max_rss_kb=int(data.get("max_rss_kb") or 0),
            attempt=int(data.get("attempt") or 0),
            failures=list(data.get("failures") or []),
        )


@dataclass
class ShardPlan:
    """The full deterministic shard layout of one orchestrated run."""

    kind: str
    params: Dict[str, object]      # the campaign-level parameters
    shards: List[ShardSpec]

    @property
    def total_weight(self) -> int:
        return sum(shard.weight for shard in self.shards)

    def fingerprint(self) -> str:
        """Content hash of the layout: the resume-compatibility key.

        Two plans with the same fingerprint generate identical streams
        shard for shard, so their checkpoints are interchangeable.
        """
        digest = hashlib.sha256()
        digest.update(json.dumps(self.params, sort_keys=True).encode())
        for shard in self.shards:
            digest.update(shard.shard_id.encode())
        return digest.hexdigest()[:16]


def _fault_chunk(n_campaigns: int) -> int:
    """Campaigns per fault shard — a function of the matrix size only."""
    return max(1, -(-n_campaigns // FAULT_SHARDS_PER_UNIT))


@dataclass(frozen=True)
class CampaignKind:
    """What one campaign family adds to the shared plan/run/merge path.

    Everything else — planning, in-process or supervised execution,
    checkpoints, merging in plan order — is common to every kind.
    """

    name: str                      # ShardSpec.kind; the registry key
    prefix: str                    # shard-id prefix
    #: List-valued plan params whose product is the set of units, e.g.
    #: ``("backends", "configs")``.  A shard sees each axis under its
    #: singular name (``backend``, ``config``) — see :attr:`unit_keys`.
    axes: Tuple[str, ...]
    #: Chunk each unit into ``[campaign_lo, campaign_hi)`` ranges of
    #: ``params["n_campaigns"]``.
    split: bool
    #: Simulated work of one campaign of a unit (shard params in), for
    #: the run metrics' events/sec.
    weight: Callable[[Dict[str, object]], int]
    #: Shard params -> JSON-plain payload; ``events_run`` is metrics.
    run_shard: Callable[[Dict[str, object]], Dict[str, object]]
    #: (a unit's shard params, its payloads in plan order) -> the
    #: family's object for that unit (a fault family's matrix).
    merge: Callable[[Dict[str, object], List[Dict[str, object]]], object]

    @property
    def unit_keys(self) -> Tuple[str, ...]:
        """The shard-param name of each axis (``backends`` -> ``backend``)."""
        return tuple(axis[:-1] for axis in self.axes)


def plan_shards(kind: CampaignKind, params: Dict[str, object]) -> ShardPlan:
    """Lay one campaign of ``kind`` out as shards, in canonical order.

    ``params`` are the campaign-level parameters: one list per axis of
    ``kind`` plus scalars shared by every shard.  Each shard's params
    are the scalars plus its unit's axis values (and, for a splitting
    kind, its campaign range).  Flags that default off
    (``state_changing_pulses``, ``inject_bug``) belong in ``params``
    only when set, so a plain run keeps the plan fingerprint — and the
    run directory — it had before the flag existed.
    """
    scalars = {key: value for key, value in params.items()
               if key not in kind.axes}
    shards: List[ShardSpec] = []
    for unit in itertools.product(*(params[axis] for axis in kind.axes)):
        unit_params = dict(zip(kind.unit_keys, unit), **scalars)
        unit_id = "-".join([kind.prefix] + [str(value) for value in unit])
        weight = kind.weight(unit_params)
        if not kind.split:
            shards.append(ShardSpec(unit_id, kind.name, unit_params, weight))
            continue
        n_campaigns = params["n_campaigns"]
        chunk = _fault_chunk(n_campaigns)
        for lo in range(0, n_campaigns, chunk):
            hi = min(lo + chunk, n_campaigns)
            shards.append(ShardSpec(
                "%s-c%04d-c%04d" % (unit_id, lo, hi), kind.name,
                dict(unit_params, campaign_lo=lo, campaign_hi=hi),
                (hi - lo) * weight,
            ))
    return ShardPlan(kind=kind.name, params=dict(params), shards=shards)
