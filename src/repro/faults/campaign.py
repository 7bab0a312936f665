"""Seeded fault-injection campaigns over the conformance generator.

One *campaign* = one fault spec (plus optional concurrent extras) and
one event stream, replayed through the lockstep (cached PCU, oracle)
pair of a :class:`~repro.conformance.runner.ConformanceWorld` with a
periodic integrity-scrub watchdog.  The loop here is only the stream:
inject at each spec's event index, apply the event, stop at the first
divergence, scrub every ``scrub_interval`` events.  The
:class:`~repro.faults.session.FaultSession` owns the rest — backing,
injectors, scrubber, contract monitor, the final audit and the
four-way classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.conformance.events import generate_events
from repro.conformance.generator import make_backend
from repro.conformance.runner import CONFORMANCE_CONFIGS, ConformanceWorld

from .plan import FaultSpec
from .session import FaultMatrix, FaultRecord, FaultSession

#: Default watchdog period (events between scrubs).  Small enough that a
#: shared-memory fault is caught within one cache generation, large
#: enough that scrubbing stays a fraction of replay cost.
DEFAULT_SCRUB_INTERVAL = 64


@dataclass
class CampaignResult(FaultRecord):
    """Outcome of one abstract fault campaign."""

    campaign: int
    stream_seed: int
    spec: FaultSpec
    extra_specs: List[FaultSpec]
    classification: str
    events_run: int
    fired: bool
    detail: str
    divergence_index: Optional[int]
    detections: List[str]
    rollbacks: int
    escaped_faults: int
    scrub_repairs: int
    degraded_entries: int
    degraded_checks: int
    contract_violations: int
    unwaived_contract_violations: int
    contract_counts: Dict[str, int]


def run_campaign(
    backend_name: str,
    spec: FaultSpec,
    stream_seed: int,
    n_events: int,
    config: str = "stress",
    scrub_interval: int = DEFAULT_SCRUB_INTERVAL,
    campaign: int = 0,
    extra_specs: Sequence[FaultSpec] = (),
    contracts: bool = True,
) -> CampaignResult:
    """Replay one faulted stream in lockstep and classify the outcome.

    ``extra_specs`` schedules additional concurrent faults over the same
    stream (each with its own trigger), modelling multi-event upsets;
    the classification then answers for the *combined* damage.  With
    ``contracts`` (the default) the run is monitored against the
    universal contracts, seeded with ``stream_seed``.
    """
    world = ConformanceWorld(make_backend(backend_name),
                             CONFORMANCE_CONFIGS[config])
    session = FaultSession(world, (spec, *extra_specs), contracts=contracts,
                           seed=stream_seed, campaign=campaign)
    divergence_index: Optional[int] = None
    events_run = 0
    for index, event in enumerate(generate_events(stream_seed, n_events)):
        for injector in session.injectors:
            injector.on_event(index)
        outcome = session.run(world.apply, event)
        events_run = index + 1
        if outcome is None:
            continue
        cached, oracle = outcome
        if cached != oracle:
            divergence_index = index
            break
        if (scrub_interval and events_run % scrub_interval == 0
                and session.scrub().unrepairable):
            break

    shared = session.finish(divergence_index is not None)
    stats = world.pcu.stats
    return CampaignResult(
        stream_seed=stream_seed,
        events_run=events_run,
        divergence_index=divergence_index,
        degraded_entries=stats.degraded_entries,
        degraded_checks=stats.degraded_checks,
        **shared,
    )


@dataclass
class CampaignMatrix(FaultMatrix):
    """All abstract campaigns of one (backend, config) pair."""

    backend: str
    config: str
    seed: int
    n_events: int
    results: List[CampaignResult]

    FORMAT = "isagrid-fault-campaign-v2"
