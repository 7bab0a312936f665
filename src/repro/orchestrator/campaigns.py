"""The campaign registry and the one path every campaign runs through.

Each campaign family — abstract faults, machine faults, tenant churn,
differential conformance and the unintended-instruction attacks — is
one :class:`~repro.orchestrator.shards.CampaignKind` in
:data:`KINDS`, holding only what differs between families: its axes,
whether units split into campaign ranges, the weight of one campaign,
the shard runner and the per-unit merge.  :func:`run_campaign` does the
rest for all of them: plan the shards, run them in this process or on
the supervised pool, and merge the payloads in plan order.

Both execution modes hand the merge the same JSON-plain payloads — an
in-process payload takes the same JSON round trip a worker's result
file does — so ``--jobs N`` writes the bytes ``--jobs 1`` writes by
construction.  Quarantined shards are the one exception: their
campaigns are missing from the merged units (recorded in the run
directory instead), which is precisely the "record the offending seed
instead of killing the run" trade the orchestrator makes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, Optional, Tuple

from repro.attacks.unintended import run_unintended_campaign
from repro.conformance.runner import fuzz_backend, inject_cache_fill_bug
from repro.faults import campaign as fault_campaign
from repro.faults.campaign import CampaignMatrix, CampaignResult
from repro.faults.churn import (
    ChurnCampaignResult,
    ChurnMatrix,
    run_churn_campaign,
)
from repro.faults.machine import (
    MachineCampaignMatrix,
    MachineCampaignResult,
    machine_geometry,
    run_planned_machine_campaign,
)
from repro.faults.plan import FaultPlan

from .checkpoint import RunJournal, default_run_dir
from .metrics import RunMetrics
from .shards import CampaignKind, ShardPlan, ShardResult, plan_shards
from .supervisor import DEFAULT_MAX_RETRIES, SupervisedRun, Supervisor


def _payload(results, work: str) -> Dict[str, object]:
    """A fault family's shard payload; ``events_run`` sums ``work``."""
    return {"results": [result.to_dict() for result in results],
            "events_run": sum(getattr(result, work) for result in results)}


def _run_faults(params: Dict[str, object]) -> Dict[str, object]:
    """Execute the campaign range ``[campaign_lo, campaign_hi)``.

    The shard re-derives the full :class:`~repro.faults.plan.FaultPlan`
    sequence from campaign 0 so the specs for its range are drawn from
    exactly the RNG state a one-pass run would have reached — the heart
    of the "``--jobs N`` never changes the streams" contract.
    """
    plan = FaultPlan(params["seed"])
    results = []
    for campaign in range(params["campaign_hi"]):
        specs = plan.draw_specs(campaign, params["n_events"],
                                count=params.get("faults_per_campaign", 1))
        if campaign < params["campaign_lo"]:
            continue  # drawn only to advance the plan's RNG
        results.append(fault_campaign.run_campaign(
            params["backend"], specs[0],
            stream_seed=params["seed"] + campaign,
            n_events=params["n_events"],
            config=params["config"],
            scrub_interval=params["scrub_interval"],
            campaign=campaign,
            extra_specs=specs[1:],
            contracts=params.get("contracts", True),
        ))
    return _payload(results, "events_run")


def _run_machine_faults(params: Dict[str, object]) -> Dict[str, object]:
    """Execute the machine-level campaign range ``[campaign_lo, campaign_hi)``.

    Unlike :func:`_run_faults` there is nothing to replay: machine
    campaigns use a per-campaign RNG, so drawing campaign ``k`` in a
    shard is byte-identical to drawing it in a one-pass loop.
    ``events_run`` reports simulated instructions.
    """
    return _payload([
        run_planned_machine_campaign(
            params["backend"], params["seed"], campaign,
            iterations=params["iterations"],
            faults_per_campaign=params.get("faults_per_campaign", 1),
            scrub_interval=params.get("scrub_interval"),
            pulse_interval=params.get("pulse_interval"),
            contracts=params.get("contracts", True),
            state_changing_pulses=params.get("state_changing_pulses", False),
        )
        for campaign in range(params["campaign_lo"], params["campaign_hi"])
    ], "instructions")


def _run_churn(params: Dict[str, object]) -> Dict[str, object]:
    """Execute the tenant-churn campaign range ``[campaign_lo, campaign_hi)``.

    Churn campaigns draw from a per-campaign RNG and seed their tenant
    stream ``seed + campaign``, so the shard runs exactly its range.
    ``events_run`` reports churn ops executed.
    """
    plan = FaultPlan(params["seed"])
    results = []
    for campaign in range(params["campaign_lo"], params["campaign_hi"]):
        specs = plan.draw_churn_specs(campaign, params["n_ops"])
        results.append(run_churn_campaign(
            params["backend"], specs[0],
            stream_seed=params["seed"] + campaign,
            n_ops=params["n_ops"],
            max_slots=params["max_slots"],
            config=params.get("config", "stress"),
            scrub_interval=params.get("scrub_interval", 0),
            campaign=campaign,
            extra_specs=specs[1:],
            contracts=params.get("contracts", True),
        ))
    return _payload(results, "ops_run")


def _run_conformance(params: Dict[str, object]) -> Dict[str, object]:
    """Fuzz one (backend, config) pair; the payload is its summary."""
    result = fuzz_backend(
        params["backend"], params["seed"], params["n_events"],
        config=params["config"],
        mutate=inject_cache_fill_bug if params.get("inject_bug") else None,
        dump_dir=params.get("dump_dir"),
        scrub_interval=params.get("scrub_interval", 0),
        contracts=params.get("contracts", True),
    )
    payload = result.summary()
    payload["events_run"] = result.events
    return payload


def _run_attacks(params: Dict[str, object]) -> Dict[str, object]:
    """Run one seed's scanner-vs-PCU campaign; ``events_run`` counts
    the PCU checks it issued."""
    result = run_unintended_campaign(
        params["seed"], params["n_streams"], params["stream_len"],
        contracts=params.get("contracts", True))
    return {"campaign": result.to_dict(),
            "events_run": result.legit_checks + len(result.gadgets)}


def _matrix(matrix_cls, result_cls, *fields: str):
    """Merge for a splitting kind: ``matrix_cls(*unit fields, results)``
    over the unit's campaign results, in campaign order."""
    def merge(unit, payloads):
        return matrix_cls(*(unit[name] for name in fields),
                          [result_cls.from_dict(entry) for payload in payloads
                           for entry in payload["results"]])
    return merge


#: Every campaign family, by name.
KINDS: Dict[str, CampaignKind] = {kind.name: kind for kind in (
    CampaignKind(
        "faults", "faults", ("backends", "configs"), split=True,
        weight=lambda unit: unit["n_events"], run_shard=_run_faults,
        merge=_matrix(CampaignMatrix, CampaignResult,
                      "backend", "config", "seed", "n_events")),
    CampaignKind(
        "machine_faults", "mfaults", ("backends",), split=True,
        weight=lambda unit: machine_geometry(
            unit["backend"], unit["iterations"], unit.get("scrub_interval"),
            unit.get("pulse_interval")).n_steps,
        run_shard=_run_machine_faults,
        merge=_matrix(MachineCampaignMatrix, MachineCampaignResult,
                      "backend", "seed", "iterations")),
    CampaignKind(
        "churn", "churn", ("backends",), split=True,
        weight=lambda unit: unit["n_ops"], run_shard=_run_churn,
        merge=_matrix(ChurnMatrix, ChurnCampaignResult,
                      "backend", "seed", "n_ops", "max_slots")),
    CampaignKind(
        "conformance", "conformance", ("backends", "configs"), split=False,
        weight=lambda unit: unit["n_events"], run_shard=_run_conformance,
        merge=lambda unit, payloads: payloads[0]),
    CampaignKind(
        "attacks", "attacks", ("seeds",), split=False,
        weight=lambda unit: unit["n_streams"] * unit["stream_len"],
        run_shard=_run_attacks,
        merge=lambda unit, payloads: payloads[0]["campaign"]),
)}


class RunDirConflict(ValueError):
    """``resume`` named a run directory bound to a different campaign."""


def run_campaign(
    kind: CampaignKind,
    params: Dict[str, object],
    *,
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    on_shard_done: Optional[Callable[[ShardResult], None]] = None,
    sabotage: Optional[Dict[str, Dict[str, object]]] = None,
) -> Tuple[list, Optional[SupervisedRun], Optional[str]]:
    """Plan ``params`` into shards, execute them, merge the payloads.

    Returns ``(merged, run, run_dir)``: ``merged`` holds one
    ``kind.merge`` result per unit, in plan order.  With ``jobs == 1``
    and no ``resume`` or ``run_dir`` the shards run one after another
    in this process and ``run`` and ``run_dir`` are None.
    Otherwise they run on the supervised pool — per-shard timeouts,
    bounded retries, quarantine, checkpoints in ``run_dir`` (default:
    derived from the plan fingerprint).  A unit merges whatever shards
    completed, and a unit none of whose shards completed is left out.

    ``on_shard_done``, ``max_retries`` and ``sabotage`` (shard id ->
    test-only failure hook, see :mod:`~repro.orchestrator.worker`) only
    apply to the supervised pool.  Raises :class:`RunDirConflict` when
    ``resume`` names a run directory bound to a different plan.
    """
    plan = plan_shards(kind, params)
    if jobs == 1 and not (resume or run_dir):
        payloads = {spec.shard_id: kind.run_shard(spec.params)
                    for spec in plan.shards}
        # The round trip a worker's result file puts its payload through.
        payloads = json.loads(json.dumps(payloads))
        return _merge(kind, plan, payloads), None, None
    sabotage = sabotage or {}
    specs = [dataclasses.replace(spec, sabotage=sabotage.get(spec.shard_id))
             for spec in plan.shards]
    run_dir = run_dir or default_run_dir(plan)
    journal = RunJournal(run_dir)
    try:
        journal.bind(plan, resume=resume)
    except ValueError as error:
        raise RunDirConflict(str(error)) from None
    supervisor = Supervisor(jobs=jobs, shard_timeout=shard_timeout,
                            max_retries=max_retries)
    run = supervisor.run(specs, journal, RunMetrics(jobs=jobs),
                         on_shard_done=on_shard_done)
    payloads = {result.shard_id: result.payload for result in run.results}
    return _merge(kind, plan, payloads), run, run_dir


def _merge(kind: CampaignKind, plan: ShardPlan,
           payloads: Dict[str, Dict[str, object]]) -> list:
    """Group payloads by unit in plan order; merge each non-empty unit."""
    units: Dict[tuple, Tuple[Dict[str, object], list]] = {}
    for spec in plan.shards:
        key = tuple(spec.params[name] for name in kind.unit_keys)
        _, found = units.setdefault(key, (spec.params, []))
        if spec.shard_id in payloads:
            found.append(payloads[spec.shard_id])
    return [kind.merge(unit, found) for unit, found in units.values()
            if found]
