"""Fault injection, integrity scrubbing and recovery (robustness layer).

The security argument of ISA-Grid assumes the HPT/SGT/trusted-stack
state is exactly what domain-0 configured.  This package stress-tests
that assumption: seeded :class:`FaultPlan` campaigns flip bits in
trusted memory, corrupt or stick privilege-cache lines, swallow
coherence sweeps and fail stores mid-reconfiguration, while the
:class:`IntegrityScrubber` (checksums + cache re-verification + stack
digest), the PCU's degraded mode and the DomainManager's transactional
reconfiguration try to detect and contain the damage.

Three campaign families share one :class:`FaultSession` (backing,
injectors, scrubber, contract waivers, final audit and classification)
and one result/matrix/report core; each family is only its world and
its loop: :mod:`.campaign` replays conformance events, :mod:`.machine`
pauses a running kernel, :mod:`.churn` applies tenant-churn ops.  The
orchestrator's shard runners loop over campaign ranges, and each
matrix class writes its family's report (``write_report``).

CLI: ``python -m repro faults --events 2000 --seed 0 --campaign 50``.
"""

from .campaign import (
    DEFAULT_SCRUB_INTERVAL,
    CampaignMatrix,
    CampaignResult,
    run_campaign,
)
from .churn import (
    DEFAULT_CHURN_OPS,
    DEFAULT_SLOTS,
    ChurnCampaignResult,
    ChurnMatrix,
    ChurnWorld,
    latency_percentiles,
    run_churn_campaign,
)
from .injector import FaultInjector, FaultyWordBacking
from .machine import (
    DEFAULT_MACHINE_ITERATIONS,
    MACHINE_BACKENDS,
    LockstepMonitor,
    MachineCampaignMatrix,
    MachineCampaignResult,
    MachineWorld,
    ReconfigPulser,
    machine_geometry,
    run_machine_campaign,
    run_planned_machine_campaign,
)
from .plan import (
    CACHE_MODULES,
    CHURN_FAULT_KINDS,
    FAULT_KINDS,
    MACHINE_FAULT_KINDS,
    TRIGGER_KINDS,
    FaultPlan,
    FaultSpec,
)
from .scrub import IntegrityScrubber, ScrubReport, make_scrubber
from .session import CLASSIFICATIONS, FaultSession

__all__ = [
    "CACHE_MODULES",
    "CHURN_FAULT_KINDS",
    "CLASSIFICATIONS",
    "CampaignMatrix",
    "CampaignResult",
    "ChurnCampaignResult",
    "ChurnMatrix",
    "ChurnWorld",
    "DEFAULT_CHURN_OPS",
    "DEFAULT_MACHINE_ITERATIONS",
    "DEFAULT_SCRUB_INTERVAL",
    "DEFAULT_SLOTS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSession",
    "FaultSpec",
    "FaultyWordBacking",
    "IntegrityScrubber",
    "LockstepMonitor",
    "MACHINE_BACKENDS",
    "MACHINE_FAULT_KINDS",
    "MachineCampaignMatrix",
    "MachineCampaignResult",
    "MachineWorld",
    "ReconfigPulser",
    "ScrubReport",
    "TRIGGER_KINDS",
    "latency_percentiles",
    "machine_geometry",
    "make_scrubber",
    "run_campaign",
    "run_churn_campaign",
    "run_machine_campaign",
    "run_planned_machine_campaign",
]
