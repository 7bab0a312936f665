"""Universal contracts: machine-checkable ISA-Grid guarantees.

The paper states its security argument as a handful of informal
invariants — no instruction retires without its inst-bitmap bit, every
domain switch goes through a registered gate, trusted memory is only
written from domain-0.  Following the universal-contract framing
(PAPERS.md), this package states those invariants as stateful checkers
over a normalized trace vocabulary and enforces them over every event
stream the repo already generates: conformance fuzzing, abstract fault
campaigns and machine-level lockstep runs.  See DESIGN §3.16.

Pure Python over plain records — no dependency on the core models —
so committed traces replay as regression tests without a simulator.
"""

from .contracts import (
    CONTRACT_CLASSES,
    CONTRACT_NAMES,
    Contract,
    CoherenceAfterRevokeContract,
    CsrRetirementContract,
    GateOnlySwitchContract,
    InstRetirementContract,
    NoStaleGenerationContract,
    RollbackAtomicityContract,
    TrustedMemConfinementContract,
    make_contracts,
)
from .events import MEM_ORIGINS, RECONFIG_OPS, TRACE_EVENT_KINDS, TraceEvent
from .monitor import (
    ContractMonitor,
    ContractViolation,
    StreamError,
    load_trace,
    replay_trace,
)

__all__ = [
    "CONTRACT_CLASSES",
    "CONTRACT_NAMES",
    "Contract",
    "ContractMonitor",
    "ContractViolation",
    "CoherenceAfterRevokeContract",
    "CsrRetirementContract",
    "GateOnlySwitchContract",
    "InstRetirementContract",
    "MEM_ORIGINS",
    "NoStaleGenerationContract",
    "RECONFIG_OPS",
    "RollbackAtomicityContract",
    "StreamError",
    "TRACE_EVENT_KINDS",
    "TraceEvent",
    "TrustedMemConfinementContract",
    "load_trace",
    "make_contracts",
    "replay_trace",
]
