"""One fault campaign's plumbing, shared by every campaign family.

The abstract (:mod:`~repro.faults.campaign`), machine
(:mod:`~repro.faults.machine`) and churn (:mod:`~repro.faults.churn`)
campaigns differ only in their world and their loop: conformance
events, machine pause points, churn ops.  Everything else is here, once:

* :class:`FaultSession` interposes a :class:`FaultyWordBacking` under
  the world's trusted memory, builds one :class:`FaultInjector` per
  spec, the :class:`IntegrityScrubber` and (optionally) a
  :class:`~repro.contracts.monitor.ContractMonitor` whose waiver probe
  attributes violations to fired injected faults, settles injected
  store faults, runs the scrub watchdog and the final audit, and
  classifies the campaign;
* :class:`FaultRecord` and :class:`FaultMatrix` are the result and
  per-unit matrix cores: one ``to_dict``/``from_dict``, one set of
  counts and gates, one report writer.

Each campaign classifies as exactly one of:

* ``detected_recovered`` — something fired (scrub repair, transactional
  rollback, degraded-mode entry) and the run finished lockstep-clean
  with a clean final audit;
* ``detected_halted`` — corruption was detected but could not be
  repaired (live stack frame), a detector outside the scrubber halted
  the core (the machine watchdog), or it was detected only after the
  implementations had already diverged;
* ``benign`` — the fault landed somewhere architecture never looked (a
  dead stack word, an already-set bit, an evicted cache line): no
  divergence, nothing to detect, clean final audit;
* ``silent_divergence`` — the PCU and the oracle disagreed and *no*
  detection mechanism fired, then or at the post-divergence audit.  For
  privilege-widening faults this count must be zero: it would mean a
  fault can grant privilege invisibly.

Faults in the *shared* trusted-memory words can never show up as
lockstep divergence (the oracle reads the same words), so they must be
caught by the scrub watchdog — that is precisely what the
memory-vs-mirror checksums are for.  Cache/bypass/Draco faults are
invisible to the scrubber's memory pass but diverge in lockstep, and
the post-divergence audit must then pin the blame on the cache layer.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

from repro.core.errors import InjectedFault

from .injector import FaultInjector, FaultyWordBacking
from .plan import FaultSpec
from .scrub import IntegrityScrubber, ScrubReport

CLASSIFICATIONS = (
    "detected_recovered", "detected_halted", "benign", "silent_divergence",
)

#: Kinds whose injector arms a failing store.  An injected store fault
#: that fired with no recorded owner (a test arming the backing
#: directly) is credited to the first injector, in spec order, of one
#: of these kinds.  Every arming site in the injector passes its owner.
_STORE_KINDS = ("store_fault", "commit_store_fault", "commit_flip_journalled",
                "recycle_store_fault")


class FaultSession:
    """The backing, injectors, scrubber and monitor of one campaign.

    ``world`` is duck-typed to
    :class:`~repro.conformance.runner.ConformanceWorld` (``pcu``,
    ``manager``, ``backend``, ``trusted_memory``, ``slot_ids``).  The
    faulty backing goes *under* the already-initialised trusted memory,
    so existing words carry over untouched.  With ``contracts`` the run
    is judged by a monitor seeded with ``seed``: an injected HPT flip
    legitimately makes verdicts disagree with the contract shadow, so
    violations while a fault has fired are waived; unwaived ones are
    genuine guarantee breaches.
    """

    def __init__(self, world, specs: Sequence[FaultSpec], *, contracts: bool,
                 seed: int, campaign: int):
        memory = world.trusted_memory
        self.backing = FaultyWordBacking(memory._backing,
                                         trusted_memory=memory)
        memory._backing = self.backing
        self.campaign = campaign
        self.specs = list(specs)
        self.injectors = [FaultInjector(world, self.backing, spec)
                          for spec in self.specs]
        self.scrubber = IntegrityScrubber(world.pcu, world.manager)
        self.stats = world.pcu.stats
        self.detections: List[str] = []
        #: Injected store faults that fired with no transaction open
        #: (e.g. a gate-event trusted-stack push).  Nothing rolled back,
        #: so these are *not* detections.
        self.escaped_faults = 0
        self.halted = False
        self.monitor = None
        if contracts:
            from repro.contracts import ContractMonitor

            self.monitor = ContractMonitor(seed=seed, campaign=campaign)
            self.monitor.attach(world.pcu, world.manager)
            self.monitor.waiver_probe = self._waiver

    def _waiver(self) -> Optional[str]:
        backing = self.backing
        if any(i.fired for i in self.injectors) or backing.store_faults_fired:
            return ("; ".join(i.detail for i in self.injectors if i.fired)
                    or backing.last_fired_detail or "injected fault")
        return None

    def _fault_owner(self) -> FaultInjector:
        if self.backing.last_fired_owner is not None:
            return self.backing.last_fired_owner
        return next((i for i in self.injectors if i.spec.kind in _STORE_KINDS),
                    self.injectors[0])

    def run(self, action, *args, **kwargs):
        """``action(*args, **kwargs)``, settling an injected store fault.

        Returns the action's result, or None when an
        :class:`InjectedFault` escaped it (so an action that itself
        returns None cannot tell the two apart).  A rollback is credited
        only when the DomainManager actually rolled a transaction back
        during the action: a store can just as well fail outside any
        commit window (a gate-event trusted-stack push, a scrub repair),
        and crediting a phantom recovery there would upgrade genuine
        half-written corruption to ``detected_recovered``.
        """
        rollbacks_before = self.stats.reconfig_rollbacks
        try:
            return action(*args, **kwargs)
        except InjectedFault:
            if self.stats.reconfig_rollbacks > rollbacks_before:
                self._fault_owner().note_rollback()
            else:
                self._fault_owner().note_escaped()
                self.escaped_faults += 1
            return None

    def scrub(self) -> ScrubReport:
        """One scrub pass, noted as detections; halts on unrepairable damage.

        A still-armed store fault can fire on a scrub *repair* store;
        that interrupted pass is itself an escaped, non-transactional
        fault.  The fault is one-shot, so the retry completes.
        """
        report = self.run(self.scrubber.scrub)
        if report is None:
            report = self.scrubber.scrub()
        if report.memory_repairs:
            self.detections.append("scrub repaired %d word(s)"
                                   % report.memory_repairs)
        self.detections.extend(report.cache_detections)
        self.detections.extend("UNREPAIRABLE: " + u
                               for u in report.unrepairable)
        if report.unrepairable:
            self.halted = True
        return report

    def halt(self, detection: str) -> None:
        """A detector outside the scrubber halted the core."""
        self.detections.append(detection)
        self.halted = True

    def finish(self, diverged: bool) -> Dict[str, object]:
        """Run the final audit and classify; return the shared result fields.

        The audit always runs: after a divergence it is the "why did we
        diverge" post-mortem; on a clean run it catches anything the
        watchdog cadence missed.
        """
        audit = self.scrub()
        injectors = self.injectors
        rollbacks = sum(i.rollbacks_seen for i in injectors)
        # Escaped (non-transactional) store faults are deliberately absent
        # here: nothing detected or recovered anything, so they only shape
        # the outcome through what the lockstep diff and the audit saw.
        detected = bool(self.detections) or rollbacks > 0
        if diverged:
            classification = ("detected_halted" if detected
                              else "silent_divergence")
        elif self.halted:
            classification = "detected_halted"
        elif detected:
            # Recovery claim: the final audit must either have found
            # nothing (the watchdog already repaired everything) or its
            # own repairs must verify in place.
            classification = ("detected_recovered"
                              if audit.clean
                              or self.scrubber.verify_repaired(audit)
                              else "detected_halted")
        else:
            classification = "benign"
        monitor = self.monitor
        return {
            "campaign": self.campaign,
            "spec": self.specs[0],
            "extra_specs": self.specs[1:],
            "classification": classification,
            "fired": any(i.fired for i in injectors),
            "detail": "; ".join(i.detail for i in injectors),
            "detections": self.detections,
            "rollbacks": rollbacks,
            "escaped_faults": self.escaped_faults,
            "scrub_repairs": self.stats.scrub_repairs,
            "contract_violations": (0 if monitor is None
                                    else monitor.total_violations),
            "unwaived_contract_violations": (
                0 if monitor is None else monitor.unwaived_violations),
            "contract_counts": ({} if monitor is None
                                else monitor.nonzero_counts()),
        }


#: Result fields that are not JSON-plain as stored: name -> (encode,
#: decode).  Churn's stall histogram is keyed by int, JSON by string.
_CODECS = {
    "spec": (FaultSpec.to_dict, FaultSpec.from_dict),
    "extra_specs": (lambda specs: [s.to_dict() for s in specs],
                    lambda specs: [FaultSpec.from_dict(s) for s in specs]),
    "latency": (lambda hist: {str(k): v for k, v in sorted(hist.items())},
                lambda hist: {int(k): v for k, v in hist.items()}),
}


class FaultRecord:
    """What the campaign result dataclasses share.

    Each family declares its fields in report key order, the
    :meth:`FaultSession.finish` fields among its own, so one
    ``to_dict``/``from_dict`` pair serves every family.  The contract
    fields are DESIGN §3.16's accounting: violations the monitor
    attributed to a fired injected fault are waived, and an unwaived
    one fails the campaign report.
    """

    @property
    def widening(self) -> bool:
        """Could *any* fault in this campaign grant withheld privilege?"""
        return self.spec.widening or any(s.widening for s in self.extra_specs)

    def to_dict(self) -> Dict[str, object]:
        data = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name in _CODECS:
                value = _CODECS[field.name][0](value)
            data[field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        return cls(**{name: _CODECS[name][1](value) if name in _CODECS
                      else value for name, value in data.items()})


#: Matrix unit fields whose report key differs from the field name.
_UNIT_KEYS = {"n_events": "events", "n_ops": "ops"}


class FaultMatrix:
    """All campaigns of one unit: tallies, ``to_dict`` and the report.

    Each family is a dataclass of its unit fields (in report order)
    followed by ``results``; it names its report ``FORMAT`` and may add
    totals through the ``_totals``/``_report_*`` hooks.
    """

    FORMAT = ""

    @property
    def counts(self) -> Dict[str, int]:
        counter = Counter(r.classification for r in self.results)
        return {name: counter.get(name, 0) for name in CLASSIFICATIONS}

    @property
    def widening_silent(self) -> list:
        """The must-be-empty set: widening faults that diverged silently."""
        return [r for r in self.results
                if r.classification == "silent_divergence" and r.widening]

    @property
    def rollbacks(self) -> int:
        return sum(r.rollbacks for r in self.results)

    @property
    def contract_violations(self) -> int:
        return sum(r.contract_violations for r in self.results)

    @property
    def unwaived_contract_violations(self) -> int:
        """The must-be-zero set: contract breaches no fault accounts for."""
        return sum(r.unwaived_contract_violations for r in self.results)

    def _totals(self) -> Dict[str, object]:
        """The matrix keys between ``widening_silent_divergences`` and
        ``results``."""
        return {"contract_violations": self.contract_violations,
                "unwaived_contract_violations":
                    self.unwaived_contract_violations}

    def to_dict(self) -> Dict[str, object]:
        unit = {_UNIT_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self) if f.name != "results"}
        return {
            **unit,
            "campaigns": len(self.results),
            "classification_counts": self.counts,
            "widening_silent_divergences": len(self.widening_silent),
            **self._totals(),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def _report_lead(cls, matrices) -> Dict[str, object]:
        """Report keys before ``contract_counts``."""
        return {}

    @classmethod
    def _report_tail(cls, matrices) -> Dict[str, object]:
        """Report keys after ``unwaived_contract_violations``."""
        return {}

    @classmethod
    def write_report(cls, matrices: List["FaultMatrix"],
                     path: str) -> Dict[str, object]:
        """Aggregate ``matrices`` (possibly none) into one JSON report."""
        from repro.contracts import CONTRACT_NAMES

        totals: "Counter[str]" = Counter()
        contract_totals: "Counter[str]" = Counter()
        for matrix in matrices:
            totals.update(matrix.counts)
            for result in matrix.results:
                contract_totals.update(result.contract_counts)
        payload = {
            "format": cls.FORMAT,
            "classification_counts": {name: totals.get(name, 0)
                                      for name in CLASSIFICATIONS},
            "widening_silent_divergences": sum(len(m.widening_silent)
                                               for m in matrices),
            **cls._report_lead(matrices),
            "contract_counts": {name: contract_totals.get(name, 0)
                                for name in CONTRACT_NAMES},
            "unwaived_contract_violations": sum(
                m.unwaived_contract_violations for m in matrices),
            **cls._report_tail(matrices),
            "matrices": [matrix.to_dict() for matrix in matrices],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
        return payload
