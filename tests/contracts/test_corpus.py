"""The committed regression corpus: one known-violating trace per contract.

Each ``corpus/*.json`` file is a minimal hand-written trace that a
specific contract must flag — a frozen reproducer for the class of bug
the contract exists to catch.  If a contract rewrite stops flagging its
corpus trace, these tests fail before any campaign does.  The
``*_block.json`` traces reproduce the same bugs through ``block``
events, one for each contract that consumes them.
"""

import glob
import json
import os

import pytest

from repro.contracts import (
    CONTRACT_CLASSES,
    CONTRACT_NAMES,
    TraceEvent,
    load_trace,
    replay_trace,
)

from .reference import expanded_stream

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_PATHS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _load(path):
    meta, events = load_trace(path)
    return meta, events


def test_corpus_covers_every_contract():
    covered = {_load(path)[0]["contract"] for path in CORPUS_PATHS}
    assert covered == set(CONTRACT_NAMES)


def test_block_corpus_covers_every_block_contract():
    covered = set()
    for path in CORPUS_PATHS:
        meta, events = _load(path)
        if any(event.kind == "block" for event in events):
            covered.add(meta["contract"])
    assert covered == {cls.name for cls in CONTRACT_CLASSES
                       if "block" in cls.vocabulary}


@pytest.mark.parametrize("path", CORPUS_PATHS,
                         ids=[os.path.basename(p) for p in CORPUS_PATHS])
class TestCorpusTrace:
    def test_flags_its_contract(self, path):
        meta, events = _load(path)
        monitor = replay_trace(events, geometry=meta["geometry"])
        counts = monitor.counts()
        assert counts[meta["contract"]] >= meta["expect_min_violations"]

    def test_no_unexpected_contract_fires(self, path):
        meta, events = _load(path)
        monitor = replay_trace(events, geometry=meta["geometry"])
        allowed = {meta["contract"]} | set(meta.get("also", ()))
        assert set(monitor.nonzero_counts()) <= allowed

    def test_violations_are_unwaived_without_a_fault(self, path):
        meta, events = _load(path)
        monitor = replay_trace(events, geometry=meta["geometry"])
        assert monitor.unwaived_violations == monitor.total_violations > 0

    def test_prepended_injection_waives_everything(self, path):
        meta, events = _load(path)
        armed = [TraceEvent(kind="fault", op="injected",
                            detail="corpus fault")] + events
        monitor = replay_trace(armed, geometry=meta["geometry"])
        assert monitor.total_violations > 0
        assert monitor.unwaived_violations == 0

    def test_blocks_count_as_their_expansion(self, path):
        meta, events = _load(path)
        as_block = replay_trace(events, geometry=meta["geometry"])
        as_checks = replay_trace(expanded_stream(events),
                                 geometry=meta["geometry"])
        assert as_block.counts() == as_checks.counts()

    def test_block_classes_roundtrip_through_json(self, path):
        _, events = _load(path)
        with open(path) as handle:
            raw = json.load(handle)["events"]
        for entry, event in zip(raw, events):
            if event.kind != "block":
                assert event.classes is None
                continue
            assert event.classes == tuple(entry["classes"])
            assert json.loads(json.dumps(event.to_dict())) == entry

    def test_trace_roundtrips_through_event_dicts(self, path):
        meta, events = _load(path)
        with open(path) as handle:
            raw = json.load(handle)["events"]
        assert [TraceEvent.from_dict(entry).to_dict()
                for entry in raw] == [event.to_dict() for event in events]
