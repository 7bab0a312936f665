"""The differential runner: clean runs, mutation smoke checks, shrinking.

The mutation smoke checks are the acceptance test of the whole
subsystem: an intentionally injected cache-fill bug (and, separately, a
suppressed coherence sweep) must produce a divergence, shrink to a small
reproducer, and round-trip through the JSON dump.
"""

import json
from collections import Counter

import pytest

from repro.conformance import (
    BACKEND_NAMES,
    CONFORMANCE_CONFIGS,
    ConformanceWorld,
    DifferentialRunner,
    Event,
    fuzz_backend,
    generate_events,
    load_reproducer,
    make_backend,
)


def corrupt_inst_fills(pcu):
    """The canonical injected bug: every instruction-bitmap cache fill
    flips the allow-bit of class 0."""
    cache = pcu.hpt_cache.inst
    original = cache.fill
    cache.fill = lambda tag, payload: original(tag, payload ^ 1)


def suppress_invalidation(pcu):
    """A coherence bug: reconfiguration never sweeps the caches, so
    stale fills outlive the HPT edits they contradict."""
    pcu.invalidate_privileges = lambda *args, **kwargs: None


class TestEventStreams:
    def test_generation_is_deterministic(self):
        assert generate_events(11, 200) == generate_events(11, 200)
        assert generate_events(11, 200) != generate_events(12, 200)

    def test_events_roundtrip_through_json(self):
        for event in generate_events(5, 150):
            encoded = json.loads(json.dumps(event.to_dict()))
            assert Event.from_dict(encoded) == event


class TestCleanRuns:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("config", ("stress", "draco", "flush"))
    def test_zero_divergences(self, backend, config):
        result = fuzz_backend(backend, seed=1, count=600, config=config)
        assert result.clean, result.divergence.describe()
        assert result.outcomes.get("ok", 0) > 0
        assert any(key.endswith("Fault") for key in result.outcomes)

    def test_cross_isa_outcomes_identical(self):
        """One abstract stream must produce the same outcome sequence on
        both backends — the privilege model is ISA-independent."""
        events = generate_events(3, 400)
        statuses = {}
        for name in BACKEND_NAMES:
            world = ConformanceWorld(make_backend(name),
                                     CONFORMANCE_CONFIGS["stress"])
            outcomes = [world.apply(event) for event in events]
            for cached, oracle in outcomes:
                assert cached == oracle
            statuses[name] = [oracle.status for _, oracle in outcomes]
        assert statuses["riscv"] == statuses["x86"]

    def test_scrub_watchdog_runs_clean(self):
        """Every scrub of a fault-free replay comes back clean."""
        runner = DifferentialRunner("riscv", config="stress",
                                    scrub_interval=64)
        events = generate_events(0, 300)  # setup events come first
        assert runner.replay(events) is None
        assert runner.scrubs_run == len(events) // 64 > 0
        assert runner.scrub_detections == []


class TestDirectCachedSide:
    """The cached side of a world calls the PCU and DomainManager
    directly: each data-path event is one PCU call, its fault is the
    PCU's own, and only the event vocabulary reaches the manager."""

    def _enter_slot1(self, world):
        world.apply(Event("register_gate", gate=0, domain=1))
        cached, oracle = world.apply(
            Event("gate", kind="hccall", gate=0, site_ok=True))
        assert cached == oracle and cached.status == "ok"

    def test_check_event_reaches_pcu(self, world):
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._enter_slot1(world)
        before = world.pcu.stats.inst_checks
        cached, oracle = world.apply(Event("check", inst=0))
        assert cached == oracle and cached.status == "ok"
        assert world.pcu.stats.inst_checks == before + 1
        assert world.pcu.stats.gate_calls == 1

    def test_fault_reaches_pcu_stats(self, world):
        self._enter_slot1(world)
        cached, oracle = world.apply(Event("check", inst=0))
        assert cached == oracle
        assert cached.status == "InstructionPrivilegeFault"
        assert world.pcu.stats.faults == {"InstructionPrivilegeFault": 1}

    def test_every_data_path_event_calls_the_pcu_once(self, world,
                                                      monkeypatch):
        calls = Counter()
        for name in ("check", "execute_gate", "check_memory_access"):
            def spy(*args, _name=name, _call=getattr(world.pcu, name),
                    **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(world.pcu, name, spy)
        events = generate_events(2, 300)
        for event in events:
            world.apply(event)
        ops = Counter(event.op for event in events)
        assert calls == {"check": ops["check"], "execute_gate": ops["gate"],
                         "check_memory_access": ops["mem"]}
        assert all(calls.values())

    @pytest.mark.parametrize("op", ["bogus", "_descriptor", "describe"])
    def test_unknown_event_op_rejected(self, world, op):
        """An event must not become an RPC into arbitrary manager code,
        not even one aimed at domain-0, whose reconfigs are skipped."""
        for slot in (0, 1):
            with pytest.raises(ValueError,
                               match="unknown conformance event op"):
                world.apply(Event(op, domain=slot))


class TestMutationSmoke:
    def test_cache_fill_corruption_is_caught(self, tmp_path):
        result = fuzz_backend("riscv", 0, 400, config="stress",
                              mutate=corrupt_inst_fills,
                              dump_dir=str(tmp_path))
        assert not result.clean
        assert result.divergence.cached.status != result.divergence.oracle.status
        assert result.reproducer_path is not None

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_corruption_caught_on_both_backends(self, backend):
        result = fuzz_backend(backend, 0, 400, config="stress",
                              mutate=corrupt_inst_fills)
        assert not result.clean

    def test_suppressed_invalidation_is_caught(self):
        result = fuzz_backend("riscv", 0, 400, config="stress",
                              mutate=suppress_invalidation)
        assert not result.clean

    def test_shrink_produces_smaller_diverging_stream(self):
        events = generate_events(0, 400)
        runner = DifferentialRunner("riscv", config="stress",
                                    mutate=corrupt_inst_fills)
        divergence = runner.replay(events)
        assert divergence is not None
        shrunk = runner.shrink(events, divergence)
        assert len(shrunk) < len(events)
        assert runner.replay(shrunk) is not None
        # the stream really is minimal-ish: the bug needs a handful of
        # events (configure, enter a domain, check), not hundreds
        assert len(shrunk) <= divergence.index + 1

    def test_reproducer_roundtrip(self, tmp_path):
        result = fuzz_backend("riscv", 0, 400, config="stress",
                              mutate=corrupt_inst_fills,
                              dump_dir=str(tmp_path))
        backend, config, events = load_reproducer(result.reproducer_path)
        assert (backend, config) == ("riscv", "stress")
        # the dumped stream still diverges under the mutation...
        mutated = DifferentialRunner(backend, config=config,
                                     mutate=corrupt_inst_fills)
        assert mutated.replay(events) is not None
        # ...and is clean on the unmutated implementation
        assert DifferentialRunner(backend, config=config).replay(events) is None

    def test_reproducer_payload_is_self_describing(self, tmp_path):
        result = fuzz_backend("riscv", 0, 400, config="stress",
                              mutate=corrupt_inst_fills,
                              dump_dir=str(tmp_path))
        with open(result.reproducer_path) as handle:
            payload = json.load(handle)
        assert payload["format"] == "isagrid-conformance-repro-v1"
        assert payload["seed"] == 0
        assert len(payload["program"]) == len(payload["events"])
        assert payload["divergence"]["cached"] != payload["divergence"]["oracle"]

    def test_shrunk_divergence_doubles_as_contract_trace(self, tmp_path):
        """The ddmin-minimized reproducer is also dumped in the contract
        corpus vocabulary: replaying the trace alone (no simulator) must
        flag the same bug at the contract layer."""
        from repro.contracts import load_trace, replay_trace

        result = fuzz_backend("riscv", 0, 400, config="stress",
                              mutate=corrupt_inst_fills,
                              dump_dir=str(tmp_path))
        assert result.contract_trace_path is not None
        meta, events = load_trace(result.contract_trace_path)
        assert meta["format"] == "isagrid-contract-trace-v1"
        assert meta["stream_key"] == result.stream_key
        assert meta["divergence"] == result.divergence.describe()
        monitor = replay_trace(events, geometry=meta["geometry"])
        assert monitor.counts()["inst_retirement"] > 0
        assert monitor.unwaived_violations > 0
        # The trace path stays out of summary(): the --jobs N
        # byte-identity surface is unchanged by the extra artifact.
        assert "contract_trace_path" not in result.summary()

    def test_clean_runs_emit_no_contract_trace(self, tmp_path):
        result = fuzz_backend("riscv", 0, 300, config="stress",
                              dump_dir=str(tmp_path))
        assert result.clean
        assert result.contract_trace_path is None


class TestReconfigureCoherence:
    """Satellite regression: after any reconfigure, the cached PCU must
    agree with the oracle on the very next check (no stale fills)."""

    def _enter_slot1(self, world):
        world.apply(Event("register_gate", gate=0, domain=1))
        cached, oracle = world.apply(
            Event("gate", kind="hccall", gate=0, site_ok=True))
        assert cached == oracle and cached.status == "ok"

    def _check(self, world, expected_status):
        cached, oracle = world.apply(Event("check", inst=0))
        assert cached == oracle
        assert cached.status == expected_status

    def test_grant_after_cached_denial(self, world):
        self._enter_slot1(world)
        self._check(world, "InstructionPrivilegeFault")  # caches the denial
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._check(world, "ok")  # the very next check sees the grant

    def test_deny_after_cached_grant(self, world):
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._enter_slot1(world)
        self._check(world, "ok")  # caches the grant
        world.apply(Event("deny_inst", domain=1, inst=0))
        self._check(world, "InstructionPrivilegeFault")

    def test_destroyed_domain_grants_do_not_resurrect(self, world):
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._enter_slot1(world)
        self._check(world, "ok")
        # kill the domain and recreate the slot: the fresh incarnation
        # starts de-privileged and no refill may say otherwise
        cached, oracle = world.apply(Event("destroy_domain", domain=1))
        assert cached == oracle and cached.status == "ok"
        world.apply(Event("create_domain", domain=1))
        self._enter_slot1(world)
        self._check(world, "InstructionPrivilegeFault")

    def test_regrant_after_seal_stays_sealed(self, world):
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._enter_slot1(world)
        self._check(world, "ok")  # caches the grant
        world.apply(Event("seal", domain=1, inst=0))
        self._check(world, "InstructionPrivilegeFault")
        world.apply(Event("allow_inst", domain=1, inst=0))
        self._check(world, "InstructionPrivilegeFault")
