"""Rig-level differential gate: fast paths must not change simulation."""

import re

import pytest

from repro.bench.rigs import DEFAULT_RIGS, RIGS, resolve_rigs, run_rig


def test_resolve_defaults_to_eval_suite():
    assert resolve_rigs(None) == list(DEFAULT_RIGS)
    assert resolve_rigs("all") == list(RIGS)
    assert "smoke" not in DEFAULT_RIGS  # CI-only rig stays opt-in


def test_resolve_rejects_unknown_rig():
    with pytest.raises(KeyError):
        resolve_rigs("no_such_rig")


def test_run_rig_payload_shape():
    payload = run_rig("smoke")
    assert set(payload) >= {
        "rig", "fast_path", "instructions", "cycles", "wall_s", "ips", "detail"
    }
    assert payload["rig"] == "smoke"
    # wall_s and ips are rounded independently, so compare loosely.
    assert payload["ips"] == pytest.approx(
        payload["instructions"] / payload["wall_s"], rel=0.05
    )


def test_smoke_contracts_reports_its_memo_hits():
    """The monitored smoke rig says how many of its contract events the
    monitor's clean-verdict memo served without calling a contract."""
    detail = run_rig("smoke_contracts")["detail"]
    assert 0 < detail["contract_memo_hits"] < detail["contract_events"]


def test_table4_rig_reports_the_artifact():
    """A paper rig times its artifact: the artifact's rows are the
    rig's detail and its totals the rig's work."""
    from repro.analysis.paper import ARTIFACTS

    result = ARTIFACTS["table4"]()
    payload = run_rig("table4_switch")
    assert payload["detail"] == result.rows()
    assert payload["instructions"] == result.instructions > 0
    assert payload["cycles"] == round(result.cycles, 1)


@pytest.mark.parametrize("rig", ["smoke", "churn_stress", "table4_switch",
                                 "table5_services"])
def test_rig_identical_on_every_path(rig):
    """The compiled-verdict fast path and the block executor must be
    invisible to the simulation: the same retired instructions,
    simulated cycles and detail with either turned off, differing only
    in wall clock."""
    fast = run_rig(rig)
    assert fast["instructions"] > 0 and fast["cycles"] > 0
    for flags in ({"fast_path": False}, {"block_cache": False}):
        slow = run_rig(rig, **flags)
        assert {flag: slow[flag] for flag in flags} == flags
        for key in ("instructions", "cycles", "detail"):
            assert slow[key] == fast[key], (flags, key)


@pytest.mark.parametrize("key, off_value, message", [
    ("cycles", 2001.0, "cycles 2000.0 with blocks on, 2001.0 with blocks off"),
    ("instructions", 1001, "instructions 1000 with blocks on, 1001"),
    ("pcu_stats", {"checks": 6}, "PcuStats differ"),
    ("block_stats", {"insts": 7}, "7 instructions retired in blocks"),
    ("hit_rates", {"inst": 0.5}, "detail"),
], ids=["cycles", "instructions", "pcu_stats", "block_stats", "detail"])
def test_smoke_blocks_rig_fails_when_blocks_change_the_work(
        monkeypatch, key, off_value, message):
    """Each blocks-on-vs-off identity check is raised, not asserted, so
    ``python -O`` keeps it."""
    from repro.bench import rigs

    def gate_stress(fast_path, block_cache=True, **kwargs):
        run = {"instructions": 1000, "cycles": 2000.0,
               "pcu_stats": {"checks": 5}, "block_stats": {"insts": 0},
               "hit_rates": {"inst": 1.0}}
        if not block_cache:
            run[key] = off_value
        return rigs._result(run["instructions"], run["cycles"], {
            "hit_rates": run["hit_rates"], "syscalls": 0,
            "pcu_stats": run["pcu_stats"],
            "block_stats": run["block_stats"]})

    monkeypatch.setattr(rigs, "_run_gate_stress", gate_stress)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        run_rig("smoke_blocks")


@pytest.mark.parametrize("rig", ["smoke", "smoke_blocks", "smoke_contracts"])
def test_kernel_rig_fails_on_a_kernel_fault(monkeypatch, rig):
    from repro.kernel import X86Kernel

    monkeypatch.setattr(X86Kernel, "fault_count", property(lambda self: 1))
    with pytest.raises(RuntimeError, match="1 kernel fault"):
        run_rig(rig)


def test_smoke_contracts_rig_fails_on_a_contract_violation(monkeypatch):
    from repro.contracts import ContractMonitor

    monkeypatch.setattr(ContractMonitor, "total_violations",
                        property(lambda self: 1))
    monkeypatch.setattr(ContractMonitor, "first_unwaived",
                        lambda self: "forged violation")
    with pytest.raises(RuntimeError,
                       match="1 contract violation.*forged violation"):
        run_rig("smoke_contracts")


def test_churn_stress_rig_fails_when_the_cached_pcu_diverges(monkeypatch):
    from repro.faults.churn import ChurnWorld

    real_apply = ChurnWorld.apply

    def apply(self, op, index):
        return [(("forged", cached), oracle)
                for cached, oracle in real_apply(self, op, index)]

    monkeypatch.setattr(ChurnWorld, "apply", apply)
    with pytest.raises(RuntimeError,
                       match=r"churn_stress: op \d+: cached PCU"):
        run_rig("churn_stress")


def test_paper_rig_fails_on_a_failed_check(monkeypatch):
    from repro.analysis import paper

    def failing(config):
        result = paper.Result()
        result.check("a check that cannot hold", False)
        return result

    monkeypatch.setitem(paper.ARTIFACTS, "table4", failing)
    with pytest.raises(RuntimeError, match="a check that cannot hold"):
        run_rig("table4_switch")
