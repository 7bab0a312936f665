"""Rig-level differential gate: fast path must not change simulation."""

import pytest

from repro.bench.rigs import DEFAULT_RIGS, RIGS, resolve_rigs, run_rig


def test_resolve_defaults_to_eval_suite():
    assert resolve_rigs(None) == list(DEFAULT_RIGS)
    assert resolve_rigs("all") == list(RIGS)
    assert "smoke" not in DEFAULT_RIGS  # CI-only rig stays opt-in


def test_resolve_rejects_unknown_rig():
    with pytest.raises(KeyError):
        resolve_rigs("no_such_rig")


def test_smoke_rig_fast_vs_slow_bit_identical():
    """The compiled-verdict fast path must be invisible to the simulation:
    same retired instructions and same simulated cycles as the uncompiled
    pipeline, differing only in wall clock."""
    fast = run_rig("smoke", fast_path=True)
    slow = run_rig("smoke", fast_path=False)
    assert fast["fast_path"] is True and slow["fast_path"] is False
    assert fast["instructions"] == slow["instructions"] > 0
    assert fast["cycles"] == slow["cycles"] > 0


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
