"""Tests of the benchmark itself: ``python -m pytest perf/tests``."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path[:0] = [os.path.join(ROOT, "src"), PERF]

import compare  # noqa: E402
import harness  # noqa: E402
from repro.core import PrivilegeCheckUnit  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

_MACHINE = {"cpu.run_blocks", "cpu.step", "cpu.decode", "pcu.check",
            "pcu.block_probe", "pcu.gate", "pcu.mem_filter",
            "pcu.invalidate", "sim.pipeline", "sim.memhier.fetch",
            "sim.memhier.data", "sim.machine_run", "kernel.boot",
            "kernel.assemble", "domain.manager", "workloads.generate"}
#: The layers each workload must reach, and no others.  A layer missing
#: here usually means an import binding the tracer did not rebind.
EXPECTED_LAYERS = {
    "x86_gate_stress": _MACHINE | {"pcu.account_block"},
    "riscv_gate_stress": _MACHINE | {"pcu.account_block", "cpu.mmu"},
    # The armed tap refuses every block probe, so nothing is accounted.
    "x86_apps_monitored": _MACHINE | {"contracts.tap"},
    "tenant_churn": {"pcu.check", "pcu.gate", "pcu.invalidate",
                     "domain.manager", "domain.virtualizer", "churn.build",
                     "churn.apply", "oracle", "workloads.generate"},
}


def run_benchmark(workload: str, *options: str):
    """Run run.py; return its exit code, printed lines and last line."""
    run = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--workload",
         workload, "--seed", "0", *options],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    return run.returncode, lines[:-1], json.loads(lines[-1])


def declared(section: str):
    return [(m["name"], m["unit"]) for m in BENCHMARK[section]]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    code, lines, result = run_benchmark("tenant_churn", "--seconds", "0.5",
                                        "--trace", str(trace))
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(name, entry["unit"]) for name, entry
            in result["metrics"].items()] == declared(section)
    metric_lines = [line.split() for line in lines
                    if not line.startswith("#")]
    assert all(len(fields) == 4 and fields[0] == "tenant_churn"
               for fields in metric_lines)
    assert [(fields[1], fields[3]) for fields in metric_lines] == \
        declared(section)


def test_several_workloads_end_with_one_result_for_all():
    names = ["tenant_churn", "x86_gate_stress"]
    code, lines, result = run_benchmark(",".join(names), "--seconds", "0.5")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    attempted = [int(line.split()[3]) for line in lines
                 if line.startswith("# ") and " attempted " in line]
    assert len(attempted) == 2 and result["attempted"] == sum(attempted)
    assert sorted(result["metrics"]) == names
    for metrics in result["metrics"].values():
        assert sorted((name, entry["unit"]) for name, entry
                      in metrics.items()) == sorted(declared("end_to_end"))


def test_one_failed_workload_fails_the_whole_run():
    code, _, result = run_benchmark("no_such_workload,nor_this")
    assert code == 1
    assert not result["correct"] and result["metrics"] == {}


@pytest.fixture(scope="module")
def traced_runs():
    """A traced 2-op run of every workload at the pinned seed 0."""
    runs = {}
    for name, workload in harness.WORKLOADS.items():
        inputs = harness.setup(workload, 0)
        runs[name], _ = harness.bench(workload, inputs, 0, None, trace=True,
                                      warmup_s=0.0, max_ops=2)
    return runs


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_two_op_run_matches_pinned_digest(traced_runs, name):
    summary = traced_runs[name]
    assert summary["failed"] == 0
    assert summary["pinned"] == "ok", summary["digest"]
    assert summary["correct"]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_reproduces_untraced(traced_runs, name):
    summary = traced_runs[name]
    assert summary["trace_digest"] == summary["digest"]
    coverage = summary["metrics"]["cpu.block_coverage"]["value"]
    assert coverage == summary["block_coverage"]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_each_workload_reaches_its_layers(traced_runs, name):
    metrics = traced_runs[name]["metrics"]
    reached = {layer for layer in harness.TRACED_LAYERS
               if metrics[layer + ".calls"]["value"] > 0}
    assert reached == EXPECTED_LAYERS[name]


def test_workloads_split_the_layers_as_chosen(traced_runs):
    coverage = {name: run["metrics"]["cpu.block_coverage"]["value"]
                for name, run in traced_runs.items()}
    assert coverage["x86_gate_stress"] > 0.9
    assert coverage["riscv_gate_stress"] < 0.1
    assert coverage["x86_apps_monitored"] == 0.0
    for name in ("x86_gate_stress", "riscv_gate_stress",
                 "x86_apps_monitored"):
        unattributed = traced_runs[name]["metrics"]["trace.unattributed_frac"]
        assert unattributed["value"] <= 0.10


def test_compare_names_a_slowed_pcu_check(tmp_path, monkeypatch):
    workload = harness.WORKLOADS["riscv_gate_stress"]
    inputs = harness.setup(workload, 0)

    def traced_run(side):
        summary, _ = harness.bench(workload, inputs, 0, None, trace=True,
                                   warmup_s=0.0, max_ops=harness.VARIANTS)
        path = tmp_path / side / "run.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"results": [summary]}))
        return str(path)

    before = traced_run("a")
    check = PrivilegeCheckUnit.check

    def slow_check(self, access):
        start = time.perf_counter()
        try:
            return check(self, access)
        finally:
            end = start + 1.3 * (time.perf_counter() - start)
            while time.perf_counter() < end:
                pass

    monkeypatch.setattr(PrivilegeCheckUnit, "check", slow_check)
    after = traced_run("b")
    out = io.StringIO()
    compare.compare([before], [after], out=out)
    assert ("riscv_gate_stress: self time moved most in pcu.check "
            in out.getvalue()), out.getvalue()
