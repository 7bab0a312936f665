"""The ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.analysis.paper import ARTIFACTS, HATCHED
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

#: The artifacts ``paper``'s escape hatches refuse.
UNHATCHED = [name for name in ARTIFACTS if name not in HATCHED]


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    """``paper`` writes its records under the working directory."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.usefixtures("tmp_cwd")
class TestCli:
    def test_table6(self, capsys):
        assert main(["paper", "table6"]) == 0
        out = capsys.readouterr().out
        assert "Rocket Core" in out and "8E.N" in out
        assert "2.21" in out

    def test_scan(self, capsys):
        assert main(["paper", "scan"]) == 0
        out = capsys.readouterr().out
        assert "wrmsr" in out and "hidden" in out

    def test_case3(self, capsys):
        assert main(["paper", "case3"]) == 0
        out = capsys.readouterr().out
        assert "executes" in out and "faults" in out
        assert "175" in out

    def test_audit_prints_each_kernels_exposure(self, capsys):
        assert main(["audit"]) == 0
        riscv, x86 = capsys.readouterr().out.split("X86Kernel (x86_64):\n")
        assert riscv.startswith("RiscvKernel (riscv64):\n")
        assert ("    exposure: 42 resources (levels only) -> worst domain 11 "
                "(4x reduction)\n") in riscv
        assert ("    exposure: 71 resources (levels only) -> worst domain 9 "
                "(8x reduction)\n") in x86

    @pytest.mark.parametrize("command", ["frobnicate", "bench", "decompose"])
    def test_unknown_command_rejected(self, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("option", [["--layer", "kernel"],
                                        ["--oracle-only"]],
                             ids=["layer", "oracle-only"])
    def test_retired_conformance_option_rejected(self, option):
        """The fuzzer's one cached side is the PCU itself."""
        with pytest.raises(SystemExit) as exit_info:
            main(["conformance", "--events", "10"] + option)
        assert exit_info.value.code == 2


@pytest.mark.usefixtures("tmp_cwd")
class TestPaperCommand:
    def test_writes_the_committed_record(self, tmp_path):
        assert main(["paper", "table6"]) == 0
        record = Path("benchmarks", "results", "table_6.txt")
        assert (tmp_path / record).read_bytes() == (REPO / record).read_bytes()

    def test_unknown_artifact_is_usage_error(self, tmp_path, capsys):
        assert main(["paper", "table6", "table7"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "table7" in err
        assert not (tmp_path / "benchmarks").exists()

    def test_failed_check_exits_1_and_names_it(self, monkeypatch, capsys):
        import repro.hwcost

        table6_rows = repro.hwcost.table6_rows

        def lut_heavy_8e():
            rows = table6_rows()
            for row in rows:
                if row["name"] == "8E.":
                    row["lut_logic"] += 100
            return rows

        monkeypatch.setattr(repro.hwcost, "table6_rows", lut_heavy_8e)
        assert main(["paper", "table6"]) == 1
        err = capsys.readouterr().err
        assert err == "FAIL: table6: 8E. LUT within 5 of the paper\n"

    @pytest.mark.parametrize("hatch", ["--slow-path", "--no-block-cache"])
    def test_hatch_writes_the_committed_records(self, tmp_path, hatch):
        assert main(["paper", hatch, "table4"]) == 0
        written = sorted(path.name for path in
                         (tmp_path / "benchmarks" / "results").iterdir())
        assert written == ["table_4a.txt", "table_4b.txt", "table_4c.txt"]
        for name in written:
            record = Path("benchmarks", "results", name)
            assert (tmp_path / record).read_bytes() \
                == (REPO / record).read_bytes()

    @pytest.mark.parametrize("hatch, off", [
        (["--slow-path"], {"fast_path": False}),
        (["--no-block-cache"], {"block_summaries": False}),
        (["--slow-path", "--no-block-cache"],
         {"fast_path": False, "block_summaries": False}),
    ], ids=["slow-path", "no-block-cache", "both"])
    def test_hatch_runs_every_hatched_artifact_under_it(self, monkeypatch,
                                                        hatch, off):
        from dataclasses import replace

        from repro.analysis import paper
        from repro.core import CONFIG_8E

        ran = []

        def stub(name):
            def run(config=None):
                ran.append((name, config))
                return paper.Result()
            return run

        for name in paper.ARTIFACTS:
            monkeypatch.setitem(paper.ARTIFACTS, name, stub(name))
        assert main(["paper"] + hatch) == 0
        assert ran == [(name, replace(CONFIG_8E, **off))
                       for name in paper.HATCHED]

    @pytest.mark.parametrize("hatch", ["--slow-path", "--no-block-cache"])
    @pytest.mark.parametrize("name", UNHATCHED)
    def test_hatch_on_an_unhatched_artifact_is_usage_error(self, tmp_path,
                                                           capsys, hatch,
                                                           name):
        assert main(["paper", hatch, "table4", name]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err
        assert not (tmp_path / "benchmarks").exists()

    def test_attacks_prints_table1_without_writing(self, tmp_path, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 — " in out and "Table 1 (gates)" in out
        assert "12/12" in out
        assert not (tmp_path / "benchmarks").exists()


class TestAttackCampaignCli:
    def test_mini_campaign_passes_and_writes_report(self, tmp_path, capsys):
        import json

        report = str(tmp_path / "attack.json")
        assert main(["attacks", "--campaign", "--seeds", "0",
                     "--streams", "4", "--stream-len", "24",
                     "--report", report]) == 0
        out = capsys.readouterr().out
        assert "missed-but-blocked" in out
        with open(report) as handle:
            payload = json.load(handle)
        assert payload["format"] == "isagrid-attack-campaign-v1"
        assert payload["baseline_missed_pcu_blocked"] > 0
        assert payload["totals"]["pcu_blocked"] == payload["totals"]["generated"]
        assert payload["unwaived_contract_violations"] == 0

    def test_bad_seeds_is_usage_error(self, capsys):
        assert main(["attacks", "--campaign", "--seeds", "zero"]) == 2
        assert "seeds" in capsys.readouterr().err


class TestCampaignCommandExitCodes:
    """Every campaign command's exit contract: 0 clean (report written),
    1 on a failed gate, 2 on bad input.  Runs are tiny and in-process,
    from a temporary working directory."""

    FAULTS = ["faults", "--events", "60", "--seed", "0", "--campaign", "2",
              "--backend", "riscv", "--config", "stress"]

    @pytest.fixture(autouse=True)
    def _tmp_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def _report(path):
        import json

        with open(path) as handle:
            return json.load(handle)

    def test_faults_clean_run(self, capsys):
        assert main(self.FAULTS + ["--report", "f.json"]) == 0
        assert self._report("f.json")["widening_silent_divergences"] == 0
        assert "report written to f.json" in capsys.readouterr().out

    def test_machine_faults_clean_run(self):
        assert main(["faults", "--machine", "--seed", "0", "--campaign", "1",
                     "--iterations", "1", "--backend", "riscv",
                     "--report", "m.json"]) == 0
        report = self._report("m.json")
        assert report["format"] == "isagrid-machine-fault-campaign-v1"

    def test_churn_clean_run(self):
        assert main(["churn", "--ops", "60", "--seed", "0", "--campaign",
                     "1", "--slots", "8", "--backend", "riscv",
                     "--report", "c.json"]) == 0
        assert self._report("c.json")["format"] == "isagrid-churn-campaign-v1"

    def test_conformance_clean_run(self, capsys):
        assert main(["conformance", "--events", "200", "--seed", "0",
                     "--backend", "riscv", "--config", "stress"]) == 0
        assert "divergences=0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["faults", "--events", "60", "--campaign", "1"],
        ["conformance", "--events", "60"],
    ])
    def test_unknown_config_is_usage_error(self, command, capsys):
        assert main(command + ["--config", "bogus"]) == 2
        assert "unknown config bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["churn", "--config", "bogus", "--campaign", "1"],
         "unknown config bogus"),
        (["churn", "--config", "bogus", "--campaign", "1", "--jobs", "2"],
         "unknown config bogus"),
        (["churn", "--slots", "0", "--campaign", "1"],
         "--slots must be between 1 and"),
        (["faults", "--faults-per-campaign", "0", "--campaign", "1"],
         "--faults-per-campaign must be at least 1, got 0"),
        (["faults", "--machine", "--faults-per-campaign", "0",
          "--campaign", "1"],
         "--faults-per-campaign must be at least 1, got 0"),
        # Non-positive workload sizes: unchecked, each would run (or
        # fail a gate misleadingly) and overwrite its default report.
        (["conformance", "--events", "-5"],
         "--events must be at least 1, got -5"),
        (["faults", "--events", "0", "--campaign", "1"],
         "--events must be at least 1, got 0"),
        (["churn", "--ops", "0", "--campaign", "1"],
         "--ops must be at least 1, got 0"),
        (["faults", "--machine", "--iterations", "0", "--campaign", "1"],
         "--iterations must be at least 1, got 0"),
        (["attacks", "--campaign", "--streams", "0"],
         "--streams must be at least 1, got 0"),
        (["attacks", "--campaign", "--stream-len", "0"],
         "--stream-len must be at least 1, got 0"),
    ])
    def test_bad_campaign_input_is_usage_error(self, command, message,
                                               tmp_path, capsys):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []  # nothing planned or run

    def test_inject_bug_fails_and_its_reproducer_replays_clean(
            self, tmp_path, capsys):
        command = ["conformance", "--events", "200", "--seed", "0",
                   "--backend", "riscv", "--config", "stress"]
        assert main(command + ["--inject-bug"]) == 1
        assert "DIVERGENCE" in capsys.readouterr().out
        dumps = sorted(tmp_path.glob("conformance-repro-*.json"))
        assert len(dumps) == 1
        assert main(["conformance", "--replay", str(dumps[0])]) == 0
        assert "no divergence" in capsys.readouterr().out

    @staticmethod
    def _doctor_campaigns(monkeypatch, widen=False, **changes):
        """Rewrite every fault campaign's result in-process."""
        import dataclasses

        from repro.faults import campaign

        real = campaign.run_campaign

        def doctored(*args, **kwargs):
            result = dataclasses.replace(real(*args, **kwargs), **changes)
            if widen:  # a "set" bit op widens whatever the fault kind
                result = dataclasses.replace(
                    result, spec=dataclasses.replace(result.spec,
                                                     bit_op="set"))
            return result

        monkeypatch.setattr(campaign, "run_campaign", doctored)

    def test_widening_silent_divergence_fails_faults(self, monkeypatch,
                                                     capsys):
        self._doctor_campaigns(monkeypatch, widen=True,
                               classification="silent_divergence")
        assert main(self.FAULTS + ["--report", "f.json"]) == 1
        captured = capsys.readouterr()
        assert "WIDENING SILENT DIVERGENCE" in captured.out
        assert "FAIL: 2 widening fault(s)" in captured.err
        assert self._report("f.json")["widening_silent_divergences"] == 2

    def test_unwaived_contract_violation_fails_faults(self, monkeypatch,
                                                      capsys):
        self._doctor_campaigns(monkeypatch, contract_violations=1,
                               unwaived_contract_violations=1)
        assert main(self.FAULTS + ["--report", "f.json"]) == 1
        assert "FAIL: 2 unwaived contract violation(s)" \
            in capsys.readouterr().err
        assert self._report("f.json")["unwaived_contract_violations"] == 2


class TestOrchestrationFlags:
    """Bad orchestration input is a usage error (exit 2), not a
    traceback; ``--inject-bug`` runs sharded; and a mode's default
    report path never rewrites an explicit ``--report``."""

    @pytest.fixture(autouse=True)
    def _tmp_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("command", [
        ["faults"], ["faults", "--machine"], ["churn"], ["conformance"],
        ["attacks", "--campaign"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_into_another_campaigns_run_dir(self, capsys):
        command = ["faults", "--events", "60", "--campaign", "1",
                   "--backend", "riscv", "--config", "stress",
                   "--run-dir", "run", "--report", "f.json"]
        assert main(command) == 0
        capsys.readouterr()
        assert main(command + ["--seed", "1", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "holds a different campaign" in err
        assert len(err.strip().splitlines()) == 1

    def test_inject_bug_is_caught_when_sharded(self, tmp_path, capsys):
        assert main(["conformance", "--events", "200", "--seed", "0",
                     "--backend", "riscv", "--config", "stress,draco",
                     "--inject-bug", "--jobs", "2"]) == 1
        assert "run directory:" in capsys.readouterr().out
        assert len(list(tmp_path.glob("conformance-repro-*.json"))) == 2

    def test_machine_mode_keeps_an_explicit_report_path(self, tmp_path):
        machine = ["faults", "--machine", "--seed", "0", "--campaign", "1",
                   "--iterations", "1", "--backend", "riscv"]
        assert main(machine + ["--report", "results/fault_campaigns.json"]) \
            == 0
        results = tmp_path / "results"
        assert [p.name for p in results.iterdir()] == ["fault_campaigns.json"]
        assert main(machine) == 0
        assert (results / "machine_fault_campaigns.json").is_file()
