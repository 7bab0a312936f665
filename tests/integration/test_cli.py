"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Rocket Core" in out and "8E.N" in out
        assert "2.21" in out

    def test_scan(self, capsys):
        assert main(["scan"]) == 0
        out = capsys.readouterr().out
        assert "wrmsr" in out and "hidden" in out

    def test_case3(self, capsys):
        assert main(["case3"]) == 0
        out = capsys.readouterr().out
        assert "executes" in out and "faults" in out
        assert "175" in out

    def test_hitrate(self, capsys):
        assert main(["hitrate"]) == 0
        out = capsys.readouterr().out
        assert "sgt" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBenchCompareGate:
    """`bench --compare` is the CI perf gate; pin its exit contract."""

    @staticmethod
    def _write(tmp_path, name, ips_by_rig):
        from repro.bench import build_trajectory, write_trajectory

        payloads = [{"rig": rig, "instructions": 1000, "cycles": 2000.0,
                     "wall_s": 1000.0 / ips, "ips": float(ips)}
                    for rig, ips in ips_by_rig.items()]
        path = str(tmp_path / name)
        write_trajectory(build_trajectory(payloads, label=name), path)
        return path

    def test_regression_fails(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json",
                               {"rocket": 10000, "kernel": 8000})
        current = self._write(tmp_path, "cur.json",
                              {"rocket": 10000, "kernel": 4000})
        assert main(["bench", "--compare", current, baseline]) == 1
        captured = capsys.readouterr()
        assert "FAIL: 1 rig(s) regressed" in captured.err
        assert "kernel" in captured.out

    def test_within_threshold_passes(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", {"rocket": 10000})
        current = self._write(tmp_path, "cur.json", {"rocket": 9000})
        assert main(["bench", "--compare", current, baseline]) == 0
        assert "0.90x" in capsys.readouterr().out

    def test_new_rig_is_not_a_regression(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", {"rocket": 10000})
        current = self._write(tmp_path, "cur.json",
                              {"rocket": 10000, "fresh": 1})
        assert main(["bench", "--compare", current, baseline]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_unreadable_trajectory_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["bench", "--compare", missing, missing]) == 2
        assert "cannot read trajectory" in capsys.readouterr().err


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
        ["attacks", "--campaign"], ["bench", "--rigs", "smoke"],
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
