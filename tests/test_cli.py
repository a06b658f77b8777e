"""Tests for the command-line toolchain."""

import json

import pytest

from repro.cli import load_app, load_power, main

APP_JSON = {
    "name": "cli_demo",
    "tasks": [{"name": "sense"}, {"name": "avg", "monitored_vars": ["m"]},
              {"name": "send"}],
    "paths": {"1": ["sense", "avg", "send"]},
    "costs": {
        "sense": {"duration_s": 0.05, "power_w": 0.001},
        "avg": {"duration_s": 0.02},
        "send": {"duration_s": 0.5, "power_w": 0.006},
    },
}

SPEC = """
avg { collect: 2 dpTask: sense onFail: restartPath; }
send { MITD: 1min dpTask: avg onFail: restartPath maxAttempt: 2 onFail: skipPath; }
"""

BAD_SPEC = "ghost { maxTries: 1 onFail: skipPath; }"


@pytest.fixture
def files(tmp_path):
    app = tmp_path / "app.json"
    app.write_text(json.dumps(APP_JSON))
    spec = tmp_path / "props.art"
    spec.write_text(SPEC)
    return str(app), str(spec), tmp_path


class TestLoaders:
    def test_load_app(self, files):
        app_path, _, _ = files
        app = load_app(app_path)
        assert app.name == "cli_demo"
        assert app.task_names == ["sense", "avg", "send"]
        assert app.task("avg").monitored_vars == ("m",)

    def test_load_power(self, files):
        app_path, _, _ = files
        power = load_power(app_path)
        assert power.cost_of("send").power_w == 0.006
        assert power.cost_of("avg").power_w > 0  # default MCU power
        assert power.cost_of("unlisted").duration_s == 0.05  # default cost


class TestCheck:
    def test_valid_spec_exits_zero(self, files, capsys):
        app, spec, _ = files
        assert main(["check", spec, "--app", app]) == 0
        out = capsys.readouterr().out
        assert "specification OK: 2 properties" in out

    def test_with_power_checks(self, files, capsys):
        app, spec, _ = files
        assert main(["check", spec, "--app", app, "--with-power"]) == 0

    def test_inconsistent_spec_exits_one(self, files, tmp_path, capsys):
        app, _, _ = files
        bad = tmp_path / "bad.art"
        # maxDuration below send's execution time: DUR-MIN error.
        bad.write_text("send { maxDuration: 1ms onFail: skipTask; }")
        assert main(["check", str(bad), "--app", app, "--with-power"]) == 1
        assert "DUR-MIN" in capsys.readouterr().out

    def test_unknown_task_reports_error(self, files, tmp_path, capsys):
        app, _, _ = files
        bad = tmp_path / "bad.art"
        bad.write_text(BAD_SPEC)
        assert main(["check", str(bad), "--app", app]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, files):
        app, _, _ = files
        assert main(["check", "/nonexistent.art", "--app", app]) == 1


class TestCompile:
    def test_writes_three_artifacts(self, files, capsys):
        app, spec, tmp = files
        out = tmp / "gen"
        assert main(["compile", spec, "--app", app, "-o", str(out)]) == 0
        assert (out / "monitors.sm").exists()
        assert (out / "monitors.py").exists()
        assert (out / "monitors.c").exists()

    def test_sm_artifact_reparses(self, files):
        from repro.statemachine.textual import parse_machines

        app, spec, tmp = files
        out = tmp / "gen"
        main(["compile", spec, "--app", app, "-o", str(out)])
        machines = parse_machines((out / "monitors.sm").read_text())
        assert {m.name for m in machines} == {"collect_avg", "MITD_send"}

    def test_python_artifact_compiles(self, files):
        app, spec, tmp = files
        out = tmp / "gen"
        main(["compile", spec, "--app", app, "-o", str(out)])
        compile((out / "monitors.py").read_text(), "monitors.py", "exec")

    def test_c_artifact_has_interface(self, files):
        app, spec, tmp = files
        out = tmp / "gen"
        main(["compile", spec, "--app", app, "-o", str(out)])
        c_src = (out / "monitors.c").read_text()
        assert "callMonitor" in c_src and "resetMonitor" in c_src


class TestSimulate:
    def test_continuous_run_completes(self, files, capsys):
        app, spec, _ = files
        assert main(["simulate", spec, "--app", app]) == 0
        assert "completed" in capsys.readouterr().out

    def test_intermittent_with_timeline(self, files, capsys):
        app, spec, _ = files
        code = main(["simulate", spec, "--app", app,
                     "--charging-delay", "30", "--timeline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline over" in out

    def test_monitor_actions_reported(self, files, capsys):
        app, spec, _ = files
        main(["simulate", spec, "--app", app])
        out = capsys.readouterr().out
        assert "restartPath" in out  # collect: 2 forces one restart

    def test_non_terminating_run_exits_two(self, files, tmp_path, capsys):
        app, _, _ = files
        spec = tmp_path / "livelock.art"
        # send can never collect from a task that never precedes it.
        spec.write_text(
            "sense { collect: 5 dpTask: send onFail: restartPath; }")
        code = main(["simulate", str(spec), "--app", app,
                     "--max-time", "5"])
        assert code == 2


class TestSweep:
    @staticmethod
    def _table(out):
        return out[:out.index("cache:")]

    def test_cache_serves_rows_until_the_spec_changes(self, files, capsys):
        """A pooled sweep's cached rows are keyed by the spec's contents,
        not its path: an unchanged rerun is all hits with the same
        table, and editing the spec in place misses every point."""
        app, spec, tmp_path = files
        argv = ["sweep", spec, "--app", app, "--delays", "0,60",
                "--seeds", "0,1", "-j", "2",
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hits / 4 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "4 hits / 0 misses" in warm
        assert self._table(warm) == self._table(cold)
        with open(spec, "w") as handle:
            handle.write(SPEC.replace("collect: 2", "collect: 3"))
        assert main(argv) == 0
        edited = capsys.readouterr().out
        assert "0 hits / 4 misses" in edited
        assert self._table(edited) != self._table(cold)


class TestCompileHeader:
    def test_header_written_and_consistent(self, files):
        from repro.statemachine.codegen_c import generate_c_header

        app, spec, tmp = files
        out = tmp / "gen"
        main(["compile", spec, "--app", app, "-o", str(out)])
        header = (out / "monitor.h").read_text()
        assert header == generate_c_header()
        # every helper the generated C calls is declared in the header
        c_src = (out / "monitors.c").read_text()
        for symbol in ("monitor_task_is", "monitor_report",
                       "MonitorEvent_t", "MonitorResult_t"):
            assert symbol in header
            assert symbol in c_src

    def test_header_actions_cover_action_enum(self, files):
        from repro.core.actions import ActionType
        from repro.statemachine.codegen_c import generate_c_header

        header = generate_c_header()
        for action in ActionType:
            if action is ActionType.NONE:
                continue
            assert f"ACTION_{action.value.upper()}" in header


class TestMayflyFrontendFlag:
    MAYFLY = "edge sense -> avg { collect: 2; }\n"

    def test_check_with_mayfly_frontend(self, files, tmp_path, capsys):
        app, _, _ = files
        spec = tmp_path / "edges.mayfly"
        spec.write_text(self.MAYFLY)
        assert main(["check", str(spec), "--app", app,
                     "--frontend", "mayfly"]) == 0
        assert "1 properties" in capsys.readouterr().out

    def test_simulate_with_mayfly_frontend(self, files, tmp_path, capsys):
        app, _, _ = files
        spec = tmp_path / "edges.mayfly"
        spec.write_text(self.MAYFLY)
        assert main(["simulate", str(spec), "--app", app,
                     "--frontend", "mayfly"]) == 0
        assert "restartPath" in capsys.readouterr().out

    def test_compile_with_mayfly_frontend(self, files, tmp_path):
        app, _, _ = files
        spec = tmp_path / "edges.mayfly"
        spec.write_text(self.MAYFLY)
        out = tmp_path / "gen_mayfly"
        assert main(["compile", str(spec), "--app", app,
                     "--frontend", "mayfly", "-o", str(out)]) == 0
        assert "collect_avg" in (out / "monitors.sm").read_text()

    def test_artemis_spec_through_mayfly_frontend_fails(self, files, capsys):
        app, spec, _ = files
        assert main(["check", spec, "--app", app,
                     "--frontend", "mayfly"]) == 1


class TestAuditFlag:
    def test_audit_log_printed(self, files, capsys):
        app, spec, _ = files
        assert main(["simulate", spec, "--app", app, "--audit", "8"]) == 0
        out = capsys.readouterr().out
        assert "audit log" in out
        assert "restartPath" in out  # collect: 2 fired once


SENSING_APP_JSON = {
    "name": "cli_sensing",
    "tasks": [{"name": "sense", "sense": "adc"},
              {"name": "avg", "monitored_vars": ["m"]},
              {"name": "send"}],
    "paths": {"1": ["sense", "avg", "send"]},
    "costs": {
        "sense": {"duration_s": 0.05, "power_w": 0.001},
        "avg": {"duration_s": 0.02},
        "send": {"duration_s": 0.5, "power_w": 0.006},
    },
    "sensors": {"adc": 21.5},
}


@pytest.fixture
def sensing_files(tmp_path):
    app = tmp_path / "app.json"
    app.write_text(json.dumps(SENSING_APP_JSON))
    spec = tmp_path / "props.art"
    spec.write_text(SPEC)
    return str(app), str(spec), tmp_path


class TestRobustnessFlags:
    def test_sensing_task_commits_reading_to_channel(self, sensing_files):
        app_path, _, _ = sensing_files
        app = load_app(app_path)
        assert app.task("sense").body is not None
        assert app.task("send").body is None  # cost-model-only
        assert app.sensors["adc"](0.0) == 21.5

    def test_sense_field_with_unknown_sensor_rejected(self, tmp_path, capsys):
        desc = dict(SENSING_APP_JSON, tasks=[{"name": "sense", "sense": "nope"}],
                    paths={"1": ["sense"]})
        app = tmp_path / "bad.json"
        app.write_text(json.dumps(desc))
        spec = tmp_path / "props.art"
        spec.write_text("sense { maxTries: 2 onFail: skipPath; }")
        assert main(["simulate", str(spec), "--app", str(app)]) == 1
        assert "unknown sensor 'nope'" in capsys.readouterr().err

    def test_sensor_faults_flag_injects_and_reports(self, sensing_files, capsys):
        app, spec, _ = sensing_files
        assert main(["simulate", spec, "--app", app, "--runs", "5",
                     "--sensor-faults", "adc:timeout:0.4:seed=9"]) == 0
        out = capsys.readouterr().out
        assert "faults=" in out and "retries=" in out
        assert "faults=0" not in out  # seed 9 at 40% definitely fires

    def test_sensor_faults_unknown_sensor_rejected(self, sensing_files, capsys):
        app, spec, _ = sensing_files
        assert main(["simulate", spec, "--app", app,
                     "--sensor-faults", "ghost:timeout:0.5"]) == 1
        assert "unknown sensor" in capsys.readouterr().err

    def test_sensor_faults_malformed_spec_rejected(self, sensing_files, capsys):
        app, spec, _ = sensing_files
        assert main(["simulate", spec, "--app", app,
                     "--sensor-faults", "adc:timeout"]) == 1
        assert "fault spec" in capsys.readouterr().err

    def test_degradation_flag_accepted(self, sensing_files, capsys):
        app, spec, _ = sensing_files
        assert main(["simulate", spec, "--app", app,
                     "--degradation", "0.35:0.85"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_degradation_malformed_rejected(self, sensing_files, capsys):
        app, spec, _ = sensing_files
        assert main(["simulate", spec, "--app", app,
                     "--degradation", "high"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_rejects_priority_on_collect(self, sensing_files, capsys):
        app, _, tmp_path = sensing_files
        spec = tmp_path / "bad_priority.art"
        spec.write_text(
            "avg { collect: 2 dpTask: sense onFail: restartPath priority: 1; }")
        assert main(["check", str(spec), "--app", app]) == 1
        assert "priority is not supported" in capsys.readouterr().err

    def test_check_accepts_priority_on_maxtries(self, sensing_files, capsys):
        app, _, tmp_path = sensing_files
        spec = tmp_path / "good_priority.art"
        spec.write_text("send { maxTries: 4 onFail: skipPath priority: 1; }")
        assert main(["check", str(spec), "--app", app]) == 0
        assert "specification OK" in capsys.readouterr().out


class TestVerify:
    def test_single_scenario_passes(self, capsys):
        assert main(["verify", "--workload", "health",
                     "--runtime", "checkpoint", "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] health-checkpoint" in out

    def test_counterexample_exits_three_with_witness(self, capsys):
        from repro.verify import broken_commit_ordering
        with broken_commit_ordering():
            code = main(["verify", "--workload", "health",
                         "--runtime", "artemis", "--bound", "1",
                         "--budget", "120", "--shrink-runs", "60"])
        assert code == 3
        out = capsys.readouterr().out
        assert "[FAIL] health-artemis" in out
        assert "crash at payment" in out
        assert "divergence:" in out

    def test_self_test_flag(self, capsys):
        assert main(["verify", "--self-test", "--bound", "1",
                     "--budget", "400"]) == 0
        out = capsys.readouterr().out
        assert "mutation self-test" in out
        assert "crash at payment" in out

    def test_unknown_runtime_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--runtime", "freertos"])


class TestFleetLockstepJobs:
    ARGV = ["fleet", "rollout", "--lockstep", "--seed-mode", "per_cohort",
            "--expand-limit", "0", "--devices", "12", "--waves", "0.5,1.0",
            "--runs", "2", "--json"]

    def test_jobs_run_representatives_on_the_pool(self, capsys):
        """``-j`` counts for lockstep rollouts: at ``-j 2`` the cohort
        representatives run on the pool and the report is unchanged."""
        from repro.sim.pool import get_pool

        assert main(self.ARGV + ["-j", "1"]) == 0
        inline = capsys.readouterr().out
        chunks = get_pool(2).chunks_dispatched
        assert main(self.ARGV + ["-j", "2"]) == 0
        pooled = capsys.readouterr().out
        assert get_pool(2).chunks_dispatched > chunks
        assert pooled == inline
        assert json.loads(pooled)["devices_attempted"] == 12
