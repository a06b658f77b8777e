"""Tests for the Mayfly and Chain-style baselines."""

import pytest

from repro.baselines.chain import ChainRuntime
from repro.baselines.mayfly import Collection, Expiration, MayflyConfig, MayflyRuntime
from repro.energy.environment import EnergyEnvironment
from repro.energy.power import PowerModel, TaskCost
from repro.errors import RuntimeConfigError
from repro.sim.device import Device
from repro.taskgraph.builder import AppBuilder


def power():
    return PowerModel({}, default_cost=TaskCost(0.1, 1e-3))


def continuous():
    return Device(EnergyEnvironment.continuous())


def two_path_app():
    return (
        AppBuilder("tp")
        .task("a").task("b").task("c").task("d")
        .path(1, ["a", "b"])
        .path(2, ["c", "d"])
        .build()
    )


class TestMayflyBasic:
    def test_executes_paths_in_order(self):
        device = continuous()
        runtime = MayflyRuntime(two_path_app(), MayflyConfig(), device, power())
        result = device.run(runtime)
        assert result.completed
        ends = [e.detail["task"] for e in device.trace.of_kind("task_end")]
        assert ends == ["a", "b", "c", "d"]

    def test_unknown_rule_task_rejected(self):
        config = MayflyConfig(expirations=[Expiration("ghost", "a", 1.0)])
        with pytest.raises(RuntimeConfigError):
            MayflyRuntime(two_path_app(), config, continuous(), power())

    def test_collect_restarts_until_satisfied(self):
        config = MayflyConfig(collections=[Collection("b", "a", 3)])
        device = continuous()
        runtime = MayflyRuntime(two_path_app(), config, device, power())
        result = device.run(runtime)
        assert result.completed
        a_runs = [e for e in device.trace.of_kind("task_end")
                  if e.detail["task"] == "a"]
        assert len(a_runs) == 3
        assert device.trace.count("path_restart") == 2

    def test_expiration_fresh_data_passes(self):
        config = MayflyConfig(expirations=[Expiration("b", "a", 60.0)])
        device = continuous()
        runtime = MayflyRuntime(two_path_app(), config, device, power())
        assert device.run(runtime).completed
        assert device.trace.count("path_restart") == 0

    def test_rule_scoped_to_path(self):
        # A rule on task d scoped to path 1 (where d never runs) is inert.
        config = MayflyConfig(collections=[Collection("d", "a", 99, path=1)])
        device = continuous()
        runtime = MayflyRuntime(two_path_app(), config, device, power())
        assert device.run(runtime).completed

    def test_counts_reset_between_runs(self):
        config = MayflyConfig(collections=[Collection("b", "a", 2)])
        device = continuous()
        runtime = MayflyRuntime(two_path_app(), config, device, power())
        result = device.run(runtime, runs=2)
        assert result.runs_completed == 2
        a_runs = [e for e in device.trace.of_kind("task_end")
                  if e.detail["task"] == "a"]
        assert len(a_runs) == 4  # 2 per run; counts did not leak

    def test_checks_for_counts_rules(self):
        config = MayflyConfig(
            expirations=[Expiration("b", "a", 1.0)],
            collections=[Collection("b", "a", 2), Collection("d", "c", 1)],
        )
        assert config.checks_for("b") == 2
        assert config.checks_for("d") == 1
        assert config.checks_for("a") == 0


class TestMayflyLivelock:
    def test_expired_data_livelocks_without_escape(self):
        """The Figure 12 pathology in miniature: the producer-consumer
        pair can never satisfy a 1-second expiration when a brown-out
        longer than that always hits between them."""
        from repro.energy.capacitor import Capacitor

        app = (
            AppBuilder("ll")
            .task("produce").task("consume")
            .path(1, ["produce", "consume"])
            .build()
        )
        model = PowerModel({
            "produce": TaskCost(0.1, 1e-3),
            "consume": TaskCost(0.1, 10e-3),  # 1 mJ: never fits the rest
        })
        cap = Capacitor(0.36e-3, v_initial=3.0)  # ~1.04 mJ usable
        env = EnergyEnvironment.for_charging_delay(30.0, capacitor=cap)
        device = Device(env)
        config = MayflyConfig(expirations=[Expiration("consume", "produce", 1.0)])
        runtime = MayflyRuntime(app, config, device, model)
        result = device.run(runtime, max_time_s=3600)
        assert not result.completed
        assert device.trace.count("path_restart") >= 10


class TestChainRuntime:
    def test_runs_without_checks(self):
        device = continuous()
        runtime = ChainRuntime(two_path_app(), {}, device, power())
        assert device.run(runtime).completed

    def test_inline_check_restart_path(self):
        app = two_path_app()
        state = {"passes": 0}

        def check(ctx):
            state["passes"] += 1
            return None if state["passes"] >= 3 else "restart_path"

        device = continuous()
        runtime = ChainRuntime(app, {"b": check}, device, power())
        assert device.run(runtime).completed
        assert device.trace.count("path_restart") == 2

    def test_inline_check_skip_path(self):
        device = continuous()
        runtime = ChainRuntime(two_path_app(), {"a": lambda ctx: "skip_path"},
                               device, power())
        assert device.run(runtime).completed
        ends = [e.detail["task"] for e in device.trace.of_kind("task_end")]
        assert "b" not in ends

    def test_check_cost_charged_as_app_time(self):
        device = continuous()
        runtime = ChainRuntime(two_path_app(), {"a": lambda ctx: None},
                               device, power())
        device.run(runtime)
        # 4 tasks x 0.1 s plus one inline check's worth of app time.
        assert device.result.busy_time_s["app"] == pytest.approx(
            0.4 + ChainRuntime.CHECK_S)
        assert device.result.busy_time_s["monitor"] == 0.0

    def test_invalid_check_result_rejected(self):
        device = continuous()
        runtime = ChainRuntime(two_path_app(), {"a": lambda ctx: "explode"},
                               device, power())
        with pytest.raises(RuntimeConfigError):
            device.run(runtime)

    def test_unknown_check_task_rejected(self):
        with pytest.raises(RuntimeConfigError):
            ChainRuntime(two_path_app(), {"ghost": lambda ctx: None},
                         continuous(), power())


class TestBaselineCrashConsistency:
    """The journaled commit and boot-time recovery protect the baselines
    too: a brown-out inside any commit step must be rolled back or
    forward so tasks never double-execute their committed effects."""

    @staticmethod
    def _logging_app():
        return (
            AppBuilder("blog")
            .task("a", body=lambda ctx: ctx.append("log", "a"))
            .task("b", body=lambda ctx: ctx.append("log", "b"))
            .task("c", body=lambda ctx: ctx.append("log", "c"))
            .path(1, ["a", "b"])
            .path(2, ["c"])
            .build()
        )

    def _sweep(self, make_runtime):
        from repro.sim.faults import FailDuringCommit
        from repro.taskgraph.context import channel_cell_name

        # Oracle: failure-free run.
        device = continuous()
        result = device.run(make_runtime(device))
        assert result.completed
        base_log = device.nvm.cell(channel_cell_name("log")).get()

        # Count the commit steps, then crash at each one in turn.
        probe = FailDuringCommit(indices=set()).device
        assert probe.run(make_runtime(probe), max_time_s=600).completed
        total_steps = probe.scheduler.steps
        assert total_steps >= 3 * 4  # >= 2n+2 points per task commit

        for step in range(1, total_steps + 1):
            device = FailDuringCommit({step}).device
            result = device.run(make_runtime(device), max_time_s=600)
            log = device.nvm.cell(channel_cell_name("log")).get()
            assert result.completed, f"commit step {step} wedged the run"
            assert result.reboots == 1
            assert result.torn_commits + result.journal_replays == 1
            assert log == base_log, (
                f"commit step {step}: {log} != oracle {base_log}")

    def test_mayfly_commit_interior_crashes_recover(self):
        self._sweep(lambda device: MayflyRuntime(
            self._logging_app(), MayflyConfig(), device, power()))

    def test_chain_commit_interior_crashes_recover(self):
        self._sweep(lambda device: ChainRuntime(
            self._logging_app(), {}, device, power()))

    def test_mayfly_counts_never_double_increment(self):
        """The classic torn-commit bug: a crash between the channel
        commit and the count increment used to re-run the task with the
        count already bumped. Staged control state makes that window
        impossible."""
        from repro.sim.faults import FailDuringCommit

        config = MayflyConfig(collections=[Collection("b", "a", 2)])
        app = (
            AppBuilder("cnt")
            .task("a", body=lambda ctx: ctx.append("log", "a"))
            .task("b", body=lambda ctx: ctx.append("log", "b"))
            .path(1, ["a", "b"])
            .build()
        )
        # Crash inside the first task's commit on every possible step.
        for step in range(1, 13):
            device = FailDuringCommit({step}).device
            runtime = MayflyRuntime(app, config, device, power())
            result = device.run(runtime, max_time_s=600)
            if not result.completed:
                continue  # step index beyond this run's commit steps
            from repro.taskgraph.context import channel_cell_name
            log = device.nvm.cell(channel_cell_name("log")).get()
            # A double-counted `a` would let `b` run after a single
            # append; rolled-back commits re-run `a` in full. Either
            # way the committed log must match the failure-free oracle.
            assert log == ["a", "a", "b"], f"step {step}: {log}"
