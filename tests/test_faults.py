"""Tests for the fault injectors, crash schedulers on a continuous-power
device."""

import pytest

from repro.core.retry import RetryPolicy
from repro.core.runtime import ArtemisRuntime
from repro.energy.environment import EnergyEnvironment
from repro.energy.power import PowerModel, TaskCost
from repro.errors import PowerFailure, SimulationError
from repro.nvm.accesslog import OP_REBOOT, AccessLog
from repro.sim.device import Device
from repro.sim.faults import (
    BitFlipDevice,
    FailAtCategoryIndices,
    FailAtIndices,
    FailDuringCommit,
    FailDuringTasks,
    FailRandomly,
)
from repro.spec.validator import load_properties
from repro.taskgraph.builder import AppBuilder
from repro.taskgraph.context import channel_cell_name
from repro.verify.schedule import CrashScheduleRunner
from tests.test_retry_watchdog import _app, _peripherals


def power():
    return PowerModel({}, default_cost=TaskCost(0.1, 1e-3))


def pipeline_app():
    return (
        AppBuilder("pipe")
        .task("a", body=lambda ctx: ctx.append("log", "a"))
        .task("b", body=lambda ctx: ctx.append("log", "b"))
        .task("c", body=lambda ctx: ctx.append("log", "c"))
        .path(1, ["a", "b", "c"])
        .build()
    )


def make_runtime(device):
    app = pipeline_app()
    return ArtemisRuntime(app, load_properties("", app), device, power())


class TestFailAtIndices:
    def test_fails_at_exact_calls(self):
        device = FailAtIndices({1, 3}).device
        with pytest.raises(PowerFailure):
            device.consume(0.1, 1e-3, "app")
        device.reboot()
        device.consume(0.1, 1e-3, "app")
        with pytest.raises(PowerFailure):
            device.consume(0.1, 1e-3, "app")

    def test_run_completes_through_failures(self):
        device = FailAtIndices({2, 5}).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        assert result.reboots == 2
        assert device.nvm.cell(channel_cell_name("log")).get() == ["a", "b", "c"]

    def test_injected_failures_marked_in_trace(self):
        device = FailAtIndices({1}).device
        device.run(make_runtime(device), max_time_s=600)
        failures = device.trace.of_kind("power_failure")
        assert failures and failures[0].detail.get("injected")


class TestFailAtCategoryIndices:
    def test_category_scoped(self):
        device = FailAtCategoryIndices({"monitor": {1}}).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        failure = device.trace.of_kind("power_failure")[0]
        assert failure.detail["category"] == "monitor"


class TestFailRandomly:
    def test_deterministic_per_seed(self):
        logs = []
        for _ in range(2):
            device = FailRandomly(p=0.05, seed=11).device
            device.run(make_runtime(device), max_time_s=600)
            logs.append([e.kind for e in device.trace])
        assert logs[0] == logs[1]

    def test_completes_despite_random_failures(self):
        device = FailRandomly(p=0.10, seed=3).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        assert device.nvm.cell(channel_cell_name("log")).get() == ["a", "b", "c"]

    def test_max_failures_cap(self):
        device = FailRandomly(p=0.9, seed=1, max_failures=4).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        assert result.reboots <= 4

    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError):
            FailRandomly(p=1.5)
        with pytest.raises(SimulationError):
            FailRandomly(p=-0.1)

    def test_boundary_probabilities_accepted(self):
        """p=1.0 (always fail) and p=0.0 (never fail) are legal."""
        always = FailRandomly(p=1.0, max_failures=1).device
        with pytest.raises(PowerFailure):
            always.consume(0.1, 1e-3, "app")
        never = FailRandomly(p=0.0).device
        result = never.run(make_runtime(never), max_time_s=600)
        assert result.completed and result.reboots == 0


class TestFailDuringCommit:
    def test_counts_only_commit_steps(self):
        device = FailDuringCommit({2}).device
        device.consume(0.1, 1e-3, "app")     # not counted
        device.consume(0.0, 1e-3, "commit")  # step 1
        with pytest.raises(PowerFailure):
            device.consume(0.0, 1e-3, "commit")  # step 2 dies
        assert device.scheduler.steps == 2

    def test_recovery_resolves_the_torn_commit(self):
        """A crash inside a commit is rolled back or forward at boot and
        the run still produces the failure-free result."""
        device = FailDuringCommit({3}).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        assert result.reboots == 1
        assert result.torn_commits + result.journal_replays == 1
        assert device.nvm.cell(channel_cell_name("log")).get() == ["a", "b", "c"]


class TestBitFlipDevice:
    def test_corruption_is_silent_until_verified(self):
        device = BitFlipDevice({2: "chan.log"}).device
        nvm = device.nvm
        nvm.alloc("chan.log", initial=["x"])
        device.consume(0.1, 1e-3, "app")
        assert nvm.verify("chan.log")
        device.consume(0.1, 1e-3, "app")  # flip fires before this call
        assert nvm.cell("chan.log").get() != ["x"]  # reads see garbage
        assert not nvm.verify("chan.log")  # only the checksum can tell
        assert device.trace.count("bit_flip") == 1

    def test_flip_then_crash_is_detected_and_repaired_at_boot(self):
        """A channel cell corrupted mid-run is caught by the next boot's
        checksum scan, repaired, and reported in counters and trace."""
        # chan.log first exists after task a's commit applies it (call
        # 11): allocation now rides inside the journaled apply step, so
        # the flip must land after the first commit, not inside it.
        device = BitFlipDevice({12: "chan.log"}, crash_at=13).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        assert result.corruptions_detected >= 1
        assert result.corruptions_repaired >= 1
        assert device.trace.count("corruption_detected") >= 1
        assert device.trace.count("recovery") >= 1

    def test_flip_at_the_crashing_payment_lands_before_the_crash(self):
        device = BitFlipDevice({2: "chan.log"}, crash_at=2).device
        device.nvm.alloc("chan.log", initial=["x"])
        device.consume(0.1, 1e-3, "app")
        with pytest.raises(PowerFailure):
            device.consume(0.1, 1e-3, "app")
        assert not device.nvm.verify("chan.log")
        assert [e.kind for e in device.trace] == ["bit_flip", "power_failure"]


class TestFailDuringTasks:
    def test_named_task_dies_n_times(self):
        device = FailDuringTasks({"b": 3}).device
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed
        b_starts = [e for e in device.trace.of_kind("task_start")
                    if e.detail["task"] == "b"]
        assert len(b_starts) == 4  # 3 failed attempts + the success
        assert device.nvm.cell(channel_cell_name("log")).get() == ["a", "b", "c"]

    def test_combines_with_maxtries(self):
        app = pipeline_app()
        props = load_properties("b { maxTries: 3 onFail: skipPath; }", app)
        device = FailDuringTasks({"b": 99}).device
        runtime = ArtemisRuntime(app, props, device, power())
        result = device.run(runtime, max_time_s=600)
        assert result.completed
        # b never completes; after 3 attempts the path is skipped.
        log = device.nvm.cell(channel_cell_name("log")).get()
        assert log == ["a"]
        assert device.trace.count("path_skip") == 1


class TestInjectedReboots:
    def test_reboot_marks_the_access_log(self):
        device = FailAtIndices({1}).device
        log = AccessLog()
        device.nvm.attach_access_log(log)
        epoch, region = log.epoch, log.region
        with pytest.raises(PowerFailure):
            device.consume(0.1, 1e-3, "app")
        device.reboot()
        assert (log.epoch, log.region) == (epoch + 1, region + 1)
        marker = log.events[-1]
        assert (marker.op, marker.epoch, marker.region) == (
            OP_REBOOT, epoch + 1, region + 1)

    def test_every_injected_reboot_is_one_power_cycle_in_the_log(self):
        device = FailRandomly(p=0.05, seed=1).device
        log = AccessLog()
        device.nvm.attach_access_log(log)
        result = device.run(make_runtime(device), max_time_s=600)
        assert result.completed and result.reboots > 0
        markers = [e for e in log if e.op == OP_REBOOT]
        assert len(markers) == result.reboots == log.epoch


def _fail_at_second_payment(name):
    """(injector, category) that must die at the second payment."""
    if name == "indices":
        return FailAtIndices({2}).device, "app"
    if name == "category":
        return FailAtCategoryIndices({"runtime": {2}}).device, "runtime"
    if name == "random":
        return FailRandomly(p=1.0, max_failures=None).device, "app"
    if name == "commit":
        return FailDuringCommit({2}).device, "commit"
    return BitFlipDevice({}, crash_at=2).device, "app"


class TestEnergyPayments:
    """A ``consume_energy`` call is one payment to every injector, as
    it is to a scheduler attached to a plain :class:`Device`."""

    def test_always_failing_device_dies_at_an_energy_payment(self):
        device = FailRandomly(p=1.0).device
        with pytest.raises(PowerFailure):
            device.consume_energy(1e-6, "app")
        failure = device.trace.of_kind("power_failure")[-1]
        assert failure.detail == {"category": "app", "injected": True}
        assert device.scheduler.failures == 1
        assert device.result.energy_j["app"] == 0.0
        assert not device.alive

    @pytest.mark.parametrize("name", ["indices", "category", "random",
                                      "commit", "bitflip"])
    def test_energy_payment_counts_once(self, name):
        device, category = _fail_at_second_payment(name)
        if name == "random":
            device.scheduler.p = 0.0
            device.consume(0.0, 1e-3, category)
            device.scheduler.p = 1.0
        else:
            device.consume(0.0, 1e-3, category)
        with pytest.raises(PowerFailure):
            device.consume_energy(1e-6, category)
        assert device.trace.of_kind("power_failure")[-1].detail == {
            "category": category, "injected": True}

    def test_task_energy_payment_is_one_of_its_app_payments(self):
        device = FailDuringTasks({"a": 1}).device
        device.trace.record(0.0, "task_start", task="a")
        with pytest.raises(PowerFailure):
            device.consume_energy(1e-6, "app")
        device.reboot()
        device.consume(0.1, 1e-3, "app")
        assert device.scheduler.remaining == {"a": 0}

    def test_bit_flip_lands_at_an_energy_payment(self):
        device = BitFlipDevice({2: "chan.log"}).device
        device.nvm.alloc("chan.log", initial=["x"])
        device.consume(0.1, 1e-3, "app")
        device.consume_energy(1e-6, "app")
        assert device.scheduler.calls == 2
        assert not device.nvm.verify("chan.log")


def _surcharged_runtime(device):
    """ARTEMIS on a two-task app whose sensor fails twice, with a budget
    of two attempts and a per-retry energy surcharge: one retry, then a
    watchdog trip."""
    app = _app()
    policy = RetryPolicy(max_attempts=2, backoff_base_s=1e-3,
                         jitter_frac=0.0, retry_energy_j=2e-5)
    return ArtemisRuntime(app, load_properties("", app), device, power(),
                          peripherals=_peripherals(app, 2),
                          retry_policy=policy)


def _surcharge_index():
    """1-based payment index of the first retry surcharge."""
    device = Device(EnergyEnvironment.continuous())
    runner = CrashScheduleRunner((), record_from=None).bind(device)
    surcharges = []
    pay = device.consume_energy

    def spy(energy_j, category):
        if category == "runtime":
            surcharges.append(runner.calls + 1)
        pay(energy_j, category)

    device.consume_energy = spy
    result = device.run(_surcharged_runtime(device), max_time_s=600)
    assert (result.task_retries, result.watchdog_trips) == (1, 1)
    assert len(surcharges) == 1
    return surcharges[0]


#: One injector of each kind that crashes ``make_runtime`` at least once;
#: ``BitFlipDevice`` flips nothing, since the runner only crashes.
INJECTORS = {
    "indices": lambda: FailAtIndices({2, 5}),
    "category": lambda: FailAtCategoryIndices({"monitor": {1}, "commit": {4}}),
    "random": lambda: FailRandomly(p=0.10, seed=3),
    "commit": lambda: FailDuringCommit({3}),
    "bitflip": lambda: BitFlipDevice({}, crash_at=13),
    "tasks": lambda: FailDuringTasks({"b": 3}),
}


class TestInjectorsAndSchedulerAgree:
    @pytest.mark.parametrize("name", sorted(INJECTORS))
    def test_injector_crashes_replay_on_the_runner(self, name):
        """The payments an injector crashes at, replayed by
        :class:`CrashScheduleRunner`, give the same run."""
        injector = INJECTORS[name]()
        decisions = []
        decide = injector.before_consume

        def spy(duration_s, power_w, category):
            decisions.append(decide(duration_s, power_w, category))
            return decisions[-1]

        injector.before_consume = spy
        injected = injector.device
        injected_result = injected.run(make_runtime(injected), max_time_s=600)
        schedule = [i for i, crash in enumerate(decisions, 1) if crash]
        assert schedule and injected_result.reboots == len(schedule)
        scheduled = Device(EnergyEnvironment.continuous())
        CrashScheduleRunner(schedule, record_from=None).bind(scheduled)
        scheduled_result = scheduled.run(make_runtime(scheduled),
                                         max_time_s=600)
        assert scheduled.scheduler.calls == len(decisions)
        assert injected.trace.events == scheduled.trace.events
        assert injected_result == scheduled_result
        assert (injected.nvm.state_fingerprint()
                == scheduled.nvm.state_fingerprint())

    def test_both_crash_at_a_retry_surcharge(self):
        index = _surcharge_index()
        injected = FailAtIndices((index,)).device
        injected_result = injected.run(_surcharged_runtime(injected),
                                       max_time_s=600)
        scheduled = Device(EnergyEnvironment.continuous())
        CrashScheduleRunner((index,), record_from=None).bind(scheduled)
        scheduled_result = scheduled.run(_surcharged_runtime(scheduled),
                                         max_time_s=600)
        assert injected.scheduler.calls == scheduled.scheduler.calls
        for device in (injected, scheduled):
            failures = device.trace.of_kind("power_failure")
            assert [f.detail for f in failures] == [
                {"category": "runtime", "injected": True}]
            kinds = [e.kind for e in device.trace]
            crash = kinds.index("power_failure")
            assert kinds[crash - 1] == "task_retry"
        assert injected.trace.events == scheduled.trace.events
        assert injected_result == scheduled_result
        assert (injected.nvm.state_fingerprint()
                == scheduled.nvm.state_fingerprint())

    def test_attempt_counted_across_a_crash_at_the_surcharge(self):
        """The failed attempt is written before its surcharge is paid,
        so after the reboot the second failure trips the watchdog, as in
        a run without the crash."""
        device = FailAtIndices((_surcharge_index(),)).device
        result = device.run(_surcharged_runtime(device), max_time_s=600)
        assert result.completed and result.reboots == 1
        failure = device.trace.of_kind("power_failure")[0]
        assert failure.detail["category"] == "runtime"
        assert (result.task_retries, result.watchdog_trips) == (1, 1)
        kinds = [e.kind for e in device.trace
                 if e.kind in ("task_retry", "power_failure", "boot",
                               "watchdog_trip")]
        assert kinds == ["boot", "task_retry", "power_failure", "boot",
                         "watchdog_trip"]
