"""Property-based check: retries composed with mid-commit crashes can
never double-commit a task or tear an atomically staged pair of writes.

Hypothesis draws a sensor fault pattern (how many leading accesses time
out, plus a stochastic rate) and a set of commit-step crash indices for
:class:`~repro.sim.faults.FailDuringCommit`. Whatever the interleaving,
the task's two staged writes — an append to ``log`` and the matching
``count`` — must stay consistent, and no committed append may repeat.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retry import RetryPolicy
from repro.core.runtime import ArtemisRuntime
from repro.energy.power import MCU_ACTIVE_POWER_W, PowerModel, TaskCost
from repro.peripherals import PeripheralSet, TransientTimeout
from repro.sim.faults import FailDuringCommit
from repro.spec.validator import load_properties
from repro.taskgraph.builder import AppBuilder
from repro.taskgraph.context import channel_cell_name


def _record(ctx):
    reading = ctx.sample("adc")
    log = list(ctx.read("log", []))
    log.append(reading)
    ctx.write("log", log)
    ctx.write("count", len(log))  # staged with the append: one commit


def _build(fail_first, rate, fault_seed, max_attempts, crash_indices):
    app = (
        AppBuilder("pair")
        .task("record", body=_record)
        .path(1, ["record"])
        .sensor("adc", lambda t: t)
        .build()
    )
    readings = iter(range(10 ** 6))
    app.sensors["adc"] = lambda t, _it=readings: next(_it)
    peripherals = PeripheralSet(app.sensors)
    peripherals.attach("adc", TransientTimeout(rate=rate, seed=fault_seed))

    class FailFirst(TransientTimeout):
        def __init__(self, n):
            super().__init__()
            self.left = n

        def fires(self, t):
            if self.left > 0:
                self.left -= 1
                return True
            return False

    peripherals.attach("adc", FailFirst(fail_first))
    device = FailDuringCommit(crash_indices).device
    props = load_properties("record { maxTries: 50 onFail: skipTask; }", app)
    runtime = ArtemisRuntime(
        app, props, device,
        PowerModel({}, default_cost=TaskCost(1e-3, MCU_ACTIVE_POWER_W)),
        peripherals=peripherals,
        retry_policy=RetryPolicy(max_attempts=max_attempts,
                                 backoff_base_s=1e-3),
    )
    return device, runtime


def _channel(device, name, default=None):
    cell = channel_cell_name(name)
    return device.nvm.cell(cell).get() if cell in device.nvm else default


class TestRetryCommitConsistency:
    @given(
        fail_first=st.integers(0, 5),
        rate=st.floats(0.0, 0.3, allow_nan=False),
        fault_seed=st.integers(0, 1000),
        max_attempts=st.integers(1, 4),
        crash_indices=st.sets(st.integers(1, 60), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_double_commit_no_torn_pair(self, fail_first, rate,
                                           fault_seed, max_attempts,
                                           crash_indices):
        device, runtime = _build(fail_first, rate, fault_seed,
                                 max_attempts, crash_indices)
        result = device.run(runtime, runs=4, max_time_s=3600)
        assert result.completed

        log = _channel(device, "log", [])
        count = _channel(device, "count", 0)
        # The pair committed atomically, every time.
        assert count == len(log)
        # No committed append ever replayed twice: readings are unique
        # by construction, so a duplicate means a double-commit.
        assert len(set(log)) == len(log)
        # A run either committed its append or watchdog-skipped it.
        skips = device.trace.count("task_skip")
        assert len(log) + skips >= 4
        # Counters agree with the trace.
        assert result.task_retries == device.trace.count("task_retry")
        assert result.watchdog_trips == device.trace.count("watchdog_trip")
        assert result.sensor_faults == device.trace.count("sensor_fault")
