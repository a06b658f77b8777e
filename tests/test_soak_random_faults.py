"""Randomized soak testing: runtime invariants under arbitrary faults.

Property-based complement to the exhaustive crash sweep: hypothesis
draws fault seeds and probabilities, and for every draw the full health
benchmark must terminate with consistent externally visible state.

``make soak`` runs this file across a seed matrix: the ``SOAK_SEED``
environment variable offsets every drawn seed into a disjoint range so
each matrix entry soaks a different slice of the fault space.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retry import RetryPolicy
from repro.core.runtime import ArtemisRuntime
from repro.peripherals import BurstDropout, PeripheralSet
from repro.sim.faults import FailRandomly
from repro.spec.validator import load_properties
from repro.taskgraph.context import channel_cell_name
from repro.workloads.health import (
    BENCHMARK_SPEC,
    build_health_app,
    health_power_model,
)

#: Seed-matrix offset for `make soak`; 0 in the default tier-1 run.
SOAK_SEED = int(os.environ.get("SOAK_SEED", "0"))


def run_with_faults(p, seed, runs=1):
    device = FailRandomly(p=p, seed=seed + SOAK_SEED * 100_000).device
    app = build_health_app()
    props = load_properties(BENCHMARK_SPEC, app)
    runtime = ArtemisRuntime(app, props, device, health_power_model())
    result = device.run(runtime, runs=runs, max_time_s=3600)
    return device, runtime, result


def run_with_sensor_faults(p, seed, dropout, runs=1):
    """Power failures *and* a flaky PPG sensor, retried with backoff."""
    full_seed = seed + SOAK_SEED * 100_000
    device = FailRandomly(p=p, seed=full_seed).device
    app = build_health_app()
    peripherals = PeripheralSet(app.sensors)
    peripherals.attach("ppg", BurstDropout(rate=dropout, seed=full_seed))
    props = load_properties(BENCHMARK_SPEC, app)
    runtime = ArtemisRuntime(
        app, props, device, health_power_model(),
        peripherals=peripherals,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=1e-3),
    )
    result = device.run(runtime, runs=runs, max_time_s=3600)
    return device, runtime, result


class TestRandomFaultSoak:
    @given(seed=st.integers(0, 10_000),
           p=st.floats(0.0, 0.15, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_always_terminates_with_consistent_output(self, seed, p):
        device, runtime, result = run_with_faults(p, seed)
        assert result.completed
        # The monitor left no dangling continuation.
        assert not runtime.monitor.in_progress
        # Whatever happened, each completed path transmitted once, and
        # the temperature path either delivered its 10-sample average
        # or was never reached — but never a partial average.
        sent_cell = channel_cell_name("sent")
        sent = (device.nvm.cell(sent_cell).get()
                if sent_cell in device.nvm else []) or []
        assert 1 <= len(sent) <= 3
        temps_cell = channel_cell_name("temps")
        if temps_cell in device.nvm:
            temps = device.nvm.cell(temps_cell).get() or []
            avg_cell = channel_cell_name("avgTemp")
            if avg_cell in device.nvm and device.nvm.cell(avg_cell).get():
                assert len(temps) == 10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_multi_run_progress_under_faults(self, seed):
        device, runtime, result = run_with_faults(0.08, seed, runs=3)
        assert result.completed
        assert result.runs_completed == 3
        complete_marks = device.trace.count("run_complete")
        assert complete_marks == 3

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_trace_is_well_formed(self, seed):
        """Structural trace invariants: starts and ends pair up per
        task; boots follow failures; timestamps are monotone."""
        device, _, result = run_with_faults(0.12, seed)
        assert result.completed
        last_t = 0.0
        open_task = None
        for event in device.trace:
            assert event.t >= last_t - 1e-9
            last_t = max(last_t, event.t)
            if event.kind == "task_start":
                open_task = event.detail["task"]
            elif event.kind == "task_end":
                assert event.detail["task"] == open_task
        failures = device.trace.count("power_failure")
        boots = device.trace.count("boot")
        assert boots >= failures  # every failure answered by a boot


class TestSensorFaultSoak:
    """Power failures and sensor faults combined, with the retry layer
    and livelock watchdog active."""

    @given(seed=st.integers(0, 10_000),
           p=st.floats(0.0, 0.1, allow_nan=False),
           dropout=st.floats(0.0, 0.3, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_terminates_and_counters_match_trace(self, seed, p, dropout):
        device, runtime, result = run_with_sensor_faults(p, seed, dropout)
        assert result.completed
        assert not runtime.monitor.in_progress
        assert result.sensor_faults == device.trace.count("sensor_fault")
        assert result.task_retries == device.trace.count("task_retry")
        assert result.watchdog_trips == device.trace.count("watchdog_trip")
        # Retry bookkeeping never leaks: after a completed run every
        # per-task attempt counter has been cleared or escalated.
        attempts = device.nvm.cell("rt.retry.attempts").get()
        assert attempts == {}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_multi_run_progress_under_combined_faults(self, seed):
        device, _, result = run_with_sensor_faults(0.05, seed, 0.2, runs=3)
        assert result.completed
        assert result.runs_completed == 3
        assert device.trace.count("run_complete") == 3
