"""Fuzzing over synthetic applications, properties, and fault patterns.

The guarded-by-construction property generator plus random fault
injection gives a strong end-to-end invariant: *every* generated
deployment terminates, on every fault pattern, with a quiescent monitor
and a well-formed trace. Each case is deterministic per seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import generate_machines
from repro.core.runtime import ArtemisRuntime
from repro.errors import ReproError
from repro.sim.faults import FailRandomly
from repro.statemachine.analysis import lint
from repro.workloads.synthetic import synthetic_app, synthetic_properties


class TestGenerators:
    def test_app_deterministic_per_seed(self):
        app1, power1 = synthetic_app(seed=7)
        app2, power2 = synthetic_app(seed=7)
        assert app1.task_names == app2.task_names
        for name in app1.task_names:
            assert power1.cost_of(name) == power2.cost_of(name)

    def test_app_shape_bounds(self):
        app, _ = synthetic_app(n_paths=4, tasks_per_path=(2, 3), seed=1)
        assert len(app.paths) == 4
        for path in app.paths:
            assert 2 <= len(path) <= 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReproError):
            synthetic_app(n_paths=0)
        with pytest.raises(ReproError):
            synthetic_app(tasks_per_path=(5, 2))
        app, _ = synthetic_app(seed=0)
        with pytest.raises(ReproError):
            synthetic_properties(app, density=1.5)

    def test_properties_bind_to_app(self):
        app, _ = synthetic_app(seed=3)
        props = synthetic_properties(app, density=0.8, seed=3)
        for prop in props:
            assert app.has_task(prop.task)

    def test_generated_machines_are_lint_clean(self):
        for seed in range(5):
            app, _ = synthetic_app(seed=seed)
            props = synthetic_properties(app, density=0.7, seed=seed)
            for machine in generate_machines(props):
                report = lint(machine, samples=150)
                assert report.clean, str(report)


class TestFuzzDeployments:
    @given(app_seed=st.integers(0, 500),
           prop_seed=st.integers(0, 500),
           fault_seed=st.integers(0, 500),
           density=st.floats(0.0, 0.9),
           p_fail=st.floats(0.0, 0.12))
    @settings(max_examples=30, deadline=None)
    def test_every_guarded_deployment_terminates(
            self, app_seed, prop_seed, fault_seed, density, p_fail):
        app, power = synthetic_app(seed=app_seed)
        props = synthetic_properties(app, density=density, seed=prop_seed)
        device = FailRandomly(p=p_fail, seed=fault_seed).device
        runtime = ArtemisRuntime(app, props, device, power)
        result = device.run(runtime, max_time_s=1800.0)
        assert result.completed, (
            f"non-termination: app_seed={app_seed} prop_seed={prop_seed} "
            f"fault_seed={fault_seed} density={density} p={p_fail}")
        assert not runtime.monitor.in_progress
        # Every path was either completed or explicitly skipped.
        completed = {e.detail["path"]
                     for e in device.trace.of_kind("path_complete")}
        skipped = {e.detail["path"] for e in device.trace.of_kind("path_skip")}
        assert completed | skipped >= {p.number for p in app.paths} or (
            # completePath runs can legitimately end early; synthetic
            # specs never use completePath, so all paths must be covered.
            False
        )

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_differential_backends_on_synthetic_apps(self, seed):
        app, power = synthetic_app(seed=seed)
        props = synthetic_properties(app, density=0.6, seed=seed)
        traces = []
        for backend in ("generated", "interpreted"):
            device = FailRandomly(p=0.05, seed=seed).device
            runtime = ArtemisRuntime(app, props, device, power,
                                     monitor_backend=backend)
            device.run(runtime, max_time_s=1800.0)
            traces.append([(e.kind, e.detail.get("task"))
                           for e in device.trace])
        assert traces[0] == traces[1]
