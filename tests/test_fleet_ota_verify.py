"""Conformance of the OTA pipeline under exhaustive crash schedules.

The ``("ota", "artemis")`` scenario runs a device that receives and
installs a monitor update mid-flight. The explorer crashes it at every
energy payment (radio chunks, activation commit steps, migration) and
compares the durable outcome — active version, monitor version,
probation, migration log, transfer status — against the crash-free
oracle. Bound 1 is exhausted here (fast); bound 2 runs under a budget
(the full bound-2 space, ~4.7k schedules, is exhausted by the CI
conformance gate and was verified counterexample-free).

A scenario builds the server-side bundle and update wire once and
shares them; the last class checks that its builds still provision
independent devices, each offered what an unshared build offers.
"""

import pytest

from repro.fleet.bundle import build_bundle
from repro.verify.workloads import (
    OTA_SPEC_V1,
    OTA_SPEC_V2,
    _ota_app,
    get_scenario,
)


def _explorer():
    return get_scenario("ota", "artemis").explorer()


class TestOtaConformance:
    def test_bound_1_exhaustive(self):
        report = _explorer().explore(bound=1, budget=400)
        assert report.ok, report.summary()
        assert not report.truncated
        # The oracle pays energy for radio chunks and commit steps, so
        # the single-crash frontier must be substantial — a tiny count
        # means the update pipeline never actually ran.
        assert report.depth1_crash_points > 50

    def test_bound_2_budgeted(self):
        report = _explorer().explore(bound=2, budget=800)
        assert report.ok, report.summary()
        assert report.schedules_checked > 400

    def test_oracle_installs_the_update(self):
        """Crash-free, the update lands: the oracle outcome the crash
        schedules are compared against has version 2 active, healthy."""
        explorer = _explorer()
        report = explorer.explore(bound=0, budget=10)
        assert report.ok and not report.truncated
        scenario = get_scenario("ota", "artemis")
        device, runtime = scenario.build()
        device.run(runtime, **scenario.run_kwargs)
        extra = scenario.extract_extra(device, runtime)
        assert extra["active_version"] == 2
        assert extra["monitor_version"] == 2
        assert extra["update_outcome"] == "installed"
        assert not extra["probation"]
        assert not extra["migration_pending"]
        assert not extra["transfer_failed"]
        assert device.trace.count("ota_activate") == 1
        assert device.trace.count("ota_switch") == 1


class TestOtaBuildsStayIndependent:
    """A scenario builds the server side once and shares it with every
    schedule's build: the v1 bundle is frozen and the wire is bytes, so
    sharing must leave each device as if provisioned on its own."""

    @pytest.mark.parametrize("workload", ["ota", "ota-delta"])
    def test_two_builds_from_one_scenario(self, workload):
        scenario = get_scenario(workload, "artemis")
        first_device, first = scenario.build()
        second_device, second = scenario.build()
        assert first_device.nvm is not second_device.nvm
        assert (first_device.nvm.state_fingerprint()
                == second_device.nvm.state_fingerprint())

        app = _ota_app()
        v1 = build_bundle(OTA_SPEC_V1, app, version=1)
        v2 = build_bundle(OTA_SPEC_V2, app, version=2)
        wire = (v1.delta_to(v2) if workload == "ota-delta" else v2).to_wire()
        for runtime in (first, second):
            assert runtime._offer == (wire, 2)
            assert runtime.installer.active_bundle() == v1

        untouched = second_device.nvm.state_fingerprint()
        result = first_device.run(first, **scenario.run_kwargs)
        assert result.completed
        assert first.update_outcome == "installed"
        assert second_device.nvm.state_fingerprint() == untouched
        assert second.update_outcome == "pending"


class TestMonitorPlansBuiltOnce:
    """Every schedule provisions a fresh device, and every device builds
    its monitors; the plans behind them are built once per distinct
    property set in the process."""

    def test_bound_2_builds_each_property_set_once(self, monkeypatch):
        import repro.core.monitor as monitor

        monitor._monitor_plan.cache_clear()
        monitor._generated_classes.cache_clear()
        built = []
        real = monitor.build_monitor_plan

        def counting(props):
            built.append(tuple(props))
            return real(props)

        monkeypatch.setattr(monitor, "build_monitor_plan", counting)
        report = _explorer().explore(bound=2, budget=1000, por=True)
        assert report.ok and not report.truncated, report.summary()
        assert report.schedules_checked > 80
        # v1 on every device, v2 after the swap: two sets, one build each.
        assert len(built) == len(set(built)) == 2
