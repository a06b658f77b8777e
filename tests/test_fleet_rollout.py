"""Fleet-scale staged rollouts: completion at >=100 devices, aggregated
telemetry, and the automatic regression halt.

These are the acceptance tests for the fleet server: a benign update
reaches a 100+-device heterogeneous fleet wave by wave and the report
aggregates per-device telemetry; a seeded *regressing* spec (it makes
the monitor strictly noisier) trips the paired-control gate in the
canary wave, so the bulk of the fleet never receives it.
"""

import pytest

from repro.errors import FleetError
from repro.fleet.server import (
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)
from repro.fleet.telemetry import (
    DeviceTelemetry,
    FleetSummary,
    aggregate,
    summarize,
)

_FAST = dict(runs=2, loss_rate=0.02, seed=0)


class TestStagedRollout:
    def test_hundred_device_rollout_completes(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(0.1, 0.5, 1.0), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 100, plan=plan, jobs=4)
        assert report.ok and not report.halted
        assert report.devices_attempted == 100
        # Wave boundaries follow the cumulative fractions.
        assert [len(w.device_ids) for w in report.waves] == [10, 40, 50]
        # Aggregated fleet summary covers every device.
        assert isinstance(report.summary, FleetSummary)
        assert report.summary.devices == 100
        assert report.summary.completed == 100
        # The benign v2 installs essentially everywhere; devices whose
        # energy trace starved the radio may legitimately still be
        # mid-transfer, but never in the majority.
        assert report.summary.outcomes.get("installed", 0) >= 90
        assert report.summary.rollbacks == 0
        # The update gets *better*, not worse: the paired delta each
        # wave observed stays under the halt threshold.
        for wave in report.waves:
            assert wave.regression_delta <= plan.halt_threshold
            assert not wave.halted

    def test_regressing_update_is_halted_in_canary(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(0.1, 0.5, 1.0), **_FAST)
        report = server.rollout(FLEET_SPEC_REGRESSING, 100, plan=plan, jobs=4)
        assert report.halted
        assert report.halted_wave == 0
        assert not report.ok
        # Only the canary wave was ever offered the update.
        assert report.devices_attempted == 10
        assert len(report.waves) == 1
        assert report.waves[0].regression_delta > plan.halt_threshold

    def test_paired_control_isolates_the_update(self):
        """The control arm runs the identical devices without the offer,
        so a benign update's paired delta sits near zero even though the
        absolute violation counts vary across energy classes."""
        server = FleetServer()
        plan = RolloutPlan(waves=(1.0,), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 12, plan=plan)
        wave = report.waves[0]
        assert len(wave.control) == len(wave.telemetry) == 12
        for treated, control in zip(wave.telemetry, wave.control):
            assert treated.device_id == control.device_id
            assert control.update_outcome == "none"
            assert control.active_version == 1

    def test_rollout_report_serializes(self):
        server = FleetServer()
        plan = RolloutPlan(waves=(1.0,), **_FAST)
        report = server.rollout(FLEET_SPEC_V2, 8, plan=plan)
        data = report.to_dict()
        assert data["devices_attempted"] == 8
        assert data["halted"] is False
        assert len(data["waves"]) == 1
        assert isinstance(report.describe(), str)

    def test_rollout_rejects_empty_fleet(self):
        with pytest.raises(FleetError):
            FleetServer().rollout(FLEET_SPEC_V2, 0)


class TestPlanValidation:
    def test_waves_must_be_increasing_to_one(self):
        with pytest.raises(FleetError):
            RolloutPlan(waves=(0.5, 0.25, 1.0))
        with pytest.raises(FleetError):
            RolloutPlan(waves=(0.5,))
        with pytest.raises(FleetError):
            RolloutPlan(waves=())

    def test_aggregate_of_nothing_is_empty(self):
        summary = aggregate([])
        assert summary.devices == 0
        assert summary.regression_delta == 0.0


def _report(**fields):
    """A device report: one run either side of the install, no events."""
    row = dict(device_id=0, completed=True, runs_completed=2, reboots=0,
               total_time_s=1.0, total_energy_mj=0.0, radio_energy_mj=0.0,
               violations_before=0, violations_after=0, runs_before=1,
               runs_after=1, degradation_shed=0, degradation_restored=0,
               chunks_lost=0, rollbacks=0, update_outcome="installed",
               active_version=2)
    row.update(fields)
    return DeviceTelemetry(**row)


_INSTALLED = _report(reboots=4, violations_before=2, violations_after=3,
                     radio_energy_mj=1.5, total_energy_mj=2.5,
                     degradation_shed=1, predictive_sheds=1, shed_lead_s=2.0)
_PENDING = _report(completed=False, reboots=1, violations_before=6,
                   radio_energy_mj=0.5, total_energy_mj=0.5, chunks_lost=2,
                   update_outcome="pending", active_version=1)


class TestSummarize:
    def test_each_report_counts_for_its_devices(self):
        summary = summarize([(_INSTALLED, 3), (_PENDING, 1)])
        assert summary.devices == 4
        assert summary.completed == 3
        assert summary.outcomes == {"installed": 3, "pending": 1}
        assert summary.total_reboots == 3 * 4 + 1
        assert summary.total_violations == 3 * (2 + 3) + 6
        assert summary.degradation_shed == summary.predictive_sheds == 3
        assert summary.chunks_lost == 2
        assert summary.radio_energy_mj == 3 * 1.5 + 0.5
        assert summary.total_energy_mj == 3 * 2.5 + 0.5
        # The before-rate is over all four devices; the after-rate and
        # the delta are over the three installed ones only.
        assert summary.mean_rate_before == (3 * 2 + 6) / 4
        assert summary.mean_rate_after == 3.0
        assert summary.regression_delta == 3.0 - 2.0
        assert summary.mean_shed_lead_s == 2.0

    def test_no_installed_device_means_no_delta(self):
        summary = summarize([(_PENDING, 5)])
        assert summary.devices == 5 and summary.installed == 0
        assert summary.mean_rate_before == 6.0
        assert summary.mean_rate_after == 0.0
        assert summary.regression_delta == 0.0
        assert summary.mean_shed_lead_s == 0.0
