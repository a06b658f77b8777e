"""Tests for the intermittent-device simulator."""

import dataclasses

import pytest

from repro.energy.capacitor import Capacitor
from repro.energy.environment import EnergyEnvironment
from repro.energy.harvester import ConstantHarvester
from repro.errors import PowerFailure, SimulationError
from repro.sim.device import Device
from repro.sim.result import RunResult


def harvested_device(usable_mj=10.0, charge_s=60.0):
    cap = Capacitor(capacitance=usable_mj * 1e-3 / 2.88, v_max=3.3,
                    v_on=3.0, v_off=1.8, v_initial=3.0)
    env = EnergyEnvironment.for_charging_delay(charge_s, capacitor=cap)
    return Device(env)


class TestConsume:
    def test_continuous_never_fails(self, continuous_device):
        continuous_device.consume(1000.0, 1.0, "app")
        assert continuous_device.sim_clock.now() == 1000.0

    def test_accounting_per_category(self, continuous_device):
        continuous_device.consume(1.0, 2e-3, "app")
        continuous_device.consume(0.5, 2e-3, "runtime")
        continuous_device.consume(0.25, 2e-3, "monitor")
        res = continuous_device.result
        assert res.busy_time_s["app"] == 1.0
        assert res.busy_time_s["runtime"] == 0.5
        assert res.busy_time_s["monitor"] == 0.25
        assert res.energy_j["app"] == pytest.approx(2e-3)
        assert res.on_time_s == pytest.approx(1.75)

    def test_unknown_category_rejected(self, continuous_device):
        with pytest.raises(SimulationError):
            continuous_device.consume(1.0, 1.0, "mystery")

    def test_negative_args_rejected(self, continuous_device):
        with pytest.raises(SimulationError):
            continuous_device.consume(-1.0, 1.0, "app")

    def test_zero_duration_noop(self, continuous_device):
        continuous_device.consume(0.0, 1.0, "app")
        assert continuous_device.sim_clock.now() == 0.0

    def test_depletion_raises_power_failure(self):
        device = harvested_device(usable_mj=1.0)
        with pytest.raises(PowerFailure):
            device.consume(10.0, 1e-3, "app")  # needs 10 mJ, has ~1

    def test_depletion_advances_partial_time(self):
        device = harvested_device(usable_mj=1.0, charge_s=100.0)
        harvest_w = device.env.harvester.power_at(0.0)
        usable = device.env.capacitor.usable_energy
        expected_t = usable / (1e-3 - harvest_w)
        with pytest.raises(PowerFailure):
            device.consume(10.0, 1e-3, "app")
        assert device.sim_clock.now() == pytest.approx(expected_t, rel=1e-6)
        assert not device.alive

    def test_consume_after_death_rejected(self):
        device = harvested_device(usable_mj=1.0)
        with pytest.raises(PowerFailure):
            device.consume(10.0, 1e-3, "app")
        with pytest.raises(SimulationError):
            device.consume(0.1, 1e-3, "app")

    def test_harvest_covers_light_load(self):
        cap = Capacitor(1e-3, v_initial=3.0)
        env = EnergyEnvironment(harvester=ConstantHarvester(5e-3), capacitor=cap)
        device = Device(env)
        device.consume(100.0, 1e-3, "app")  # load < harvest: no depletion
        assert device.alive

    def test_instant_energy_draw(self):
        device = harvested_device(usable_mj=5.0)
        device.consume_energy(1e-3, "app")
        assert device.result.energy_j["app"] == pytest.approx(1e-3)

    def test_instant_draw_can_kill(self):
        device = harvested_device(usable_mj=1.0)
        with pytest.raises(PowerFailure):
            device.consume_energy(5e-3, "app")


class TestReboot:
    def test_reboot_waits_charging_delay(self):
        device = harvested_device(usable_mj=2.0, charge_s=60.0)
        with pytest.raises(PowerFailure):
            device.consume(100.0, 1e-3, "app")
        t_dead = device.sim_clock.now()
        device.reboot()
        assert device.alive
        assert device.sim_clock.now() - t_dead == pytest.approx(60.0)
        assert device.result.reboots == 1
        assert device.result.charge_time_s == pytest.approx(60.0)

    def test_reboot_restores_boot_energy(self):
        device = harvested_device(usable_mj=2.0)
        with pytest.raises(PowerFailure):
            device.consume(100.0, 1e-3, "app")
        device.reboot()
        assert device.env.capacitor.can_boot

    def test_trace_records_failure_and_boot(self):
        device = harvested_device(usable_mj=1.0)
        with pytest.raises(PowerFailure):
            device.consume(10.0, 1e-3, "app")
        device.reboot()
        assert device.trace.count("power_failure") == 1
        assert device.trace.count("boot") == 1


class _FixedWorkRuntime:
    """Toy runtime: N units of work, each (duration, power)."""

    def __init__(self, device, units=5, duration=1.0, power=1e-3):
        self.units_left = device.nvm.alloc("toy.units", units, 2)
        self.duration = duration
        self.power = power

    @property
    def finished(self):
        return self.units_left.get() == 0

    def boot(self, device):
        pass

    def begin_run(self, device):
        pass

    def loop_iteration(self, device):
        device.consume(self.duration, self.power, "app")
        self.units_left.set(self.units_left.get() - 1)


class TestRunLoop:
    def test_completes_on_continuous(self, continuous_device):
        runtime = _FixedWorkRuntime(continuous_device)
        result = continuous_device.run(runtime)
        assert result.completed
        assert result.total_time_s == pytest.approx(5.0)

    def test_completes_across_power_failures(self):
        device = harvested_device(usable_mj=2.5, charge_s=30.0)
        runtime = _FixedWorkRuntime(device, units=5, duration=1.0, power=1e-3)
        result = device.run(runtime)
        assert result.completed
        assert result.reboots >= 1
        assert result.charge_time_s > 0

    def test_max_time_budget_aborts(self):
        device = harvested_device(usable_mj=0.5, charge_s=600.0)
        runtime = _FixedWorkRuntime(device, units=5, duration=1.0, power=1e-3)
        result = device.run(runtime, max_time_s=1000.0)
        assert not result.completed
        assert device.trace.count("gave_up") == 1

    def test_max_reboots_budget_aborts(self):
        device = harvested_device(usable_mj=0.5, charge_s=10.0)
        runtime = _FixedWorkRuntime(device, units=50, duration=1.0, power=1e-3)
        result = device.run(runtime, max_reboots=3)
        assert not result.completed
        assert result.reboots == 3

    def test_multiple_runs(self, continuous_device):
        class Loop(_FixedWorkRuntime):
            def begin_run(self, device):
                self.units_left.set(2)

        runtime = Loop(continuous_device, units=2)
        result = continuous_device.run(runtime, runs=3)
        assert result.completed
        assert result.runs_completed == 3
        assert result.total_time_s == pytest.approx(6.0)

    @staticmethod
    def _intermittent_loop(runs, on_boundary=None):
        """Runs of two work units each on a device that browns out."""
        class Loop(_FixedWorkRuntime):
            def begin_run(self, device):
                self.units_left.set(2)

        device = harvested_device(usable_mj=2.5, charge_s=30.0)
        result = device.run(Loop(device, units=2), runs=runs,
                            on_boundary=on_boundary)
        return result, list(device.trace)

    def test_on_boundary_false_changes_nothing(self):
        seen = []
        result, trace = self._intermittent_loop(
            3, lambda k: seen.append(k) or False)
        assert seen == [1, 2, 3]
        assert result.completed and result.reboots >= 1
        assert (result, trace) == self._intermittent_loop(3)

    def test_on_boundary_true_stops_right_after_that_run(self):
        result, trace = self._intermittent_loop(3, lambda k: k == 2)
        assert not result.completed
        assert result.runs_completed == 2
        assert (trace[-1].kind, trace[-1].detail) == ("run_complete",
                                                      {"run": 2})
        # Everything up to the stop is what a two-run budget leaves,
        # except that the stopped run is not marked complete.
        plain, plain_trace = self._intermittent_loop(2)
        assert trace == plain_trace
        assert dataclasses.replace(result, completed=True,
                                   total_time_s=plain.total_time_s) == plain


class TestRunResult:
    def test_summary_mentions_completion(self):
        res = RunResult(completed=True)
        assert "completed" in res.summary()
        assert "DID NOT FINISH" in RunResult(completed=False).summary()

    def test_overhead_fraction(self):
        res = RunResult()
        res.busy_time_s.update(app=9.0, runtime=0.5, monitor=0.5)
        assert res.overhead_fraction == pytest.approx(0.1)

    def test_overhead_fraction_empty(self):
        assert RunResult().overhead_fraction == 0.0

    def test_total_energy(self):
        res = RunResult()
        res.energy_j.update(app=1.0, runtime=0.5, monitor=0.25)
        assert res.total_energy_j == pytest.approx(1.75)
