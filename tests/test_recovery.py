"""Tests for the boot-time RecoveryManager and its runtime wiring."""

from unittest import mock

import pytest

from repro.core.actions import Action, ActionType
from repro.core.audit import AuditLog
from repro.core.recovery import RecoveryManager
from repro.core.runtime import ArtemisRuntime
from repro.energy.environment import EnergyEnvironment
from repro.energy.power import PowerModel, TaskCost
from repro.nvm.memory import NonVolatileMemory
from repro.sim.device import Device
from repro.spec.validator import load_properties
from repro.taskgraph.builder import AppBuilder

POWER = PowerModel({}, default_cost=TaskCost(0.05, 1e-3))

SPEC = """
b { maxTries: 3 onFail: skipPath; }
"""


def build_app():
    return (
        AppBuilder("recov")
        .task("a", body=lambda ctx: ctx.append("log", "a"))
        .task("b", body=lambda ctx: ctx.append("log", "b"))
        .path(1, ["a", "b"])
        .build()
    )


def make_runtime(audit_capacity=0):
    device = Device(EnergyEnvironment.continuous())
    app = build_app()
    props = load_properties(SPEC, app)
    runtime = ArtemisRuntime(app, props, device, POWER,
                             audit_capacity=audit_capacity)
    return device, runtime


class TestRecoveryManagerCore:
    def test_clean_boot_reports_clean(self):
        device, runtime = make_runtime()
        report = runtime.recovery.on_boot(device)
        assert report.clean
        assert report.journal == "clean"
        assert device.result.recoveries == 0
        assert device.trace.count("recovery") == 0

    def test_unguarded_cells_are_not_scanned(self):
        device = Device(EnergyEnvironment.continuous())
        device.nvm.alloc("scratch", initial=0)
        device.nvm.corrupt("scratch")
        manager = RecoveryManager(device.nvm)
        manager.guard("other.")
        report = manager.on_boot(device)
        assert report.clean  # "scratch" matches no guard prefix

    def test_guarded_corruption_restored_to_initial(self):
        device = Device(EnergyEnvironment.continuous())
        cell = device.nvm.alloc("g.x", initial=11)
        cell.set(22)
        device.nvm.corrupt("g.x")
        manager = RecoveryManager(device.nvm)
        manager.guard("g.")
        report = manager.on_boot(device)
        assert report.corrupted_cells == ["g.x"]
        assert cell.get() == 11  # alloc-time initial, not the last write
        assert device.result.corruptions_detected == 1
        assert device.result.corruptions_repaired == 1

    def test_component_repairer_runs_after_restore(self):
        device = Device(EnergyEnvironment.continuous())
        device.nvm.alloc("g.x", initial=0)
        device.nvm.corrupt("g.x")
        seen = []

        def repairer(cell_name):
            seen.append((cell_name, device.nvm.cell(cell_name).get()))
            return "component reinitialised"

        manager = RecoveryManager(device.nvm)
        manager.guard("g.", repair=repairer)
        report = manager.on_boot(device)
        assert seen == [("g.x", 0)]  # already reset when repairer runs
        assert "component reinitialised" in report.repairs[0]

    def test_invariant_violation_repaired_and_counted(self):
        device = Device(EnergyEnvironment.continuous())
        cell = device.nvm.alloc("v", initial=1)
        cell.set(-5)  # legitimate write, semantically impossible value
        manager = RecoveryManager(device.nvm)
        manager.add_invariant("v positive", lambda: cell.get() > 0,
                              lambda: cell.set(1))
        report = manager.on_boot(device)
        assert report.invariant_repairs == ["v positive"]
        assert cell.get() == 1
        assert device.result.invariant_repairs == 1
        assert device.trace.count("invariant_repair") == 1

    def test_invariant_check_exception_counts_as_violation(self):
        device = Device(EnergyEnvironment.continuous())
        manager = RecoveryManager(device.nvm)
        manager.add_invariant("always raises",
                              lambda: 1 // 0 > 0, lambda: None)
        report = manager.on_boot(device)
        assert report.invariant_repairs == ["always raises"]


class TestRuntimeRecoveryWiring:
    def test_corrupted_runtime_cell_repaired_on_boot(self):
        device, runtime = make_runtime()
        result = device.run(runtime)
        assert result.completed
        device.nvm.corrupt("rt.cur_path")
        report = runtime.recovery.on_boot(device)
        assert "rt.cur_path" in report.corrupted_cells
        assert device.nvm.verify("rt.cur_path")

    def test_out_of_range_path_index_repaired_by_invariant(self):
        device, runtime = make_runtime()
        device.nvm.cell("rt.cur_path").set(99)  # legit write, bad value
        report = runtime.recovery.on_boot(device)
        assert any("cur_path" in name for name in report.invariant_repairs)
        assert runtime.current_path_number == 1

    def test_corrupted_monitor_cell_resets_owning_machine(self):
        device, runtime = make_runtime()
        machine = runtime.monitor.machines[0]
        instance = runtime.monitor.instances[0]
        state_cell = f"monitor.{machine.name}.state"
        assert state_cell in device.nvm
        device.nvm.corrupt(state_cell)
        report = runtime.recovery.on_boot(device)
        assert state_cell in report.corrupted_cells
        assert any(machine.name in r for r in report.repairs)
        assert instance.state in machine.states

    def test_illegal_monitor_state_reset_via_validate(self):
        device, runtime = make_runtime()
        machine = runtime.monitor.machines[0]
        instance = runtime.monitor.instances[0]
        # A legitimate write of a semantically impossible state: the
        # checksum matches, only validate() can catch it.
        device.nvm.cell(f"monitor.{machine.name}.state").set("Bogus")
        assert runtime.monitor.validate() == [machine.name]
        report = runtime.recovery.on_boot(device)
        assert report.monitor_resets == [machine.name]
        assert instance.state in machine.states
        assert device.result.monitor_resets == 1
        assert device.trace.count("monitor_reset") == 1

    def test_run_completes_after_mid_run_corruption(self):
        """Corruption + repair must not wedge the main loop."""
        device, runtime = make_runtime()
        device.nvm.cell("rt.cur_path").set(7)
        result = device.run(runtime)
        assert result.completed
        assert result.invariant_repairs >= 1

    def test_recovery_entries_reach_the_audit_log(self):
        device, runtime = make_runtime(audit_capacity=8)
        device.nvm.corrupt("rt.status")
        runtime.recovery.on_boot(device)
        actions = [e.action for e in runtime.audit.entries()]
        assert any(a.startswith("recovery:") for a in actions)


class TestScanSkippedWithoutCorruptionRecords:
    """Only a cell with a corruption record can fail ``verify()``, so a
    boot with none skips the checksum scan. Every boot must still
    report, trace and audit exactly what the full scan would."""

    @staticmethod
    def _boot(corrupt=(), rewrite=(), full_scan=False):
        """Boot a fresh runtime after corrupting ``corrupt`` and then
        rewriting ``rewrite``; ``full_scan`` forces the scan."""
        records = mock.patch.object(
            NonVolatileMemory, "corruption_records",
            new_callable=mock.PropertyMock, return_value=1)
        verify = mock.patch.object(NonVolatileMemory, "verify",
                                   autospec=True,
                                   side_effect=NonVolatileMemory.verify)
        device, runtime = make_runtime(audit_capacity=8)
        device.nvm.alloc("spare", initial=0)  # matches no guard
        for name in corrupt:
            device.nvm.corrupt(name)
        for name in rewrite:
            device.nvm.cell(name).set(device.nvm.cell(name).get())
        with verify as counted:
            if full_scan:
                with records:
                    report = runtime.recovery.on_boot(device)
            else:
                report = runtime.recovery.on_boot(device)
        return ((report, list(device.trace.events), runtime.audit.entries()),
                counted.call_count)

    def test_clean_boot_makes_no_verify_call(self):
        outcome, verifies = self._boot()
        assert verifies == 0
        full, scanned = self._boot(full_scan=True)
        assert scanned > 0
        assert outcome == full
        assert outcome[0].clean

    def test_rewritten_cell_needs_no_scan(self):
        outcome, verifies = self._boot(corrupt=("rt.status",),
                                       rewrite=("rt.status",))
        assert verifies == 0
        assert outcome == self._boot(corrupt=("rt.status",),
                                     rewrite=("rt.status",),
                                     full_scan=True)[0]

    @pytest.mark.parametrize("corrupt", [("rt.cur_path", "spare"),
                                         ("spare", "rt.cur_path"),
                                         ("spare",)],
                             ids=["guarded+unguarded", "unguarded+guarded",
                                  "unguarded"])
    def test_corrupted_boot_matches_the_full_scan(self, corrupt):
        outcome, verifies = self._boot(corrupt=corrupt)
        assert verifies > 0
        assert outcome == self._boot(corrupt=corrupt, full_scan=True)[0]
        report, trace, audit = outcome
        guarded = [name for name in corrupt if name != "spare"]
        assert report.corrupted_cells == guarded
        assert (len([e for e in trace if e.kind == "corruption_detected"])
                == len(guarded))
        assert (len([e for e in audit
                     if e.action == "recovery:corruption"]) == len(guarded))


class TestAuditClearTruthfulness:
    def test_clear_does_not_inflate_dropped(self, nvm):
        log = AuditLog(nvm, capacity=3)
        for i in range(5):
            log.record(float(i), f"t{i}", 1, Action(ActionType.SKIP_TASK))
        assert log.dropped == 2  # rotation only
        log.clear()
        assert log.entries() == []
        assert log.cleared == 3
        assert log.dropped == 2  # clearing is deliberate, not loss
        log.record(9.0, "new", 1, Action(ActionType.SKIP_TASK))
        assert log.dropped == 2
        assert log.total_recorded == 6

    def test_record_event_free_form(self, nvm):
        log = AuditLog(nvm, capacity=4)
        entry = log.record_event(3.0, "recovery:corruption", "rt.cur_path",
                                 task="<boot>")
        assert entry.action == "recovery:corruption"
        assert log.entries()[0].source == "rt.cur_path"
        assert log.entries()[0].path == -1
