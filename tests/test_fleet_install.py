"""Bundle installation: activation atomicity, boot-loop rollback,
migration idempotence.

Activation goes through the same journaled two-phase commit as task
commits, so the central test here crashes it at *every* interior step
(via the ``spend`` callback) and checks the post-recovery invariant:
the device is fully on the old version or fully on the new one, and the
active pointer and the migration intention log never disagree.
"""

import pytest

from repro.errors import FleetError, PowerFailure
from repro.fleet.bundle import MonitorBundle, build_bundle
from repro.fleet.install import BundleInstaller
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import NonVolatileMemory
from repro.verify.workloads import OTA_SPEC_V1, OTA_SPEC_V2, _ota_app


def _bundles():
    app = _ota_app()
    return (build_bundle(OTA_SPEC_V1, app, version=1),
            build_bundle(OTA_SPEC_V2, app, version=2))


def _installer(nvm=None, **kwargs):
    nvm = nvm if nvm is not None else NonVolatileMemory()
    journal = CommitJournal(nvm)
    return BundleInstaller(nvm, journal=journal, **kwargs), nvm, journal


def _consistent_state(installer, v1, v2):
    """The cross-cell invariant: pointer, probation and migration log
    describe the same version, which is wholly v1 or wholly v2."""
    active = installer.active_bundle()
    assert active is not None
    assert active in (v1, v2)
    if active == v1:
        # Old world: no probation, no migration outstanding.
        assert not installer.probation
        assert not installer.migration_pending
    else:
        # New world: complete activation side effects.
        assert installer.probation
        assert installer.boot_count == 0
        marker = installer._migrate.get()
        assert marker == {"reset": ["maxTries_sense_p1"],
                          "drop": []} or marker is None
    return active.version


class TestActivationAtomicity:
    def test_crash_free_activation(self):
        v1, v2 = _bundles()
        installer, _, _ = _installer()
        installer.install_initial(v1)
        installer.stage(v2)
        diff = installer.activate()
        assert installer.active_version == 2
        assert installer.probation
        assert diff.changed == ("maxTries_sense_p1",)
        # The old version stays in the standby slot for rollback.
        assert installer.standby_bundle() == v1

    def test_crash_at_every_commit_step_is_atomic(self):
        """Crash activation at step k for every k; after journal
        recovery the install is all-or-nothing."""
        v1, v2 = _bundles()
        # First count the commit steps of a crash-free activation.
        steps = []
        installer, _, _ = _installer()
        installer.install_initial(v1)
        installer.stage(v2)
        installer.activate(on_step=lambda label: steps.append(label))
        assert len(steps) >= 6  # journal x4, seal, apply x4, clear

        outcomes = set()
        for crash_at in range(len(steps)):
            installer, nvm, journal = _installer()
            installer.install_initial(v1)
            installer.stage(v2)
            remaining = [crash_at]

            def spend():
                if remaining[0] == 0:
                    raise PowerFailure(0.0)
                remaining[0] -= 1

            with pytest.raises(PowerFailure):
                installer.activate(spend=spend)
            # Reboot: resolve the journal, then check the invariant.
            journal.recover()
            rebooted = BundleInstaller(nvm, journal=journal)
            outcomes.add(_consistent_state(rebooted, v1, v2))
        # The sweep must observe both worlds: crashes before the seal
        # roll back to v1, crashes after it roll forward to v2.
        assert outcomes == {1, 2}

    def test_activate_without_staged_bundle_rejected(self):
        v1, _ = _bundles()
        installer, _, _ = _installer()
        installer.install_initial(v1)
        with pytest.raises(FleetError):
            installer.activate()


class TestBootLoopRollback:
    def test_rollback_at_threshold(self):
        v1, v2 = _bundles()
        installer, _, _ = _installer(boot_loop_threshold=3)
        installer.install_initial(v1)
        installer.stage(v2)
        installer.activate()
        assert installer.probation
        for boot in range(1, 3):
            assert installer.record_boot() == boot
            assert not installer.rollback_needed()
        installer.record_boot()
        assert installer.rollback_needed()
        assert installer.rollback() == 1
        assert installer.active_version == 1
        assert not installer.probation
        # The reverse migration resets the changed machine and drops
        # the one v2 introduced.
        marker = installer._migrate.get()
        assert set(marker["reset"]) == {"maxTries_sense_p1"}
        assert set(marker["drop"]) == {"collect_send_p1"}

    def test_mark_healthy_ends_probation(self):
        v1, v2 = _bundles()
        installer, _, _ = _installer(boot_loop_threshold=2)
        installer.install_initial(v1)
        installer.stage(v2)
        installer.activate()
        installer.record_boot()
        installer.mark_healthy()
        assert not installer.probation
        assert installer.boot_count == 0
        # Boots after probation no longer count toward rollback.
        assert installer.record_boot() == 0
        assert not installer.rollback_needed()

    def test_rollback_without_standby_stops_watchdog(self):
        v1, _ = _bundles()
        installer, _, _ = _installer(boot_loop_threshold=1)
        installer.install_initial(v1)
        installer._probation.set(True)
        installer._boot_count.set(5)
        assert not installer.rollback_needed()  # nothing to return to
        assert installer.rollback() is None
        assert not installer.probation


class TestMigration:
    class _FakeMonitor:
        name = "monitor"

        def __init__(self, names):
            self.machines = [type("M", (), {"name": n})() for n in names]
            self.resets = []

        def reset_machine(self, name):
            self.resets.append(name)

    def test_migration_replay_is_idempotent(self):
        v1, v2 = _bundles()
        installer, nvm, _ = _installer()
        installer.install_initial(v1)
        installer.stage(v2)
        installer.activate()
        assert installer.migration_pending
        monitor = self._FakeMonitor(["maxTries_sense_p1", "collect_send_p1"])
        actions = installer.finish_migration(monitor)
        assert actions == ["reset:maxTries_sense_p1"]
        assert not installer.migration_pending
        # Replaying with a cleared log is a no-op.
        assert installer.finish_migration(monitor) == []
        assert monitor.resets == ["maxTries_sense_p1"]

    def test_migration_drop_frees_machine_cells(self):
        v1, v2 = _bundles()
        installer, nvm, _ = _installer()
        installer.install_initial(v2)
        installer.stage(v1)
        installer.activate()  # downgrade: v1 lacks collect_send_p1
        nvm.alloc("monitor.collect_send_p1.state", 0, 2)
        monitor = self._FakeMonitor(["maxTries_sense_p1"])
        actions = installer.finish_migration(monitor)
        assert "drop:collect_send_p1" in actions
        assert "monitor.collect_send_p1.state" not in nvm


class TestDecodeMemo:
    """Each slot is decoded once per write, and the decode follows every
    write, corruption and written-back mutation exactly as an uncached
    decode does."""

    @staticmethod
    def _uncached(installer, nvm, slot):
        payload = nvm.cell(f"slots.{slot}").get()
        return None if payload is None else MonitorBundle.from_payload(payload)

    def _check(self, installer, nvm):
        for slot in ("a", "b"):
            assert installer._bundle_in(slot) == self._uncached(
                installer, nvm, slot)
        active = installer.active_slot
        assert installer.active_bundle() == self._uncached(installer, nvm,
                                                           active)
        assert installer.standby_bundle() == self._uncached(
            installer, nvm, installer.standby_slot)
        return installer.active_bundle()

    def test_follows_the_install_protocol(self):
        v1, v2 = _bundles()
        installer, nvm, _ = _installer()
        assert installer.active_bundle() is None
        installer.install_initial(v1)
        assert self._check(installer, nvm) == v1
        assert installer.active_bundle() is installer.active_bundle()
        installer.stage(v2)
        assert self._check(installer, nvm) == v1
        assert installer.standby_bundle() == v2
        installer.activate()
        assert self._check(installer, nvm) == v2
        assert installer.standby_bundle() == v1
        installer.rollback()
        assert self._check(installer, nvm) == v1
        installer.stage(v2)  # restage over the same slot: a new write
        assert self._check(installer, nvm) == v1
        assert installer.standby_bundle() == v2

    def test_follows_corruption_and_written_back_mutation(self):
        v1, _ = _bundles()
        installer, nvm, _ = _installer()
        installer.install_initial(v1)
        assert self._check(installer, nvm) == v1
        nvm.corrupt("slots.a", bit=1)  # flips the payload's first field
        corrupted = self._check(installer, nvm)
        assert corrupted != v1
        cell = nvm.cell("slots.a")
        cell.set(v1.payload())
        assert self._check(installer, nvm) == v1
        payload = cell.get()
        payload["version"] = 7
        cell.set(payload)  # same object, one more write
        assert self._check(installer, nvm).version == 7

    def test_decode_error_is_raised_on_every_call(self):
        v1, _ = _bundles()
        installer, nvm, _ = _installer()
        installer.install_initial(v1)
        nvm.cell("slots.a").set({"name": "monitor"})
        for _ in range(2):
            with pytest.raises(FleetError, match="malformed bundle payload"):
                installer.active_bundle()
        nvm.cell("slots.a").set(v1.payload())
        assert installer.active_bundle() == v1
