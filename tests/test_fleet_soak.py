"""Deterministic-seed soak: streamed rollouts under injected chaos
(worker crashes, delayed out-of-order telemetry) must reproduce the
batch path's reports and verdicts byte-for-byte.

Fleet size scales with the ``SOAK_DEVICES`` env var (default 32 keeps
tier-1 fast; CI runs 100 blocking and 500 non-blocking streamed-scale).
"""

import multiprocessing
import os

import pytest

from repro.fleet.control import ChaosWaveTask, ControlPlane
from repro.fleet.server import (
    ENERGY_CLASSES,
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)

SOAK_DEVICES = int(os.environ.get("SOAK_DEVICES", "32"))
SOAK_JOBS = int(os.environ.get("SOAK_JOBS", "4"))

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash injection needs the fork start method")


def chaos_factory(chaos_dir, crash_devices, delay_devices):
    """Task factory injecting one-shot worker crashes and held-back
    (late, out-of-order) telemetry for the nominated devices."""

    def make(base_spec, base_version, wire, version, plan):
        return ChaosWaveTask(
            base_spec, base_version, wire, version, plan,
            chaos_dir=chaos_dir,
            crash_devices=crash_devices,
            delay_devices=delay_devices,
        )

    return make


def crash_set(n_devices):
    # Roughly every 37th device takes its worker down mid-wave.
    return tuple(range(1, n_devices, 37))


def delay_map(n_devices):
    # Roughly every 11th device reports late (seeded, deterministic).
    return {i: 5.0 + (i % 3) for i in range(0, n_devices, 11)}


def crash_markers(chaos_dir):
    return {path.name for path in chaos_dir.iterdir()}


def expected_markers(report, crash_devices):
    """One crash per arm for every nominated device of a simulated
    wave: a nominated device runs in both arms even where its build
    matches a device that already ran."""
    return {f"crash-{arm}-{device_id}"
            for wave in report.waves for device_id in wave.device_ids
            if device_id in crash_devices for arm in "tc"}


@pytest.fixture(scope="module")
def plan():
    return RolloutPlan(runs=2)


@pytest.fixture(scope="module")
def batch_reference(plan):
    """The chaos-free inline rollouts every soak variant must match."""
    server = FleetServer()
    return {
        "benign": server.rollout(FLEET_SPEC_V2, SOAK_DEVICES, plan=plan,
                                 jobs=1),
        "regressing": server.rollout(FLEET_SPEC_REGRESSING, SOAK_DEVICES,
                                     plan=plan, jobs=1),
    }


def ledger_decisions(report):
    out = []
    for index, wave in enumerate(report.waves):
        if wave.halted:
            out.append("halt")
        elif index + 1 == len(report.waves) and not report.halted:
            out.append("complete")
        else:
            out.append("promote")
    return out


@fork_only
class TestStreamedSoakUnderChaos:
    def test_benign_rollout_converges_despite_crashes_and_delays(
            self, plan, batch_reference, tmp_path):
        server = FleetServer()
        plane = ControlPlane(
            server, plan=plan, jobs=SOAK_JOBS,
            task_factory=chaos_factory(str(tmp_path),
                                       crash_set(SOAK_DEVICES),
                                       delay_map(SOAK_DEVICES)))
        streamed = plane.run_rollout(FLEET_SPEC_V2, SOAK_DEVICES)
        reference = batch_reference["benign"]
        assert streamed.to_dict() == reference.to_dict()
        assert [e.decision for e in plane.ledger] == \
            ledger_decisions(reference)
        # Chaos actually happened: every nominated device crashed a
        # worker once per arm.
        assert crash_markers(tmp_path) == expected_markers(
            streamed, crash_set(SOAK_DEVICES))
        assert plane.ledger[-1].queue["dropped"] == 0  # block = lossless

    def test_regressing_rollout_halts_identically(self, plan,
                                                  batch_reference,
                                                  tmp_path):
        server = FleetServer()
        plane = ControlPlane(
            server, plan=plan, jobs=SOAK_JOBS,
            task_factory=chaos_factory(str(tmp_path),
                                       crash_set(SOAK_DEVICES),
                                       delay_map(SOAK_DEVICES)))
        streamed = plane.run_rollout(FLEET_SPEC_REGRESSING, SOAK_DEVICES)
        reference = batch_reference["regressing"]
        assert streamed.to_dict() == reference.to_dict()
        assert streamed.halted and streamed.halted_wave == \
            reference.halted_wave
        assert [e.decision for e in plane.ledger] == \
            ledger_decisions(reference)
        assert plane.ledger[-1].rollback_devices == sum(
            1 for t in reference.waves[-1].telemetry if t.installed)
        assert crash_markers(tmp_path) == expected_markers(
            streamed, crash_set(SOAK_DEVICES))


class TestInlineChaosDeterminism:
    def test_delayed_telemetry_arrives_late_and_out_of_order(
            self, plan, batch_reference, tmp_path):
        """Inline (jobs=1) chaos run: held-back reports are ingested
        after every punctual one, yet the report is still identical."""
        events = []
        server = FleetServer()
        delays = delay_map(SOAK_DEVICES)
        plane = ControlPlane(
            server, plan=plan, jobs=1, on_event=events.append,
            task_factory=chaos_factory(str(tmp_path), (), delays))
        streamed = plane.run_rollout(FLEET_SPEC_V2, SOAK_DEVICES)
        assert streamed.to_dict() == batch_reference["benign"].to_dict()
        # Per wave, every delayed device's telemetry event must arrive
        # after all punctual devices' events (out of id order).
        wave = None
        order = {}
        for event in events:
            if event["event"] == "wave_start":
                wave = event["wave"]
            elif event["event"] == "telemetry":
                order.setdefault(wave, []).append(event["device_id"])
        saw_delayed = 0
        for arrived in order.values():
            punctual = [d for d in arrived if d not in delays]
            late = [d for d in arrived if d in delays]
            if not late:
                continue
            saw_delayed += len(late)
            last_punctual = max(arrived.index(d) for d in punctual)
            assert all(arrived.index(d) > last_punctual for d in late)
        assert saw_delayed == sum(
            1 for wave_report in streamed.waves
            for t in wave_report.telemetry if t.device_id in delays)

    def test_inline_crash_injection_is_retried(self, plan, batch_reference,
                                               tmp_path):
        server = FleetServer()
        plane = ControlPlane(
            server, plan=plan, jobs=1,
            task_factory=chaos_factory(str(tmp_path),
                                       crash_set(SOAK_DEVICES), {}))
        streamed = plane.run_rollout(FLEET_SPEC_V2, SOAK_DEVICES)
        assert streamed.to_dict() == batch_reference["benign"].to_dict()
        assert crash_markers(tmp_path) == expected_markers(
            streamed, crash_set(SOAK_DEVICES))

    def test_a_later_member_of_a_shared_build_still_crashes(
            self, plan, batch_reference, tmp_path):
        """The nominated device is a wave-2 member of a fixed-delay
        class, whose control build wave 0 already ran: it still runs,
        and crashes, in both arms."""
        late = max(d for d in range(SOAK_DEVICES) if d % ENERGY_CLASSES == 1)
        server = FleetServer()
        plane = ControlPlane(
            server, plan=plan, jobs=1,
            task_factory=chaos_factory(str(tmp_path), (late,), {}))
        streamed = plane.run_rollout(FLEET_SPEC_V2, SOAK_DEVICES)
        assert late not in streamed.waves[0].device_ids
        assert streamed.to_dict() == batch_reference["benign"].to_dict()
        assert crash_markers(tmp_path) == {f"crash-t-{late}",
                                           f"crash-c-{late}"}
