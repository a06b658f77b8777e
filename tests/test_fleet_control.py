"""Control-plane tests: bounded-queue backpressure semantics, the
shared-memory telemetry row codec, streamed-vs-inline rollout
equivalence, device builds run once per rollout by build key, and the
always-on serve loop (:mod:`repro.fleet.control`)."""

import asyncio
import functools
import math
import multiprocessing
import signal
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet.control import (
    ControlConfig,
    ControlPlane,
    ShardedRegistry,
    TelemetryEvent,
    TelemetryQueue,
    WaveTask,
)
from repro.fleet.server import (
    _FIELD_KINDS,
    ENERGY_CLASSES,
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V1,
    FLEET_SPEC_V2,
    RF_CLASS,
    FleetServer,
    RolloutPlan,
    RolloutReport,
)
from repro.fleet.telemetry import DeviceTelemetry, aggregate
from repro.sim.batch import BatchFleetCore
from repro.sim.pool import PersistentPool, ResultCache


def run(coro):
    return asyncio.run(coro)


def event(i: int) -> TelemetryEvent:
    return TelemetryEvent(i, "treatment", {"device_id": i})


class TestTelemetryQueueBackpressure:
    def test_validation(self):
        with pytest.raises(FleetError):
            TelemetryQueue(0)
        with pytest.raises(FleetError):
            TelemetryQueue(4, policy="drop_newest")
        with pytest.raises(FleetError):
            ControlConfig(policy="nope")
        with pytest.raises(FleetError):
            ControlConfig(queue_capacity=0)

    def test_shed_oldest_drop_counter_exact(self):
        async def scenario():
            q = TelemetryQueue(3, policy="shed_oldest")
            for i in range(10):
                await q.put(event(i))
            # Capacity 3, 10 puts, no consumer: exactly 7 shed, and the
            # survivors are the newest three in order.
            assert q.dropped == 7
            assert len(q) == 3
            assert q.high_watermark == 3
            survivors = [(await q.get()).device_id for _ in range(3)]
            assert survivors == [7, 8, 9]
            assert q.total_in == 10 and q.total_out == 3

        run(scenario())

    def test_shed_never_drops_end_of_stream_sentinels(self):
        async def scenario():
            q = TelemetryQueue(2, policy="shed_oldest")
            await q.put(event(0))
            await q.put(None)  # producer ended
            await q.put(event(1))  # sheds event 0, not the sentinel
            await q.put(event(2))  # sheds event 1
            assert q.dropped == 2
            assert await q.get() is None
            assert (await q.get()).device_id == 2

        run(scenario())

    def test_block_policy_never_drops_and_producer_resumes(self):
        async def scenario():
            q = TelemetryQueue(2, policy="block")
            await q.put(event(0))
            await q.put(event(1))
            assert q.full()

            done = asyncio.Event()

            async def producer():
                await q.put(event(2))  # must wait: queue at capacity
                done.set()

            task = asyncio.ensure_future(producer())
            await asyncio.sleep(0.01)
            assert not done.is_set()  # producer is actually blocked
            assert q.blocked_puts == 1
            # Drain one slot; the blocked producer must resume.
            assert (await q.get()).device_id == 0
            await asyncio.wait_for(done.wait(), timeout=2.0)
            await task
            assert q.dropped == 0
            got = [(await q.get()).device_id for _ in range(2)]
            assert got == [1, 2]

        run(scenario())

    @pytest.mark.parametrize("policy", ["block", "shed_oldest"])
    def test_full_queue_never_deadlocks_under_load(self, policy):
        """Many producers against a tiny queue with a slow consumer:
        everything terminates (guarded by wait_for), counters add up."""

        async def scenario():
            q = TelemetryQueue(2, policy=policy)
            n_producers, per_producer = 8, 25

            async def producer(base):
                for i in range(per_producer):
                    await q.put(event(base + i))

            async def consumer():
                received = 0
                expected = n_producers * per_producer
                while received + q.dropped < expected:
                    if policy == "shed_oldest" and len(q) == 0 \
                            and q.total_in == expected:
                        break
                    await q.get()
                    received += 1
                return received

            producers = [asyncio.ensure_future(producer(k * 1000))
                         for k in range(n_producers)]
            consume = asyncio.ensure_future(consumer())
            await asyncio.wait_for(asyncio.gather(*producers), timeout=10.0)
            # Producers done; drain whatever is left.
            received = await asyncio.wait_for(consume, timeout=10.0)
            total = n_producers * per_producer
            assert q.total_in == total
            assert received + q.dropped + len(q) == total
            if policy == "block":
                assert q.dropped == 0

        run(scenario())


class TestShardedRegistry:
    def test_sharding_and_rollup_merge(self):
        reg = ShardedRegistry(n_shards=4, window_s=100.0)
        for i in range(12):
            reg.record(DeviceTelemetry.from_row({
                "device_id": i, "completed": True, "runs_completed": 3,
                "reboots": 0, "total_time_s": 50.0 * i,
                "total_energy_mj": 1.0, "radio_energy_mj": 0.1,
                "violations_before": i, "violations_after": 0,
                "runs_before": 3, "runs_after": 0,
                "degradation_shed": 0, "degradation_restored": 0,
                "chunks_lost": 0, "rollbacks": 0,
                "update_outcome": "installed", "active_version": 2,
            }))
        assert reg.devices == 12
        assert reg.shard_sizes() == [3, 3, 3, 3]
        assert reg.shard_of(7) == 3
        assert reg.get(7).active_version == 2
        assert reg.version_counts() == {2: 12}
        merged = reg.merged_rollup()
        assert merged.count == 12
        # 12 samples at t = 0..550 over 100 s windows -> 6 windows.
        assert len(merged.windows()) == 6

    def test_rejects_bad_shard_count(self):
        with pytest.raises(FleetError):
            ShardedRegistry(n_shards=0)


class TestWaveTaskCodec:
    def test_every_telemetry_field_has_a_codec(self):
        """Adding a DeviceTelemetry field without deciding how it rides
        the shared-memory row must fail this test, not corrupt rows."""
        assert set(_FIELD_KINDS) == \
            set(DeviceTelemetry.__dataclass_fields__)

    @pytest.mark.parametrize("outcome,version", [
        ("installed", 2), ("pending", None), ("failed", None), ("none", 1),
    ])
    def test_row_round_trips_bit_exactly(self, outcome, version):
        row = {
            "device_id": 12345, "completed": True, "runs_completed": 3,
            "reboots": 17, "total_time_s": 12345.6789,
            "total_energy_mj": 0.123456, "radio_energy_mj": 3.25,
            "violations_before": 7, "violations_after": 0,
            "runs_before": 2, "runs_after": 1,
            "degradation_shed": 1, "degradation_restored": 1,
            "chunks_lost": 4, "rollbacks": 0,
            "update_outcome": outcome, "active_version": version,
            "predictive_sheds": 2, "shed_lead_s": 0.015625,
        }
        encoded = WaveTask.encode_row(row)
        assert len(encoded) == WaveTask.shm_row_size
        assert all(isinstance(v, float) for v in encoded)
        decoded = WaveTask.decode_row(tuple(encoded))
        assert decoded == row
        # Types too, not just ==: bool must stay bool, None stay None.
        assert isinstance(decoded["completed"], bool)
        assert isinstance(decoded["reboots"], int)
        if version is None:
            assert decoded["active_version"] is None

    def test_fingerprint_distinguishes_arm_and_plan(self):
        plan = RolloutPlan(runs=2)
        t1 = WaveTask("spec", 1, b"wire", 2, plan)
        t2 = WaveTask("spec", 1, None, 2, plan)
        t3 = WaveTask("spec", 1, b"wire", 2, RolloutPlan(runs=3))
        fps = {t1.fingerprint(), t2.fingerprint(), t3.fingerprint()}
        assert len(fps) == 3
        assert t1.fingerprint() == WaveTask("spec", 1, b"wire", 2,
                                            plan).fingerprint()


@pytest.fixture(scope="module")
def small_plan():
    return RolloutPlan(runs=2)


class TestStreamedRollout:
    def test_streamed_equals_inline_byte_for_byte(self, small_plan):
        server = FleetServer()
        streamed = server.rollout(FLEET_SPEC_V2, 16, plan=small_plan,
                                  jobs=4)
        inline = server.rollout(FLEET_SPEC_V2, 16, plan=small_plan, jobs=1)
        assert streamed.to_dict() == inline.to_dict()
        assert streamed.ok

    def test_regressing_update_halts_and_ledger_records_it(self, small_plan):
        server = FleetServer()
        plane = ControlPlane(server, plan=small_plan, jobs=1)
        report = plane.run_rollout(FLEET_SPEC_REGRESSING, 12)
        assert report.halted and report.halted_wave == 0
        assert plane.ledger[0].decision == "halt"
        assert plane.ledger[0].devices == len(report.waves[0].device_ids)
        assert plane.ledger[0].rollback_devices == sum(
            1 for t in report.waves[0].telemetry if t.installed)

    def test_ledger_and_registry_follow_a_clean_rollout(self, small_plan):
        server = FleetServer()
        events = []
        plane = ControlPlane(server, plan=small_plan, jobs=1,
                             on_event=events.append)
        report = plane.run_rollout(FLEET_SPEC_V2, 10)
        assert report.ok
        assert [e.decision for e in plane.ledger] == \
            ["promote", "promote", "complete"]
        assert sum(e.devices for e in plane.ledger) == 10
        # Every treatment report was folded into the sharded registry.
        assert plane.registry.devices == 10
        assert plane.registry.events == 10
        kinds = [e["event"] for e in events]
        assert kinds.count("wave_start") == 3
        assert kinds.count("wave_decision") == 3
        # One telemetry event per treatment device (paired-control runs
        # are internal evidence, not fleet-visible reports).
        assert kinds.count("telemetry") == 10
        # Windowed rollups accumulated evidence for the gate decisions.
        assert plane.ledger[-1].windows
        assert plane.ledger[-1].queue["dropped"] == 0

    def test_shed_policy_surfaces_drop_counts_in_summary(self, small_plan):
        server = FleetServer()
        plane = ControlPlane(
            server, plan=small_plan, jobs=1,
            config=ControlConfig(queue_capacity=1, policy="shed_oldest"))
        report = plane.run_rollout(FLEET_SPEC_V2, 8)
        dropped = sum(w.summary.telemetry_dropped for w in report.waves)
        ledger_dropped = sum(e.queue.get("dropped", 0)
                             for e in plane.ledger)
        assert dropped == ledger_dropped
        # Whatever was shed is missing from aggregation, honestly.
        received = sum(w.summary.devices for w in report.waves)
        attempted = sum(len(w.device_ids) for w in report.waves)
        treatment_dropped = sum(
            len(w.device_ids) - len(w.telemetry) for w in report.waves)
        assert received == attempted - treatment_dropped

    def test_result_cache_round_trip(self, small_plan, tmp_path):
        server = FleetServer()
        first = server.rollout(FLEET_SPEC_V2, 8, plan=small_plan, jobs=1,
                               cache=str(tmp_path / "cache"))
        second = server.rollout(FLEET_SPEC_V2, 8, plan=small_plan, jobs=1,
                                cache=str(tmp_path / "cache"))
        assert first.to_dict() == second.to_dict()

    def test_lockstep_plan_still_runs_through_the_plane(self):
        plan = RolloutPlan(runs=2, lockstep=True, seed_mode="per_cohort")
        server = FleetServer()
        report = server.rollout(FLEET_SPEC_V2, 8, plan=plan)
        assert report.ok
        assert report.summary is not None


class TestServeLoop:
    def test_serve_rolls_out_then_monitors(self, small_plan):
        server = FleetServer()
        plane = ControlPlane(server, plan=small_plan, jobs=1)
        report = plane.serve(6, new_spec=FLEET_SPEC_V2, cycles=2)
        assert report.rollout is not None and report.rollout.ok
        assert len(report.cycles) == 2
        for cycle in report.cycles:
            assert cycle["summary"]["devices"] == 6
            assert cycle["queue"]["dropped"] == 0
            assert cycle["windows"]
            assert sum(cycle["shards"]) == 6
        # Monitoring keeps folding into the same registry.
        assert plane.registry.events == 6 + 6 + 6  # rollout + 2 cycles

    def test_monitor_only_serve(self, small_plan):
        server = FleetServer()
        plane = ControlPlane(server, plan=small_plan, jobs=1)
        report = plane.serve(4, cycles=1)
        assert report.rollout is None
        assert len(report.cycles) == 1
        # No update was offered: every device reports "none".
        assert report.cycles[0]["summary"]["outcomes"] == {"none": 4}
        assert report.describe()

    def test_serve_validates_cycles(self, small_plan):
        plane = ControlPlane(FleetServer(), plan=small_plan)
        with pytest.raises(FleetError):
            plane.serve(2, cycles=0)

    def test_run_sync_inside_running_loop(self, small_plan):
        """Plane entry points work from async contexts (helper-thread
        fallback instead of a nested-loop crash)."""
        server = FleetServer()
        plane = ControlPlane(server, plan=small_plan, jobs=1)

        async def driver():
            return plane.serve(2, cycles=1)

        report = asyncio.run(driver())
        assert len(report.cycles) == 1

    def test_run_sync_never_reprs_the_report(self, small_plan, monkeypatch):
        """A main-thread rollout must not format its report. While it
        restores the SIGINT handler, ``asyncio.run`` formats the finished
        main task, and with it the task's result; at fleet scale that is
        the repr of every wave's device-id list."""
        assert threading.current_thread() is threading.main_thread()
        # asyncio.run only swaps the handler when it is Python's default.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        calls = []
        monkeypatch.setattr(
            RolloutReport, "__repr__",
            lambda report: calls.append(report) or "RolloutReport(...)")
        try:
            plane = ControlPlane(FleetServer(), plan=small_plan, jobs=1)
            report = plane.run_rollout(FLEET_SPEC_V2, 4)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert report.ok
        assert calls == []


# ---------------------------------------------------------------------------
# One simulation per distinct device build and rollout
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _v2_delta() -> bytes:
    return FleetServer().encode_update(FLEET_SPEC_V2, 2, use_delta=True)


def _key(device_id, wire, plan):
    return FleetServer.build_key(device_id, wire, plan)


def _record_draws(loss):
    """Record each outcome ``loss`` gives, on this model instance only
    (not on a twin that ``build_key`` draws from)."""
    outcomes = []
    fires = loss.fires

    def recording(t):
        outcomes.append(fires(t))
        return outcomes[-1]

    loss.fires = recording
    return outcomes


#: Links whose transfers lose chunks and complete, all abort, or are
#: all cut short by the end of a one-run simulation.
LOSSY_PLAN = RolloutPlan(runs=1, loss_rate=0.3)
ABORT_PLAN = RolloutPlan(runs=1, loss_rate=0.7, retry_max_attempts=2)
MID_TRANSFER_PLAN = RolloutPlan(runs=1, loss_rate=0.3, chunk_size=16)


class TestBuildKey:
    @settings(max_examples=40, deadline=None)
    @given(seed_mode=st.sampled_from(["per_device", "per_cohort"]),
           offered=st.booleans(),
           link=st.sampled_from([
               {"loss_rate": 0.0}, {"loss_rate": 0.02}, {"loss_rate": 0.3},
               {"loss_rate": 0.7, "retry_max_attempts": 2},
               {"loss_rate": 0.3, "chunk_size": 16}]),
           data=st.data())
    def test_equal_keys_give_rows_equal_up_to_the_id(self, seed_mode,
                                                     offered, link, data):
        """The key is complete: whatever else ``build_device`` read of
        an id would split some pair of equal-keyed ids' rows. (At a
        loss rate of 0.02 most transfers lose no chunk, so 0.3 is there
        to make a loss the key missed show in the rows; the last two
        links abort every transfer or cut every one short.)"""
        plan = RolloutPlan(runs=1, seed_mode=seed_mode, **link)
        wire = _v2_delta() if offered else None
        a = data.draw(st.integers(0, 63), label="a")
        same = [d for d in range(64)
                if d != a and _key(d, wire, plan) == _key(a, wire, plan)]
        b = data.draw(st.sampled_from(same or [a]), label="b")
        task = WaveTask(FLEET_SPEC_V1, 1, wire, 2, plan)
        row_a, row_b = task(a), task(b)
        assert (row_a["device_id"], row_b["device_id"]) == (a, b)
        assert dict(row_a, device_id=b) == row_b

    @pytest.mark.parametrize("plan, outcome", [
        (LOSSY_PLAN, "installed"), (ABORT_PLAN, "failed"),
        (MID_TRANSFER_PLAN, "pending")],
        ids=["lossy", "abort", "mid-transfer"])
    def test_the_key_never_stops_before_the_device(self, plan, outcome):
        """A device draws a prefix of its key's loss outcomes, and all
        of them when its transfer ends: the key's stopping rule stops
        no earlier than ``OtaTransport.step``."""
        server, wire = FleetServer(), _v2_delta()
        losses = 0
        for device_id in range(32):
            device, runtime = server.build_device(device_id, wire, 2, plan)
            draws = _record_draws(runtime.transport.loss)
            device.run(runtime, runs=plan.runs, max_time_s=plan.max_time_s,
                       max_reboots=plan.max_reboots)
            assert runtime.update_outcome == outcome
            outcomes = _key(device_id, wire, plan)[2]
            assert tuple(draws) == outcomes[:len(draws)]
            if outcome != "pending":
                assert tuple(draws) == outcomes
            losses += sum(draws)
        assert losses  # every plan loses chunks

    def test_a_control_build_never_draws_a_chunk_loss(self):
        """A control is built without a loss model, which changes
        nothing: offered no update, a device never reaches the draw, so
        a control given the model its treated twin has draws 0 times and
        reports the same row."""
        plan = RolloutPlan(runs=2)
        server = FleetServer()
        control = WaveTask(server.base_spec, 1, None, 2, plan)
        for device_id in range(ENERGY_CLASSES):
            device, runtime = server.build_device(device_id, None, 2, plan)
            assert runtime.transport.loss is None
            loss = FleetServer._build_inputs(device_id, b"update", plan)[2]
            draws = _record_draws(loss)
            runtime.transport.loss = loss
            result = device.run(runtime, runs=plan.runs,
                                max_time_s=plan.max_time_s,
                                max_reboots=plan.max_reboots)
            row = DeviceTelemetry.from_device(device_id, device, result,
                                              runtime).to_row()
            assert row == control(device_id)
            assert draws == []
        device, runtime = server.build_device(0, _v2_delta(), 2, plan)
        draws = _record_draws(runtime.transport.loss)
        device.run(runtime, runs=plan.runs, max_time_s=plan.max_time_s,
                   max_reboots=plan.max_reboots)
        assert draws  # the wrapper counts a treated device's draws

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 10_000), length=st.integers(1, 40),
           offered=st.booleans(), loss_rate=st.sampled_from([0.0, 0.02]))
    def test_per_cohort_keys_are_the_lockstep_cohorts(self, start, length,
                                                      offered, loss_rate):
        """The streamed executor groups by ``build_key``, the lockstep
        core by ``cohort_key``; under ``per_cohort`` the groups agree."""
        plan = RolloutPlan(seed_mode="per_cohort", loss_rate=loss_rate)
        wire = b"update" if offered else None
        ids = range(start, start + length)
        by_key = {}
        for device_id in ids:
            by_key.setdefault(_key(device_id, wire, plan),
                              []).append(device_id)
        core = BatchFleetCore(None, wire, 2, plan)  # partitions by plan
        assert (sorted(by_key.values())
                == sorted(list(members) for _, members in
                          core.partition(ids)))


#: 16 devices in waves of 4 and 12: the control arm is built once per
#: non-RF class (in wave 0) and once per RF device. The treated arm is
#: built once per RF device and once per distinct sequence of chunk-loss
#: outcomes in each other class: running every treated device with its
#: own model recorded, devices 4, 6, 13 and 14 drew what 0, 2, 1 and 2
#: drew. Each build is its lowest id, the first one to run.
REUSE_PLAN = RolloutPlan(waves=(0.25, 1.0), runs=2)
REUSE_DEVICES = 16
TREATED_BUILDS = [0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 15]
CONTROL_BUILDS = [0, 1, 2] + [d for d in range(REUSE_DEVICES)
                              if d % ENERGY_CLASSES == RF_CLASS]


def _arm(wire):
    return "treatment" if wire is not None else "control"


def _spy_builds(monkeypatch):
    builds = []
    build = FleetServer.build_device

    def counting(server, device_id, wire, version, plan):
        builds.append((_arm(wire), device_id))
        return build(server, device_id, wire, version, plan)

    monkeypatch.setattr(FleetServer, "build_device", counting)
    return builds


def _by_arm(pairs):
    return {arm: sorted(d for a, d in pairs if a == arm)
            for arm in ("treatment", "control")}


def _report(report):
    """``to_dict()`` plus every wave's control rows."""
    return report.to_dict(), [[t.to_row() for t in w.control]
                              for w in report.waves]


@pytest.fixture(scope="module")
def every_device_reference():
    """The per-device lockstep rollout, which simulates every device."""
    plane = ControlPlane(FleetServer(),
                         plan=replace(REUSE_PLAN, lockstep=True))
    return _report(plane.run_rollout(FLEET_SPEC_V2, REUSE_DEVICES))


class TestStreamedBuildsOncePerRollout:
    def test_each_build_runs_once_per_rollout(self, monkeypatch,
                                              every_device_reference):
        builds = _spy_builds(monkeypatch)
        plane = ControlPlane(FleetServer(), plan=REUSE_PLAN, jobs=1)
        for _ in range(2):
            builds.clear()
            report = plane.run_rollout(FLEET_SPEC_V2, REUSE_DEVICES)
            # Once per rollout: the second rollout builds them again.
            assert _by_arm(builds) == {"treatment": TREATED_BUILDS,
                                       "control": CONTROL_BUILDS}
            assert _report(report) == every_device_reference

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the worker pool needs the fork start method")
    def test_pooled_arms_hand_the_pool_one_item_per_build(
            self, monkeypatch, every_device_reference):
        items = []
        pool_run = PersistentPool.run

        def counting(pool, task, pending, **kwargs):
            items.extend((_arm(task.wire), d) for d in pending)
            return pool_run(pool, task, pending, **kwargs)

        monkeypatch.setattr(PersistentPool, "run", counting)
        plane = ControlPlane(FleetServer(), plan=REUSE_PLAN, jobs=2)
        report = plane.run_rollout(FLEET_SPEC_V2, REUSE_DEVICES)
        assert _by_arm(items) == {"treatment": TREATED_BUILDS,
                                  "control": CONTROL_BUILDS}
        assert _report(report) == every_device_reference

    def test_the_cache_keeps_every_device_under_its_own_key(
            self, monkeypatch, tmp_path, every_device_reference):
        server = FleetServer()
        cache = ResultCache(tmp_path / "repro_cache")
        puts = []
        put = ResultCache.put

        def counting(self, key, row):
            puts.append(key)
            return put(self, key, row)

        monkeypatch.setattr(ResultCache, "put", counting)
        builds = _spy_builds(monkeypatch)
        cold = ControlPlane(server, plan=REUSE_PLAN, cache=cache)
        first = cold.run_rollout(FLEET_SPEC_V2, REUSE_DEVICES)
        assert _report(first) == every_device_reference
        assert len(builds) == len(TREATED_BUILDS) + len(CONTROL_BUILDS)
        # One row per device per arm, each under its own device's key.
        want = set()
        for wire in (_v2_delta(), None):
            task = WaveTask(server.base_spec, server.base_version, wire, 2,
                            REUSE_PLAN)
            want |= {cache.key_for(task.fingerprint(), {"device_id": d})
                     for d in range(REUSE_DEVICES)}
        assert len(puts) == 2 * REUSE_DEVICES
        assert set(puts) == want
        assert {path.stem for path in cache.root.rglob("*.json")} == want
        builds.clear()
        puts.clear()
        warm = ControlPlane(server, plan=REUSE_PLAN, cache=cache)
        assert _report(warm.run_rollout(FLEET_SPEC_V2,
                                        REUSE_DEVICES)) == _report(first)
        assert (builds, puts) == ([], [])

    def test_a_serve_cycle_records_every_device(self, monkeypatch):
        server = FleetServer()
        task = WaveTask(server.base_spec, server.base_version, None,
                        server.base_version, REUSE_PLAN)
        want = aggregate([DeviceTelemetry.from_row(task(d))
                          for d in range(REUSE_DEVICES)])
        builds = _spy_builds(monkeypatch)
        plane = ControlPlane(server, plan=REUSE_PLAN, jobs=1)
        report = plane.serve(REUSE_DEVICES, cycles=1)
        assert sorted(d for _, d in builds) == CONTROL_BUILDS
        assert plane.registry.devices == REUSE_DEVICES
        assert report.cycles[0]["summary"] == want.to_dict()

    @pytest.mark.parametrize("known", [True, False], ids=["known", "new"])
    def test_reused_rows_do_not_overrun_a_lossy_queue(self, monkeypatch,
                                                      known):
        """Each row of a build, the one that ran and every restamped
        one, is delivered with a yield after it, so a draining consumer
        keeps up with a capacity-1 lossy queue as it does with pool
        results, whether an earlier wave ran the arm's builds (known)
        or this one runs them (new)."""
        server = FleetServer()
        plane = ControlPlane(server, plan=REUSE_PLAN, jobs=1)
        task = WaveTask(server.base_spec, server.base_version, None, 2,
                        REUSE_PLAN)
        ids = range(4, 28) if known else range(12)
        known_rows = ({("control", task.build_key(d)): {"device_id": -1}
                       for d in ids} if known else {})
        builds = _spy_builds(monkeypatch)

        async def scenario():
            queue = TelemetryQueue(1, policy="shed_oldest")
            events = []

            async def consume():
                while True:
                    got = await queue.get()
                    if got is None:
                        return
                    events.append(got)

            consumer = asyncio.ensure_future(consume())
            await plane._produce_arm("control", task, ids, queue,
                                     known_rows)
            await queue.put(None)
            await consumer
            return queue, events

        queue, events = run(scenario())
        assert queue.dropped == 0
        assert sorted(e.device_id for e in events) == list(ids)
        if known:
            assert builds == []
            assert all(e.row == {"device_id": e.device_id} for e in events)
        else:
            assert sorted(d for _, d in builds) == [0, 1, 2, 3, 7, 11]
