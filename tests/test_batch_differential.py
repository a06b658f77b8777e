"""Differential proof that the batched code is byte-equivalent to the
scalar code.

Three layers, one per piece of ``repro.sim.batch``:

* **FSM kernel vs interpreter** — hypothesis draws random property
  sets (the same generators as ``test_differential_monitors.py``),
  desynchronizes the batch's lanes with per-lane warmup prefixes, and
  drives a shared seeded event stream through every lane and a
  per-lane reference :class:`MachineInstance` side by side. Verdicts,
  states and variables must agree after every event, on both the numpy
  and the pure-Python backends. No production path runs the kernel;
  these tests are what hold it to the interpreter.
* **SoA NVM image vs journal recovery** — a property test that
  interrupted :class:`CommitJournal` commits recover identically on a
  memory that round-tripped through :class:`SoAImage`, with
  ``attach_access_log`` signatures as the oracle.
* **Fleet path** — whole staged rollouts through
  ``RolloutPlan(lockstep=True)`` must produce byte-identical reports
  (``to_dict()`` covers every DeviceTelemetry row, FleetSummary, and
  wave delta), and per-device traces/final NVM images out of
  :class:`BatchFleetCore` must equal a scalar ``Device.run`` of the
  same device — including lanes perturbed with crash schedules
  (divergence), lanes whose perturbation was fully absorbed (rejoin),
  and waves of offset ids. The compact rollup (``weighted_summary``)
  is held to the exact ``aggregate``.
  Representatives run on the worker pool (``jobs=2``) must give the
  rollouts, rows and lanes of in-process ones (``jobs=1``). A rollout
  runs each cohort's representative once, in the first wave that holds
  the cohort; later waves reuse its row, and the rollouts stay equal to
  the streamed ones.
"""

import multiprocessing
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import generate_machines
from repro.errors import FleetError, StateMachineError
from repro.fleet.control import ControlPlane, WaveTask
from repro.fleet.server import (
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)
from repro.fleet.telemetry import UPDATE_OUTCOMES, DeviceTelemetry, aggregate
from repro.nvm.accesslog import AccessLog
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import NonVolatileMemory
from repro.sim.batch import (
    HAVE_NUMPY,
    BatchFleetCore,
    BatchMachineSet,
    SoAImage,
    weighted_summary,
)
from repro.sim.experiments import SweepPointError
from repro.sim.pool import PersistentPool, ResultCache, get_pool, shutdown_pools
from repro.statemachine.interpreter import MachineInstance
from repro.statemachine.model import (
    BinOp,
    Const,
    EventPattern,
    StateMachine,
    Transition,
    Var,
    Variable,
)
from repro.verify.schedule import CrashScheduleRunner
from tests.test_differential_monitors import any_property, make_stream

BACKENDS = ["numpy", "python"] if HAVE_NUMPY else ["python"]

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _unique_machines(props):
    machines = generate_machines(props)
    names = [m.name for m in machines]
    return machines if len(set(names)) == len(names) else None


def _verdict_keys(verdicts):
    return [(v.machine, v.action, v.path) for v in verdicts]


# ---------------------------------------------------------------------------
# FSM kernel vs reference interpreter
# ---------------------------------------------------------------------------


class TestKernelVsInterpreter:
    N_LANES = 4

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(props=st.lists(any_property(), min_size=1, max_size=4),
           seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_lanes_track_reference_instances(self, backend, props, seed):
        """Desynchronized lanes + shared event stream: every lane must
        evolve exactly like a reference interpreter seeded with the
        same store."""
        machines = _unique_machines(props)
        if machines is None:
            return
        batch = BatchMachineSet(machines, n_lanes=self.N_LANES,
                                backend=backend)
        warmup = make_stream(seed, self.N_LANES - 1)
        refs = {m.name: [MachineInstance(m) for _ in range(self.N_LANES)]
                for m in machines}
        # Lane i replays the first i warmup events scalar-side, then its
        # store is loaded into the batch — lanes start in genuinely
        # different states.
        for m in machines:
            for lane in range(self.N_LANES):
                for event in warmup[:lane]:
                    refs[m.name][lane].on_event(event)
                batch.load_lane(m.name, lane, refs[m.name][lane].snapshot())
        for i, event in enumerate(make_stream(seed + 1, 12)):
            for m in machines:
                out = batch.step_machine(m.name, event)
                for lane in range(self.N_LANES):
                    want = refs[m.name][lane].on_event(event)
                    got = out.get(lane, [])
                    assert _verdict_keys(got) == _verdict_keys(want), (
                        f"{m.name} lane {lane} verdicts diverge at "
                        f"event {i}")
                    assert (batch.lane_store(m.name, lane)
                            == refs[m.name][lane].snapshot()), (
                        f"{m.name} lane {lane} store diverges at event {i}")

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(props=st.lists(any_property(), min_size=1, max_size=3),
           seed=_seeds)
    @settings(max_examples=25, deadline=None)
    def test_dispatch_step_matches_monitor_order(self, backend, props, seed):
        """``step`` consults the shared subscription tables: for each
        event it must step exactly the subscribed machines, in
        declaration order."""
        machines = _unique_machines(props)
        if machines is None:
            return
        batch = BatchMachineSet(machines, n_lanes=2, backend=backend)
        refs = [MachineInstance(m) for m in machines]
        for event in make_stream(seed, 10):
            relevant = batch.dispatch.get(event.task, batch.wildcard_set)
            want = []
            for idx, inst in enumerate(refs):
                if idx in relevant:
                    want.extend(inst.on_event(event))
            out = batch.step(event)
            for lane in (0, 1):
                assert _verdict_keys(out.get(lane, [])) == \
                    _verdict_keys(want)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(props=st.lists(any_property(), min_size=1, max_size=3),
           seed=_seeds)
    @settings(max_examples=25, deadline=None)
    def test_reset_parity(self, backend, props, seed):
        machines = _unique_machines(props)
        if machines is None:
            return
        batch = BatchMachineSet(machines, n_lanes=3, backend=backend)
        refs = {m.name: MachineInstance(m) for m in machines}
        for event in make_stream(seed, 8):
            for m in machines:
                batch.step_machine(m.name, event)
                refs[m.name].on_event(event)
        for m in machines:
            batch.reset_machine(m.name)
            refs[m.name].reset()
            for lane in range(3):
                assert (batch.lane_store(m.name, lane)
                        == refs[m.name].snapshot())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_division_by_zero_parity(self, backend):
        """A zero divisor on an active lane raises the interpreter's
        exact error; an *inactive* lane's zero divisor must not."""
        machine = StateMachine(
            name="div", states=("s", "t"), initial="s",
            variables=(Variable("d", "int", 0),),
            transitions=(
                Transition("s", "t", EventPattern("anyEvent", None),
                           guard=BinOp("<", BinOp("/", Const(4), Var("d")),
                                       Const(10)),
                           body=()),
            ),
        )
        from repro.core.events import MonitorEvent
        event = MonitorEvent("startTask", "x", 1.0, {})
        ref = MachineInstance(machine)
        with pytest.raises(StateMachineError) as scalar_err:
            ref.on_event(event)

        batch = BatchMachineSet([machine], n_lanes=1, backend=backend)
        with pytest.raises(StateMachineError) as batch_err:
            batch.step_machine("div", event)
        assert str(batch_err.value) == str(scalar_err.value)

        # Lane with nonzero divisor: no raise, same transition.
        ok = BatchMachineSet([machine], n_lanes=1, backend=backend)
        ok.load_lane("div", 0, {"state": "s", "var.d": 2})
        ok.step_machine("div", event)
        want = MachineInstance(machine, {"state": "s", "var.d": 2})
        want.on_event(event)
        assert ok.lane_store("div", 0) == want.snapshot()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(props=st.lists(any_property(), min_size=1, max_size=3),
           seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_amortized_emission_rollup(self, backend, props, seed):
        """The per-batch ``emitted`` counters must equal the per-lane
        verdict counts, whether or not verdicts are materialized."""
        machines = _unique_machines(props)
        if machines is None:
            return
        collecting = BatchMachineSet(machines, n_lanes=3, backend=backend)
        silent = BatchMachineSet(machines, n_lanes=3, backend=backend)
        counted = {}
        for event in make_stream(seed, 10):
            for m in machines:
                out = collecting.step_machine(m.name, event)
                silent.step_machine(m.name, event, collect=False)
                for verdicts in out.values():
                    for v in verdicts:
                        key = (v.machine, v.action, v.path)
                        counted[key] = counted.get(key, 0) + 1
        assert collecting.emitted == counted
        assert silent.emitted == counted


# ---------------------------------------------------------------------------
# SoA NVM image × journal commit/recovery
# ---------------------------------------------------------------------------

_cell_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=9)),
)


class TestSoAJournalRoundTrip:
    @given(cells=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), _cell_values,
        min_size=1, max_size=4),
        staged=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), _cell_values,
            min_size=1, max_size=4),
        phase=st.sampled_from(["pending", "committed", "partially_applied",
                               "corrupt"]),
        seed=_seeds)
    @settings(max_examples=60, deadline=None)
    def test_recovery_identical_through_image(self, cells, staged, phase,
                                              seed):
        """Interrupt a journal commit, snapshot the NVM as a SoAImage,
        restore it, and recover both memories side by side: same
        recovery outcome, same access-log signatures, same final
        durable state."""
        def build():
            nvm = NonVolatileMemory()
            for name, value in cells.items():
                nvm.alloc(name, initial=value, size_bytes=16)
            journal = CommitJournal(nvm)
            journal.begin()
            for name, value in staged.items():
                if name not in cells:
                    nvm.alloc(name, initial=None, size_bytes=16)
                journal.append(name, value)
            if phase != "pending":
                journal.seal()
            if phase == "partially_applied":
                # Roll one entry forward by hand: the applied index is
                # durable, so recovery must resume after it.
                first_cell, first_value = journal.entries()[0]
                nvm.cell(first_cell).set(first_value)
                journal._applied.set(1)
            if phase == "corrupt":
                tampered = journal.entries() + (("a", "tampered"),)
                journal._entries.set(tampered)
            return nvm, journal

        scalar_nvm, _ = build()
        imaged_src, _ = build()
        image = SoAImage.from_nvm(imaged_src)
        restored = image.restore()
        assert restored.state_fingerprint() == scalar_nvm.state_fingerprint()

        logs = []
        outcomes = []
        for nvm in (scalar_nvm, restored):
            log = AccessLog()
            nvm.attach_access_log(log)
            journal = CommitJournal(nvm)
            outcomes.append(journal.recover())
            nvm.detach_access_log()
            logs.append(log)
        assert outcomes[0] == outcomes[1]
        assert logs[0].describe() == logs[1].describe()
        assert (scalar_nvm.state_fingerprint()
                == restored.state_fingerprint())
        assert dict(scalar_nvm.raw_items()) == dict(restored.raw_items())

    @given(cells=st.dictionaries(st.sampled_from(["x", "y", "z"]),
                                 _cell_values, min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_image_preserves_corruption(self, cells):
        """A silently corrupted cell must stay *detectably* corrupt
        through the image round trip (checksums are carried, not
        recomputed)."""
        nvm = NonVolatileMemory()
        for name, value in cells.items():
            nvm.alloc(name, initial=value, size_bytes=16)
        victim = sorted(cells)[0]
        nvm.corrupt(victim)
        restored = SoAImage.from_nvm(nvm).restore()
        assert nvm.verify(victim) == restored.verify(victim)
        assert not restored.verify(victim) or nvm.verify(victim)
        assert dict(nvm.raw_items()) == dict(restored.raw_items())


# ---------------------------------------------------------------------------
# Fleet path: scalar vs lockstep rollouts
# ---------------------------------------------------------------------------


def _plan(**kw):
    base = dict(waves=(0.5, 1.0), runs=2, max_time_s=4 * 3600.0,
                max_reboots=200)
    base.update(kw)
    return RolloutPlan(**base)


@pytest.fixture(scope="module")
def server():
    return FleetServer()


class TestFleetDifferential:
    def test_per_device_rollout_byte_identical(self, server):
        plan = _plan()
        scalar = server.rollout(FLEET_SPEC_V2, 8, plan=plan)
        lock = server.rollout(FLEET_SPEC_V2, 8,
                              plan=replace(plan, lockstep=True))
        assert scalar.to_dict() == lock.to_dict()

    def test_per_cohort_rollout_byte_identical(self, server):
        plan = _plan(seed_mode="per_cohort")
        scalar = server.rollout(FLEET_SPEC_V2, 16, plan=plan)
        lock = server.rollout(FLEET_SPEC_V2, 16,
                              plan=replace(plan, lockstep=True))
        assert scalar.to_dict() == lock.to_dict()

    def test_regression_halt_identical(self, server):
        plan = _plan(seed_mode="per_cohort")
        scalar = server.rollout(FLEET_SPEC_REGRESSING, 12, plan=plan)
        lock = server.rollout(FLEET_SPEC_REGRESSING, 12,
                              plan=replace(plan, lockstep=True))
        assert scalar.halted and lock.halted
        assert scalar.to_dict() == lock.to_dict()

    @pytest.mark.parametrize("spec", [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING],
                             ids=["benign", "regressing"])
    def test_compact_rollout_matches_expanded(self, server, spec):
        """A wave above ``expand_limit`` stays one row per cohort; the
        rollout must still reach the expanded rollout's decisions,
        deltas (up to summation order), counts and blast radius."""
        plan = _plan(seed_mode="per_cohort", lockstep=True)
        runs = []
        for variant in (plan, replace(plan, expand_limit=0)):
            plane = ControlPlane(server, plan=variant)
            runs.append((plane.run_rollout(spec, 12), plane.ledger))
        (expanded, expanded_ledger), (compact, compact_ledger) = runs
        assert ((compact.halted, compact.halted_wave,
                 compact.devices_attempted)
                == (expanded.halted, expanded.halted_wave,
                    expanded.devices_attempted))
        assert len(compact.waves) == len(expanded.waves)
        for c, e in zip(compact.waves, expanded.waves):
            assert c.regression_delta == pytest.approx(e.regression_delta,
                                                       rel=1e-12)
            assert c.halted == e.halted
        for name in ("devices", "completed", "outcomes", "rollbacks",
                     "total_violations", "total_reboots", "chunks_lost",
                     "degradation_shed", "degradation_restored"):
            assert (getattr(compact.summary, name)
                    == getattr(expanded.summary, name)), name
        assert ([(w.decision, w.rollback_devices) for w in compact_ledger]
                == [(w.decision, w.rollback_devices)
                    for w in expanded_ledger])
        if spec is FLEET_SPEC_REGRESSING:
            assert expanded.halted and expanded_ledger[-1].rollback_devices

    @pytest.mark.parametrize("expand_limit", [100_000, 0],
                             ids=["expanded", "compact"])
    def test_each_wave_partitions_once(self, server, monkeypatch,
                                       expand_limit):
        """Both arms of a lockstep wave share one partition; the rollout
        equals one whose arms partition the wave each on their own."""
        plan = _plan(seed_mode="per_cohort", lockstep=True,
                     expand_limit=expand_limit)
        sizes = []
        partition = BatchFleetCore.partition

        def counting(core, ids):
            sizes.append(len(ids))
            return partition(core, ids)

        monkeypatch.setattr(BatchFleetCore, "partition", counting)
        shared = ControlPlane(server, plan=plan)
        got = shared.run_rollout(FLEET_SPEC_V2, 12)
        assert len(shared.ledger) == 2
        assert sizes == [6, 6]

        sizes.clear()
        run = BatchFleetCore.run
        monkeypatch.setattr(
            BatchFleetCore, "run",
            lambda core, ids, groups=None, **kw: run(core, ids, **kw))
        separate = ControlPlane(server, plan=plan)
        want = separate.run_rollout(FLEET_SPEC_V2, 12)
        # Per wave: the plane's (now unused) partition, then one per arm.
        assert sizes == [6] * 6
        assert got.to_dict() == want.to_dict()
        assert _ledger(shared) == _ledger(separate)

    def test_traces_and_final_nvm_byte_identical(self, server):
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        ids = range(8)
        batch = BatchFleetCore(server, wire, 2, plan).run(ids)
        for device_id in ids:
            device, runtime = server.build_device(device_id, wire, 2, plan)
            device.run(runtime, runs=plan.runs, max_time_s=plan.max_time_s,
                       max_reboots=plan.max_reboots)
            assert batch.trace_events_for(device_id) == device.trace.events
            image = batch.nvm_image_for(device_id)
            assert image.fingerprint() == device.nvm.state_fingerprint()
            assert (dict(image.restore().raw_items())
                    == dict(device.nvm.raw_items()))

    def test_weighted_summary_matches_exact_aggregate(self, server):
        """The amortized rollup equals the expanded aggregate up to
        float-summation order (exact here: cohort rows are identical,
        so weighted and repeated addition agree)."""
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        batch = BatchFleetCore(server, wire, 2, plan).run(range(12))
        exact = aggregate(batch.expand())
        rolled = weighted_summary(batch.rows())
        assert rolled.devices == exact.devices
        assert rolled.outcomes == exact.outcomes
        assert rolled.total_violations == exact.total_violations
        assert rolled.total_reboots == exact.total_reboots
        assert rolled.mean_rate_before == pytest.approx(
            exact.mean_rate_before, rel=1e-12)
        assert rolled.total_energy_mj == pytest.approx(
            exact.total_energy_mj, rel=1e-12)


class TestDivergenceAndRejoin:
    def test_perturbed_lane_matches_scalar_run(self, server):
        """A lane with an injected crash schedule must produce the
        exact telemetry/trace/NVM of a scalar run under the same
        schedule — the divergence path is the scalar path."""
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        ids = range(8)
        schedule = (5,)
        batch = BatchFleetCore(server, wire, 2, plan).run(
            ids, perturb={1: schedule})

        device, runtime = server.build_device(1, wire, 2, plan)
        CrashScheduleRunner(schedule, record_from=None).bind(device)
        result = device.run(runtime, runs=plan.runs,
                            max_time_s=plan.max_time_s,
                            max_reboots=plan.max_reboots)
        want = DeviceTelemetry.from_device(1, device, result, runtime)

        lane = batch.lanes[1]
        assert DeviceTelemetry.from_row(dict(lane.row, device_id=1)) == want
        assert lane.trace_events == device.trace.events
        assert (lane.nvm_image.fingerprint()
                == device.nvm.state_fingerprint())
        # The injected crash costs time the representative never spent,
        # and the persistent clock pins time into the NVM fingerprint —
        # so this lane cannot have rejoined.
        assert lane.rejoined is False
        # Unperturbed cohort-mates are untouched by the divergence.
        expanded = batch.expand()
        assert expanded[1] == want
        scalar5 = server.build_device(5, wire, 2, plan)
        r5 = scalar5[0].run(scalar5[1], runs=plan.runs,
                            max_time_s=plan.max_time_s,
                            max_reboots=plan.max_reboots)
        assert expanded[5] == DeviceTelemetry.from_device(
            5, scalar5[0], r5, scalar5[1])

    def test_absorbed_perturbation_rejoins_at_first_boundary(self, server):
        """A perturbation the device fully absorbs (an attached
        scheduler that never fires) re-converges with the ledger at the
        first run boundary; the composed suffix must be byte-identical
        to running the lane scalar to completion."""
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        ids = range(8)
        batch = BatchFleetCore(server, wire, 2, plan).run(
            ids, perturb={2: ()})
        lane = batch.lanes[2]
        assert lane.rejoined is True
        assert lane.rejoin_boundary == 1

        device, runtime = server.build_device(2, wire, 2, plan)
        CrashScheduleRunner((), record_from=None).bind(device)
        result = device.run(runtime, runs=plan.runs,
                            max_time_s=plan.max_time_s,
                            max_reboots=plan.max_reboots)
        want = DeviceTelemetry.from_device(2, device, result, runtime)
        assert DeviceTelemetry.from_row(dict(lane.row, device_id=2)) == want
        assert lane.trace_events == device.trace.events
        assert (lane.nvm_image.fingerprint()
                == device.nvm.state_fingerprint())

    def test_summary_with_divergent_lanes_matches_scalar(self, server):
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        ids = range(8)
        batch = BatchFleetCore(server, wire, 2, plan).run(
            ids, perturb={1: (5,), 2: ()})
        reports = []
        for device_id in ids:
            device, runtime = server.build_device(device_id, wire, 2, plan)
            if device_id == 1:
                CrashScheduleRunner((5,), record_from=None).bind(device)
            elif device_id == 2:
                CrashScheduleRunner((), record_from=None).bind(device)
            result = device.run(runtime, runs=plan.runs,
                                max_time_s=plan.max_time_s,
                                max_reboots=plan.max_reboots)
            reports.append(DeviceTelemetry.from_device(
                device_id, device, result, runtime))
        assert aggregate(batch.expand()) == aggregate(reports)
        assert batch.expand() == reports


class TestLaneBookkeeping:
    """Cohort partition and lane bookkeeping for a wave of offset ids:
    lane ``i`` must always be device ``IDS[i]``. A wave is a range with
    step 1; any other sequence of ids is rejected."""

    IDS = range(13, 21)
    PERTURB = {15: (5,)}

    @pytest.mark.parametrize("seed_mode", ["per_cohort", "per_device"])
    def test_arbitrary_wave_ids(self, server, seed_mode):
        plan = _plan(seed_mode=seed_mode)
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        core = BatchFleetCore(server, wire, 2, plan)
        batch = core.run(self.IDS, perturb=self.PERTURB)
        assert batch.device_ids == self.IDS
        assert list(batch.lanes) == list(self.PERTURB)

        groups = {}
        for device_id in self.IDS:
            groups.setdefault(core.cohort_key(device_id), []).append(device_id)
        assert [c.key for c in batch.cohorts] == sorted(groups, key=repr)
        for cohort in batch.cohorts:
            assert list(cohort.device_ids) == sorted(groups[cohort.key])
        assert sum(count for _, count in batch.rows()) == len(self.IDS)

        expanded = batch.expand()
        for lane, device_id in enumerate(self.IDS):
            report = expanded[lane]
            assert report.device_id == device_id

            device, runtime = server.build_device(device_id, wire, 2, plan)
            if device_id in self.PERTURB:
                CrashScheduleRunner(self.PERTURB[device_id],
                                    record_from=None).bind(device)
            result = device.run(runtime, runs=plan.runs,
                                max_time_s=plan.max_time_s,
                                max_reboots=plan.max_reboots)
            assert report == DeviceTelemetry.from_device(
                device_id, device, result, runtime)
            assert batch.trace_events_for(device_id) == device.trace.events
            image = batch.nvm_image_for(device_id)
            assert image.fingerprint() == device.nvm.state_fingerprint()
        assert batch.nvm_image_for(1) is None
        assert batch.trace_events_for(1) is None

    @pytest.mark.parametrize("ids", [[13, 14, 15], [15, 13, 14],
                                     range(13, 21, 2)],
                             ids=["list", "shuffled", "stepped"])
    def test_a_wave_that_is_not_a_range_is_rejected(self, server, ids):
        core = BatchFleetCore(server, None, 2,
                              _plan(seed_mode="per_cohort"))
        with pytest.raises(FleetError, match="range with step 1"):
            core.partition(ids)
        with pytest.raises(FleetError, match="range with step 1"):
            core.run(ids)

    @pytest.mark.parametrize("seed_mode", ["per_cohort", "per_device"])
    @given(lo=st.integers(min_value=0, max_value=10**6),
           size=st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_partition_agrees_with_cohort_key(self, server,
                                                         seed_mode, lo,
                                                         size):
        ids = range(lo, lo + size)
        core = BatchFleetCore(server, None, 2, _plan(seed_mode=seed_mode))
        reference = {}
        for device_id in ids:
            reference.setdefault(core.cohort_key(device_id), []).append(
                device_id)
        want = [(key, sorted(reference[key]))
                for key in sorted(reference, key=repr)]
        groups = core.partition(ids)
        assert all(isinstance(members, range) for _, members in groups)
        assert [(key, list(members)) for key, members in groups] == want


# ---------------------------------------------------------------------------
# Pooled representatives: jobs=2 against jobs=1
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_pool():
    """A pool forked inside the test (after any patching) and reaped
    after it, so patched workers never serve another test."""
    shutdown_pools()
    yield
    shutdown_pools()


def _ledger(plane):
    return [(e.decision, e.regression_delta, e.rollback_devices)
            for e in plane.ledger]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the worker pool needs the fork start method")
class TestPooledRepresentatives:
    """Representatives on the worker pool (``jobs=2``) against the
    same waves run in-process (``jobs=1``)."""

    IDS = range(8)

    @staticmethod
    def _core(server, seed_mode="per_cohort"):
        plan = _plan(seed_mode=seed_mode)
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        return BatchFleetCore(server, wire, 2, plan)

    @pytest.mark.parametrize("expand_limit", [100_000, 0],
                             ids=["expanded", "compact"])
    @pytest.mark.parametrize("spec", [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING],
                             ids=["benign", "regressing"])
    @pytest.mark.parametrize("seed_mode", ["per_cohort", "per_device"])
    def test_rollout_matches_in_process(self, server, monkeypatch,
                                        seed_mode, spec, expand_limit):
        plan = _plan(seed_mode=seed_mode, lockstep=True,
                     expand_limit=expand_limit)
        inline = ControlPlane(server, plan=plan, jobs=1)
        want = inline.run_rollout(spec, 12)
        pool = get_pool(2)
        chunks, runs = pool.chunks_dispatched, []
        original = type(pool).run

        def counted(self, task, items, **kwargs):
            runs.append(len(items))
            return original(self, task, items, **kwargs)

        monkeypatch.setattr(type(pool), "run", counted)
        pooled = ControlPlane(server, plan=plan, jobs=2)
        got = pooled.run_rollout(spec, 12)
        assert pool.chunks_dispatched > chunks
        if seed_mode == "per_cohort":
            # Wave 0 holds all four cohorts: one pool run per arm, of one
            # representative per cohort. Later waves reuse their rows.
            assert runs == [4, 4]
        else:
            # One pool run per arm of every wave: treatment and control.
            assert len(runs) == 2 * len(pooled.ledger)
        assert got.to_dict() == want.to_dict()
        assert _ledger(pooled) == _ledger(inline)

    def test_singletons_match_the_streamed_rollout(self, server):
        plan = _plan(seed_mode="per_device")
        streamed = ControlPlane(server, plan=plan, jobs=2)
        lockstep = ControlPlane(server, plan=replace(plan, lockstep=True),
                                jobs=2)
        assert (lockstep.run_rollout(FLEET_SPEC_V2, 12).to_dict()
                == streamed.run_rollout(FLEET_SPEC_V2, 12).to_dict())
        assert _ledger(lockstep) == _ledger(streamed)

    def test_pooled_cohorts_keep_only_rows(self, server):
        core = self._core(server)
        want = core.run(self.IDS)
        got = core.run(self.IDS, jobs=2)
        assert got.rows() == want.rows()
        assert got.expand() == want.expand()
        for cohort in got.cohorts:
            assert (cohort.device, cohort.runtime, cohort.ledger,
                    cohort.nvm_image) == (None, None, None, None)
        assert got.trace_events_for(0) is None
        assert got.nvm_image_for(0) is None

    def test_cold_pooled_wave_fills_the_cache(self, server, tmp_path):
        core = self._core(server)
        cache = ResultCache(tmp_path / "repro_cache")
        cold = core.run(self.IDS, cache=cache, jobs=2)
        assert not any(c.from_cache for c in cold.cohorts)
        fingerprint = core.cache_fingerprint()
        for cohort in cold.cohorts:
            point = {"device_id": int(cohort.device_ids[0])}
            assert cache.get(cache.key_for(fingerprint, point)) == cohort.row
        warm = core.run(self.IDS, cache=cache, jobs=2)
        assert all(c.from_cache for c in warm.cohorts)
        assert warm.rows() == cold.rows() == core.run(self.IDS).rows()

    def test_perturbed_cohort_stays_in_process(self, server):
        core = self._core(server)
        perturb = {1: (5,), 2: ()}
        want = core.run(self.IDS, perturb=perturb)
        got = core.run(self.IDS, perturb=perturb, jobs=2)
        in_process = {core.cohort_key(d) for d in perturb}
        for cohort in got.cohorts:
            kept = cohort.ledger is not None and cohort.device is not None
            assert kept == (cohort.key in in_process), cohort.key
        assert list(got.lanes) == list(want.lanes)
        for device_id, lane in got.lanes.items():
            ref = want.lanes[device_id]
            assert (lane.row, lane.rejoined, lane.rejoin_boundary,
                    lane.trace_events) == (ref.row, ref.rejoined,
                                           ref.rejoin_boundary,
                                           ref.trace_events)
            assert (lane.nvm_image.fingerprint()
                    == ref.nvm_image.fingerprint())
        assert got.rows() == want.rows()
        assert got.expand() == want.expand()

    def test_worker_failures_rerun_in_process(self, server, monkeypatch,
                                              fresh_pool):
        core = self._core(server, seed_mode="per_device")
        want = core.run(self.IDS)
        parent, original = os.getpid(), WaveTask.__call__
        inline = []

        def fail_in_workers(task, device_id):
            if os.getpid() != parent:
                raise RuntimeError("injected worker failure")
            inline.append(device_id)
            return original(task, device_id)

        monkeypatch.setattr(WaveTask, "__call__", fail_in_workers)
        got = core.run(self.IDS, jobs=2)
        assert inline == list(self.IDS)
        assert got.rows() == want.rows()
        assert got.expand() == want.expand()

    def test_a_failure_everywhere_raises_naming_the_device(
            self, server, monkeypatch, fresh_pool):
        core = self._core(server, seed_mode="per_device")

        def broken(*args, **kwargs):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(FleetServer, "build_device", broken)
        with pytest.raises(SweepPointError,
                           match=r"device_id=0\].*build.*injected"):
            core.run(self.IDS, jobs=2)


# ---------------------------------------------------------------------------
# Representative rows reused across the waves of one rollout
# ---------------------------------------------------------------------------


#: Three waves over 12 devices: ids 0-2 (cohorts 0-2), 3-5 (cohort 3 is
#: new) and 6-11 (no new cohort).
THREE_WAVES = (0.2, 0.5, 1.0)
ARMS = ("treatment", "control")


def _arm(core_or_task):
    return "treatment" if core_or_task.wire is not None else "control"


def _spy_representatives(monkeypatch):
    """Record ``(arm, cohort)`` of every representative run, in-process
    or as a pool item (cohort = ``device_id % 4``, the ``per_cohort``
    energy class)."""
    runs = []
    run_inline = BatchFleetCore._run_representative
    run_pooled = PersistentPool.run

    def inline(core, cohort):
        runs.append((_arm(core), int(cohort.device_ids[0]) % 4))
        return run_inline(core, cohort)

    def pooled(pool, task, items, **kwargs):
        runs.extend((_arm(task), int(item) % 4) for item in items)
        return run_pooled(pool, task, items, **kwargs)

    monkeypatch.setattr(BatchFleetCore, "_run_representative", inline)
    monkeypatch.setattr(PersistentPool, "run", pooled)
    return runs


def _report(report):
    """``to_dict()`` plus every wave's control rows."""
    return report.to_dict(), [[t.to_row() for t in w.control]
                              for w in report.waves]


class TestRowsReusedAcrossWaves:
    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="the worker pool needs the fork start method"))])
    def test_each_representative_runs_once_per_rollout(self, server,
                                                       monkeypatch, jobs):
        plan = _plan(waves=THREE_WAVES, seed_mode="per_cohort",
                     lockstep=True)
        want = ControlPlane(server, plan=plan).run_rollout(FLEET_SPEC_V2, 12)
        runs = _spy_representatives(monkeypatch)
        plane = ControlPlane(server, plan=plan, jobs=jobs)
        every = sorted((arm, cohort) for arm in ARMS for cohort in range(4))
        for _ in range(2):
            runs.clear()
            got = plane.run_rollout(FLEET_SPEC_V2, 12)
            # Once per rollout: the second rollout runs them all again.
            assert sorted(runs) == every
            assert _report(got) == _report(want)
        assert [e.decision for e in plane.ledger] == [
            "promote", "promote", "complete"] * 2

    @pytest.mark.parametrize("spec", [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING],
                             ids=["benign", "regressing"])
    @pytest.mark.parametrize("seed_mode", ["per_cohort", "per_device"])
    def test_rollout_matches_the_streamed_rollout(self, server, seed_mode,
                                                  spec):
        plan = _plan(waves=THREE_WAVES, seed_mode=seed_mode)
        streamed = ControlPlane(server, plan=plan)
        lockstep = ControlPlane(server, plan=replace(plan, lockstep=True))
        want = streamed.run_rollout(spec, 12)
        got = lockstep.run_rollout(spec, 12)
        assert _report(got) == _report(want)
        assert _ledger(lockstep) == _ledger(streamed)
        assert len(got.waves) == (1 if spec is FLEET_SPEC_REGRESSING else 3)

    @pytest.mark.parametrize("spec", [FLEET_SPEC_V2, FLEET_SPEC_REGRESSING],
                             ids=["benign", "regressing"])
    def test_compact_waves_reach_the_expanded_decisions(self, server, spec):
        plan = _plan(waves=THREE_WAVES, seed_mode="per_cohort",
                     lockstep=True)
        expanded = ControlPlane(server, plan=plan)
        compact = ControlPlane(server, plan=replace(plan, expand_limit=0))
        want = expanded.run_rollout(spec, 12)
        got = compact.run_rollout(spec, 12)
        assert ((got.halted, got.halted_wave, got.devices_attempted)
                == (want.halted, want.halted_wave, want.devices_attempted))
        assert len(got.waves) == len(want.waves)
        for c, e in zip(got.waves, want.waves):
            assert c.regression_delta == pytest.approx(e.regression_delta,
                                                       rel=1e-12)
        assert got.summary.devices == want.summary.devices
        assert got.summary.outcomes == want.summary.outcomes
        assert ([(w.decision, w.rollback_devices) for w in compact.ledger]
                == [(w.decision, w.rollback_devices)
                    for w in expanded.ledger])

    @pytest.mark.parametrize("arm", ARMS)
    def test_members_of_different_waves_give_one_row(self, server, arm):
        """The premise of the reuse: under ``per_cohort`` seeding a
        cohort's row does not depend on which member represents it."""
        plan = _plan(waves=THREE_WAVES, seed_mode="per_cohort")
        wire = (server.encode_update(FLEET_SPEC_V2, 2,
                                     use_delta=plan.use_delta)
                if arm == "treatment" else None)
        task = WaveTask(server.base_spec, server.base_version, wire, 2, plan)
        # (wave 0 or 1 member, wave 1 or 2 member) per cohort.
        for first, later in ((0, 8), (1, 5), (2, 10), (3, 7)):
            assert first % 4 == later % 4
            a, b = task(first), task(later)
            assert (a["device_id"], b["device_id"]) == (first, later)
            assert dict(a, device_id=None) == dict(b, device_id=None)

    def test_perturbed_lanes_in_a_later_wave_still_rejoin(self, server):
        core = TestPooledRepresentatives._core(server)
        known = {}
        core.run(range(8), known_rows=known)
        assert len(known) == 4
        ids, perturb = range(8, 16), {9: (5,), 10: ()}
        got = core.run(ids, perturb=perturb, known_rows=known)
        want = core.run(ids, perturb=perturb)
        for cohort in got.cohorts:
            in_process = cohort.key in (9 % 4, 10 % 4)
            assert (cohort.ledger is not None) == in_process, cohort.key
        assert [(d, lane.row, lane.rejoined, lane.rejoin_boundary,
                 lane.trace_events) for d, lane in got.lanes.items()] == [
            (d, lane.row, lane.rejoined, lane.rejoin_boundary,
             lane.trace_events) for d, lane in want.lanes.items()]
        assert got.lanes[10].rejoined and not got.lanes[9].rejoined
        assert got.rows() == want.rows()
        assert got.expand() == want.expand()

    def test_cache_keeps_every_wave_and_serves_the_next_rollout(
            self, server, monkeypatch, tmp_path):
        plan = _plan(waves=THREE_WAVES, seed_mode="per_cohort",
                     lockstep=True)
        cache = ResultCache(tmp_path / "repro_cache")
        runs = _spy_representatives(monkeypatch)
        cold = ControlPlane(server, plan=plan, cache=cache)
        first = cold.run_rollout(FLEET_SPEC_V2, 12)
        assert len(runs) == 8
        # Every cohort of every wave and arm is stored under its own
        # representative, exactly as when each wave ran its own.
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        want = {}
        for arm_wire in (wire, None):
            core = BatchFleetCore(server, arm_wire, 2, plan)
            fingerprint = core.cache_fingerprint()
            for wave in first.waves:
                for key, members in core.partition(wave.device_ids):
                    point = {"device_id": int(members[0])}
                    task = WaveTask(server.base_spec, server.base_version,
                                    arm_wire, 2, plan)
                    want[cache.key_for(fingerprint, point)] = task(
                        point["device_id"])
        stored = {path.stem for path in cache.root.rglob("*.json")}
        assert stored == set(want)
        for key, row in want.items():
            assert cache.get(key) == row
        runs.clear()
        warm = ControlPlane(server, plan=plan, cache=cache)
        assert _report(warm.run_rollout(FLEET_SPEC_V2, 12)) == _report(first)
        assert runs == []
        assert _ledger(warm) == _ledger(cold)

    def test_a_warm_rollout_writes_nothing_to_the_cache(self, server,
                                                        monkeypatch,
                                                        tmp_path):
        """Every cohort of every wave and arm looks in the cache first:
        a cold rollout stores all 20 and a warm one serves all 20,
        storing none again."""
        plan = _plan(waves=THREE_WAVES, seed_mode="per_cohort",
                     lockstep=True)
        cache = ResultCache(tmp_path / "repro_cache")
        puts = []
        put = ResultCache.put

        def counting(self, key, row):
            puts.append(key)
            return put(self, key, row)

        monkeypatch.setattr(ResultCache, "put", counting)
        for want_puts, want_hits in ((20, 0), (0, 20)):
            puts.clear()
            hits = cache.hits
            ControlPlane(server, plan=plan, cache=cache).run_rollout(
                FLEET_SPEC_V2, 12)
            assert (len(puts), cache.hits - hits) == (want_puts, want_hits)


# ---------------------------------------------------------------------------
# Batch-aware result-cache keys
# ---------------------------------------------------------------------------


class TestBatchCacheKeys:
    """Cohort rows are keyed by the core's ``repr``, which names its
    plan (with the run budget), wire, version and base spec."""

    @staticmethod
    def _core(server, **plan):
        return BatchFleetCore(server, None, 2,
                              _plan(seed_mode="per_cohort", **plan))

    def test_layout_changes_row_key(self, server):
        key = self._core(server).cache_fingerprint()
        assert key == self._core(server).cache_fingerprint()
        assert key != self._core(server, runs=3).cache_fingerprint()

    def test_layout_change_invalidates_cached_rows(self, server, tmp_path):
        """A row stored by one core is served to an identical core and
        to no other: not under another run budget."""
        from repro.sim.pool import ResultCache
        cache = ResultCache(tmp_path / "repro_cache")
        point = {"device_id": 7}
        row = {"device_id": 7, "completed": 1}
        stored = self._core(server).cache_fingerprint()
        cache.put(cache.key_for(stored, point), row)
        assert cache.get(cache.key_for(
            self._core(server).cache_fingerprint(), point)) == row
        assert cache.get(cache.key_for(
            self._core(server, runs=3).cache_fingerprint(), point)) is None

    def test_batch_core_cache_roundtrip(self, server, tmp_path):
        """A warm cache replays cohort representatives byte-identically;
        perturbed cohorts always bypass it."""
        plan = _plan(seed_mode="per_cohort")
        wire = server.encode_update(FLEET_SPEC_V2, 2,
                                    use_delta=plan.use_delta)
        ids = range(8)
        cache_dir = tmp_path / "repro_cache"
        cold = BatchFleetCore(server, wire, 2, plan).run(
            ids, cache=cache_dir)
        warm = BatchFleetCore(server, wire, 2, plan).run(
            ids, cache=cache_dir)
        assert not any(c.from_cache for c in cold.cohorts)
        assert all(c.from_cache for c in warm.cohorts)
        assert warm.rows() == cold.rows()
        assert warm.expand() == cold.expand()
        # A perturbed cohort can't be served from (or poison) the cache.
        perturbed = BatchFleetCore(server, wire, 2, plan).run(
            ids, cache=cache_dir, perturb={1: (5,)})
        victim_key = BatchFleetCore(server, wire, 2, plan).cohort_key(1)
        for cohort in perturbed.cohorts:
            assert cohort.from_cache == (cohort.key != victim_key)
        assert perturbed.expand()[0] == cold.expand()[0]


# ---------------------------------------------------------------------------
# Compact rollup helper
# ---------------------------------------------------------------------------


_floats = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                    allow_infinity=False)
_rows = st.fixed_dictionaries({
    "device_id": st.integers(min_value=0, max_value=10**6),
    "completed": st.booleans(),
    "runs_completed": st.integers(min_value=0, max_value=10),
    "reboots": st.integers(min_value=0, max_value=50),
    "total_time_s": _floats,
    "total_energy_mj": _floats,
    "radio_energy_mj": _floats,
    "violations_before": st.integers(min_value=0, max_value=20),
    "violations_after": st.integers(min_value=0, max_value=20),
    "runs_before": st.integers(min_value=0, max_value=10),
    "runs_after": st.integers(min_value=0, max_value=10),
    "degradation_shed": st.integers(min_value=0, max_value=5),
    "degradation_restored": st.integers(min_value=0, max_value=5),
    "chunks_lost": st.integers(min_value=0, max_value=10),
    "rollbacks": st.integers(min_value=0, max_value=2),
    "update_outcome": st.sampled_from(UPDATE_OUTCOMES),
    "active_version": st.one_of(st.none(), st.integers(1, 3)),
    "predictive_sheds": st.integers(min_value=0, max_value=3),
    "shed_lead_s": _floats,
})


@given(cohorts=st.lists(st.tuples(_rows, st.integers(min_value=1,
                                                     max_value=50)),
                        min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_weighted_summary_counts_scale_linearly(cohorts):
    """Every row counted once, the compact rollup is exactly the
    aggregate over the reports. Each row counted ``n`` times, it equals
    the aggregate over ``n`` copies of each: integer fields exactly,
    float fields up to summation order."""
    reports = [DeviceTelemetry.from_row(row) for row, _ in cohorts]
    assert (weighted_summary([(row, 1) for row, _ in cohorts]).to_dict()
            == aggregate(reports).to_dict())
    rolled = weighted_summary(cohorts).to_dict()
    expanded = aggregate(report for report, (_, n) in zip(reports, cohorts)
                         for _ in range(n)).to_dict()
    assert rolled.keys() == expanded.keys()
    for name, want in expanded.items():
        if isinstance(want, float):
            assert rolled[name] == pytest.approx(want, rel=1e-9,
                                                 abs=1e-9), name
        else:
            assert rolled[name] == want, name
