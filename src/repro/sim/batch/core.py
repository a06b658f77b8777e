"""Lockstep batched fleet stepping core.

The scalar fleet path simulates every device independently at ~18
devices/s. This module gets to 10k+ devices/s on one core by exploiting
what the paper's deployment model guarantees: a lockstep fleet is
*homogeneous* — devices differ only in identity, not behaviour — so the
fleet partitions into **cohorts** of byte-identical devices (energy
class × treatment, under the rollout plan's ``per_cohort`` seed mode).

Per cohort the core runs **one instrumented scalar representative**
through the unmodified ``Device``/``ArtemisRuntime``/``UpdatableRuntime``
stack — byte-equivalence with the scalar path holds *by construction*
for every lane of the cohort — while:

* a machine-op tap (:func:`repro.core.monitor.tap_machine_ops`) records
  the representative's monitor stream, which is replayed across the
  cohort's device axis through the vectorized
  :class:`~repro.sim.batch.fsm.BatchMachineSet` (struct-of-arrays FSM
  state, table-driven transitions, the existing dispatch subscription
  tables). Lane 0 of the replay is self-checked against the
  representative's NVM-backed machine stores; a mismatch (possible when
  a brown-out interrupts ``on_event`` mid-write) makes the affected
  lanes fall back to the authoritative scalar state — counted in
  :attr:`BatchResult.kernel_fallbacks`, never silent;
* a **boundary ledger** snapshots full durable state at every run
  boundary (NVM fingerprint, simulated clock, capacitor energy, loss
  RNG state, result counters, trace position);
* per-device state lands in struct-of-arrays telemetry columns
  (:class:`~repro.sim.batch.layout.BatchArrays`) and the final NVM
  image is shared across lanes as one
  :class:`~repro.sim.batch.layout.SoAImage`.

**Divergence handling**: a lane with per-device perturbation (an
injected crash schedule — the test battery's fault seeds) drops out of
the lockstep batch and runs the scalar path individually; at every run
boundary its state digest is compared against the ledger, and on a
match the lane **rejoins** — it stops simulating and adopts the
representative's suffix (trace tail, result deltas, final NVM image),
which is byte-identical by determinism. The digest necessarily pins the
simulated clock (the persistent clock writes its absolute reading into
NVM, so the NVM fingerprint alone encodes time): a perturbation with
*any* lasting observable effect — including extra elapsed time — keeps
the digests apart, and the lane runs scalar to completion. That is not
a limitation but what byte-equivalence demands; rejoin accelerates
exactly the perturbations the device fully absorbed.

Cohort-representative rows are keyed into the content-addressed result
cache of :mod:`repro.sim.pool` by :meth:`BatchFleetCore.cache_fingerprint`,
which mixes in the struct-of-arrays layout token, so rows computed under
one layout/dtype or backend can never be replayed under another.
"""

from __future__ import annotations

import copy
import hashlib
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import tap_machine_ops
from repro.errors import FleetError, PowerFailure
from repro.fleet.telemetry import DeviceTelemetry, FleetSummary, aggregate
from repro.sim.batch.fsm import BatchMachineSet
from repro.sim.batch.layout import (BatchArrays, SoAImage, group_lanes,
                                    resolve_backend)
from repro.sim.pool import _normalize_cache, fingerprint_hasher
from repro.sim.tracer import Tracer

#: Telemetry fields laid out as per-lane struct-of-arrays columns.
_SOA_COLUMNS = (
    ("completed", "bool"),
    ("runs_completed", "int64"),
    ("reboots", "int64"),
    ("total_time_s", "float64"),
    ("total_energy_mj", "float64"),
    ("radio_energy_mj", "float64"),
    ("violations_before", "int64"),
    ("violations_after", "int64"),
    ("soc_j", "float64"),
    ("task_retries", "int64"),
    ("degradation_shed", "int64"),
    ("degradation_restored", "int64"),
)


def run_with_boundaries(device, runtime, runs: int = 1,
                        max_time_s: Optional[float] = None,
                        max_reboots: Optional[int] = None,
                        on_boundary=None):
    """``Device.run`` with a hook at every run boundary.

    Mirrors :meth:`repro.sim.device.Device.run` statement for statement
    (the differential suite holds it to that); ``on_boundary(k)`` fires
    immediately after the ``run_complete`` trace record for run ``k``
    and may return True to stop early (the rejoin path — the caller
    composes the remainder from the representative's suffix).
    """
    start = device.sim_clock.now()
    device.trace.record(start, "boot", first=True)
    while device.result.runs_completed < runs:
        try:
            runtime.boot(device)
            while not runtime.finished:
                if device._budget_exhausted(start, max_time_s, max_reboots):
                    return device._give_up(start)
                runtime.loop_iteration(device)
            device.result.runs_completed += 1
            device.trace.record(device.sim_clock.now(), "run_complete",
                                run=device.result.runs_completed)
            if on_boundary is not None and on_boundary(
                    device.result.runs_completed):
                return device.result
            if device.result.runs_completed < runs:
                runtime.begin_run(device)
        except PowerFailure:
            if device._budget_exhausted(start, max_time_s, max_reboots):
                return device._give_up(start)
            device.reboot()
    device.result.completed = True
    device.result.total_time_s = device.sim_clock.now() - start
    return device.result


def state_digest(device, runtime) -> Tuple:
    """Full-simulation-state digest at a run boundary.

    Two devices with equal digests at a boundary evolve identically from
    there: the digest covers every input future execution depends on —
    durable NVM state, the simulated clock, stored capacitor energy,
    liveness, and the OTA link's loss-RNG stream position (the only
    volatile random state in the fleet stack).
    """
    loss_state = None
    transport = getattr(runtime, "transport", None)
    loss = getattr(transport, "loss", None)
    if loss is not None:
        rng = getattr(loss, "_rng", None)
        if rng is not None:
            loss_state = hash(repr(rng.getstate()))
    energy = device.env.usable_energy()
    return (device.nvm.state_fingerprint(), device.sim_clock.now(),
            energy, device.alive, loss_state)


class _BoundaryLedger:
    """Per-boundary snapshots of one representative run."""

    def __init__(self):
        self.digests: Dict[int, Tuple] = {}
        self.trace_pos: Dict[int, int] = {}
        self.results: Dict[int, Any] = {}

    def record(self, k: int, device, runtime) -> None:
        self.digests[k] = state_digest(device, runtime)
        self.trace_pos[k] = len(device.trace.events)
        self.results[k] = copy.deepcopy(device.result)


class CohortRun:
    """Everything one cohort's representative run produced.

    ``device_ids`` are the members in ascending order (an int64 array on
    the numpy backend); ``diverged`` lists the members that left
    lockstep and have their own :class:`LaneResult`.
    """

    def __init__(self, key, device_ids: Sequence[int], row: Dict[str, Any],
                 device=None, runtime=None, ledger: Optional[_BoundaryLedger] = None,
                 nvm_image: Optional[SoAImage] = None, from_cache: bool = False):
        self.key = key
        self.device_ids = device_ids
        self.row = row
        self.device = device
        self.runtime = runtime
        self.ledger = ledger
        self.nvm_image = nvm_image
        self.from_cache = from_cache
        self.diverged: List[int] = []


class LaneResult:
    """A diverged lane's scalar outcome (possibly rejoined)."""

    def __init__(self, device_id: int, row: Dict[str, Any], rejoined: bool,
                 rejoin_boundary: Optional[int], trace_events: list,
                 nvm_image: Optional[SoAImage]):
        self.device_id = device_id
        self.row = row
        self.rejoined = rejoined
        self.rejoin_boundary = rejoin_boundary
        self.trace_events = trace_events
        self.nvm_image = nvm_image


class BatchResult:
    """Outcome of one batched wave.

    ``arrays`` holds the per-lane struct-of-arrays telemetry columns
    (:data:`_SOA_COLUMNS`); ``expand()`` materialises per-device
    :class:`~repro.fleet.telemetry.DeviceTelemetry` byte-identical to
    the scalar path; ``weighted_summary()`` is the amortized per-batch
    rollup used beyond the expansion limit (numerically equivalent,
    not bitwise — multiplication replaces repeated addition).
    """

    def __init__(self, device_ids: Sequence[int], backend: str):
        self.device_ids = list(device_ids)
        self.backend = backend
        self.cohorts: List[CohortRun] = []
        self.lanes: Dict[int, LaneResult] = {}
        self.kernel_fallbacks = 0
        self.kernel_checked_machines = 0
        self.fsm: Optional[BatchMachineSet] = None
        self.arrays = BatchArrays(max(1, len(self.device_ids)),
                                  backend=backend)
        for name, dtype in _SOA_COLUMNS:
            self.arrays.add_column(name, dtype)

    # ------------------------------------------------------------------
    @cached_property
    def lane_of(self) -> Dict[int, int]:
        """Device id -> lane, built on first use: only divergent lanes
        need it, never a wave that stays in lockstep."""
        return {d: i for i, d in enumerate(self.device_ids)}

    @cached_property
    def _cohort_of(self) -> Dict[int, CohortRun]:
        """Device id -> cohort, built on the first per-device lookup."""
        return {d: cohort for cohort in self.cohorts
                for d in cohort.device_ids}

    def _fill_lanes(self, row: Dict[str, Any], lanes: Any,
                    soc_j: float, retries: int) -> None:
        for name, _ in _SOA_COLUMNS:
            if name == "soc_j":
                value = soc_j
            elif name == "task_retries":
                value = retries
            else:
                value = row.get(name, 0)
            self.arrays.fill(name, value, lanes)

    def rows(self) -> List[Tuple[Dict[str, Any], int]]:
        """(representative row, lane count) per cohort, divergent lanes
        as singleton rows — the amortized rollup's input."""
        out: List[Tuple[Dict[str, Any], int]] = []
        for cohort in self.cohorts:
            plain = len(cohort.device_ids) - len(cohort.diverged)
            if plain:
                out.append((cohort.row, plain))
        for lane in self.lanes.values():
            out.append((lane.row, 1))
        return out

    def expand(self) -> List[DeviceTelemetry]:
        """Per-device telemetry in input order, byte-identical to the
        scalar path (each lane's row restamped with its device id)."""
        out = []
        for device_id in self.device_ids:
            lane = self.lanes.get(device_id)
            row = lane.row if lane is not None else self._cohort_of[device_id].row
            row = dict(row, device_id=device_id)
            out.append(DeviceTelemetry.from_row(row))
        return out

    def summary(self) -> FleetSummary:
        """Exact aggregate over the expanded telemetry."""
        return aggregate(self.expand())

    def weighted_summary(self) -> FleetSummary:
        """Amortized rollup over (cohort row × lane count)."""
        return weighted_summary(self.rows())

    def nvm_image_for(self, device_id: int) -> Optional[SoAImage]:
        lane = self.lanes.get(device_id)
        if lane is not None:
            return lane.nvm_image
        cohort = self._cohort_of.get(device_id)
        return cohort.nvm_image if cohort is not None else None

    def trace_events_for(self, device_id: int) -> Optional[list]:
        lane = self.lanes.get(device_id)
        if lane is not None:
            return lane.trace_events
        cohort = self._cohort_of.get(device_id)
        if cohort is None or cohort.device is None:
            return None
        return list(cohort.device.trace.events)


def weighted_summary(rows: Sequence[Tuple[Dict[str, Any], int]]) -> FleetSummary:
    """Fold (telemetry row, device count) pairs into a FleetSummary.

    Mirrors :func:`repro.fleet.telemetry.aggregate` with each row
    weighted by its cohort size. Sums use multiplication where the
    scalar path adds ``count`` equal floats, so float totals can differ
    from the expanded aggregate in the last bits — which is why the
    expansion path (and its byte-exact aggregate) stays the default up
    to :attr:`RolloutPlan.expand_limit`.
    """
    devices = completed = rollbacks = violations = reboots = 0
    shed = restored = predictive = chunks = 0
    radio = energy = 0.0
    outcomes: Dict[str, int] = {}
    before_num = 0.0
    after_num = 0.0
    delta_num = 0.0
    installed_n = 0
    lead_num = 0.0
    lead_n = 0
    for row, count in rows:
        t = DeviceTelemetry.from_row(dict(row, device_id=0))
        devices += count
        completed += count if t.completed else 0
        outcomes[t.update_outcome] = outcomes.get(t.update_outcome, 0) + count
        rollbacks += t.rollbacks * count
        violations += (t.violations_before + t.violations_after) * count
        reboots += t.reboots * count
        shed += t.degradation_shed * count
        restored += t.degradation_restored * count
        predictive += t.predictive_sheds * count
        chunks += t.chunks_lost * count
        radio += t.radio_energy_mj * count
        energy += t.total_energy_mj * count
        before_num += t.rate_before * count
        if t.installed:
            after_num += t.rate_after * count
            delta_num += (t.rate_after - t.rate_before) * count
            installed_n += count
        if t.predictive_sheds:
            lead_num += t.shed_lead_s * count
            lead_n += count
    return FleetSummary(
        devices=devices,
        completed=completed,
        outcomes=outcomes,
        rollbacks=rollbacks,
        mean_rate_before=before_num / devices if devices else 0.0,
        mean_rate_after=after_num / installed_n if installed_n else 0.0,
        regression_delta=delta_num / installed_n if installed_n else 0.0,
        total_violations=violations,
        total_reboots=reboots,
        degradation_shed=shed,
        degradation_restored=restored,
        predictive_sheds=predictive,
        mean_shed_lead_s=lead_num / lead_n if lead_n else 0.0,
        chunks_lost=chunks,
        radio_energy_mj=radio,
        total_energy_mj=energy,
    )


class BatchFleetCore:
    """Cohort-partitioned lockstep execution of one fleet wave.

    Args:
        server: the :class:`~repro.fleet.server.FleetServer` whose
            device construction this wave uses.
        wire: the update blob (``None`` builds the paired control wave).
        version: fleet version being shipped.
        plan: the rollout plan (its ``seed_mode`` decides cohorting:
            ``per_cohort`` collapses each energy class into one cohort,
            ``per_device`` degenerates to singleton cohorts — correct,
            but with no speedup).
        backend: struct-of-arrays backend (``numpy``/``python``/``auto``).
    """

    def __init__(self, server, wire: Optional[bytes], version: int, plan,
                 backend: str = "auto"):
        self.server = server
        self.wire = wire
        self.version = version
        self.plan = plan
        self.backend = resolve_backend(backend)

    def __repr__(self) -> str:
        # The cohort-row cache key hashes this repr: everything that
        # changes a representative's behaviour must show up here or
        # cached rows could be replayed wrongly.
        wire_tag = (hashlib.sha256(self.wire).hexdigest()[:16]
                    if self.wire is not None else "control")
        return (f"BatchFleetCore(version={self.version}, wire={wire_tag}, "
                f"plan={self.plan!r}, backend={self.backend}, "
                f"base={hashlib.sha256(self.server.base_spec.encode()).hexdigest()[:16]})")

    # ------------------------------------------------------------------
    def cohort_key(self, device_id):
        """The cohort of ``device_id``: its energy class under
        ``per_cohort`` seeding, the device itself otherwise. Elementwise
        on an int64 id array, which is how :func:`group_lanes`
        partitions a wave on the numpy backend."""
        if getattr(self.plan, "seed_mode", "per_device") == "per_cohort":
            return device_id % 4
        return device_id

    def _build(self, device_id: int):
        return self.server.build_device(device_id, self.wire, self.version,
                                        self.plan)

    def cache_fingerprint(self, layout_token: str) -> str:
        """Result-cache fingerprint of this core's cohort rows: the
        shared header, everything that shapes a representative run
        (``repr(self)``, whose plan carries the run budget), and the
        struct-of-arrays ``layout_token``, so a row stored under one
        layout or backend is never served under another."""
        h = fingerprint_hasher()
        h.update(f"{self!r};layout={layout_token}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def run(self, device_ids: Sequence[int], cache: Any = None,
            perturb: Optional[Dict[int, Sequence[int]]] = None) -> BatchResult:
        """Simulate ``device_ids`` as a lockstep batch.

        Each cohort's representative replays its monitor stream through
        the vectorized FSM kernel across the cohort's lanes, self-checked
        against the scalar stores.

        Args:
            cache: optional result cache (``True``/path/instance) for
                cohort-representative rows.
            perturb: ``{device_id: crash schedule}`` — those lanes
                diverge from the batch into the scalar path (driven by
                :class:`~repro.verify.schedule.CrashScheduleRunner`)
                and rejoin at the first run boundary whose state digest
                matches the ledger.
        """
        result = BatchResult(device_ids, backend=self.backend)
        if not result.device_ids:
            raise FleetError("batched wave needs at least one device")
        perturb = dict(perturb or {})
        unknown = sorted(d for d in perturb if d not in result.lane_of)
        if unknown:
            raise FleetError(f"perturbed devices not in wave: {unknown}")
        diverging: Dict[Any, List[int]] = {}
        for device_id in sorted(perturb):
            diverging.setdefault(self.cohort_key(device_id), []).append(device_id)

        # (key, ascending members, their lanes) per cohort, in key order;
        # each cohort's lanes fill every SoA column as one index array.
        cohorts = group_lanes(result.device_ids, self.cohort_key, self.backend)
        cache = _normalize_cache(cache)
        fingerprint = (self.cache_fingerprint(result.arrays.layout_token())
                       if cache is not None else None)

        for key, members, lanes in cohorts:
            rep_id = int(members[0])
            divergent = diverging.get(key, [])
            point = {"device_id": rep_id}
            cached_row = None
            if cache is not None and not divergent:
                cached_row = cache.get(cache.key_for(fingerprint, point))
            if cached_row is not None:
                cohort = CohortRun(key, members, dict(cached_row),
                                   from_cache=True)
                result.cohorts.append(cohort)
                result._fill_lanes(cohort.row, lanes, soc_j=0.0,
                                   retries=int(cohort.row.get("task_retries", 0) or 0))
                continue
            cohort = self._run_representative(key, members, rep_id, result)
            result.cohorts.append(cohort)
            if cache is not None:
                cache.put(cache.key_for(fingerprint, point), cohort.row)
            # Divergent lanes are overwritten with their own rows below.
            result._fill_lanes(
                cohort.row, lanes,
                soc_j=self._finite(cohort.device.env.usable_energy()),
                retries=int(cohort.device.result.task_retries))
            for device_id in divergent:
                lane = self._run_divergent_lane(device_id, perturb[device_id],
                                                cohort)
                result.lanes[device_id] = lane
                cohort.diverged.append(device_id)
                result._fill_lanes(lane.row, [result.lane_of[device_id]],
                                   soc_j=0.0,
                                   retries=int(lane.row.get("task_retries", 0) or 0))
        return result

    @staticmethod
    def _finite(value: float) -> float:
        return 0.0 if value in (float("inf"), float("-inf")) else float(value)

    # ------------------------------------------------------------------
    def _run_representative(self, key, members: List[int], rep_id: int,
                            result: BatchResult) -> CohortRun:
        device, runtime = self._build(rep_id)
        ledger = _BoundaryLedger()

        def on_boundary(k: int) -> bool:
            ledger.record(k, device, runtime)
            return False

        with tap_machine_ops() as ops:
            run_result = run_with_boundaries(
                device, runtime, runs=self.plan.runs,
                max_time_s=self.plan.max_time_s,
                max_reboots=self.plan.max_reboots,
                on_boundary=on_boundary)
        row = DeviceTelemetry.from_device(rep_id, device, run_result,
                                          runtime).to_row()
        row["task_retries"] = int(run_result.task_retries)
        cohort = CohortRun(key, members, row, device=device, runtime=runtime,
                           ledger=ledger, nvm_image=SoAImage.from_nvm(device.nvm))
        self._replay_kernel(cohort, members, ops, result)
        return cohort

    def _replay_kernel(self, cohort: CohortRun, members: List[int],
                       ops: list, result: BatchResult) -> None:
        """Replay the representative's monitor stream across the cohort
        lane axis and self-check lane 0 against the scalar stores."""
        monitor = self._leaf_monitor(cohort.runtime)
        if monitor is None:
            return
        fsm = BatchMachineSet(monitor.machines, n_lanes=len(members),
                              backend=self.backend)
        for op, machine_name, event in ops:
            if machine_name not in fsm._by_name:
                continue  # ops from a pre-swap monitor generation
            if op == "reset":
                fsm.reset_machine(machine_name)
            else:
                fsm.step_machine(machine_name, event, collect=False)
        result.fsm = fsm
        for machine, instance in zip(monitor.machines, monitor.instances):
            result.kernel_checked_machines += 1
            scalar = {"state": instance.state}
            for var in machine.variables:
                scalar[f"var.{var.name}"] = instance.get(var.name)
            if fsm.lane_store(machine.name, 0) != scalar:
                # A brown-out mid-on_event left the scalar store partially
                # advanced; the completed-delivery replay cannot represent
                # that. Fall back to the authoritative scalar state for
                # every lane (the cohort is homogeneous).
                result.kernel_fallbacks += 1
                for lane in range(len(members)):
                    fsm.load_lane(machine.name, lane, scalar)

    @staticmethod
    def _leaf_monitor(runtime):
        """The active ArtemisMonitor under an UpdatableRuntime (or a
        bare runtime); None when there is nothing to mirror."""
        inner = getattr(runtime, "inner", runtime)
        monitor = getattr(inner, "monitor", None)
        if monitor is None:
            return None
        if hasattr(monitor, "monitors"):  # MonitorGroup
            return monitor.monitors[0] if monitor.monitors else None
        return monitor

    # ------------------------------------------------------------------
    def _run_divergent_lane(self, device_id: int, schedule: Sequence[int],
                            cohort: CohortRun) -> LaneResult:
        from repro.verify.schedule import CrashScheduleRunner

        device, runtime = self._build(device_id)
        CrashScheduleRunner(tuple(schedule), record_from=None).bind(device)
        ledger = cohort.ledger
        rejoin_at: List[int] = []

        def on_boundary(k: int) -> bool:
            rep_digest = ledger.digests.get(k)
            if rep_digest is None:
                return False
            if state_digest(device, runtime) != rep_digest:
                return False
            if not self._reboot_budget_allows_rejoin(k, device, cohort):
                return False
            rejoin_at.append(k)
            return True

        run_result = run_with_boundaries(
            device, runtime, runs=self.plan.runs,
            max_time_s=self.plan.max_time_s,
            max_reboots=self.plan.max_reboots,
            on_boundary=on_boundary)

        if not rejoin_at:
            row = DeviceTelemetry.from_device(device_id, device, run_result,
                                              runtime).to_row()
            row["task_retries"] = int(run_result.task_retries)
            return LaneResult(device_id, row, rejoined=False,
                              rejoin_boundary=None,
                              trace_events=list(device.trace.events),
                              nvm_image=SoAImage.from_nvm(device.nvm))
        k = rejoin_at[0]
        composed_result = self._compose_result(run_result,
                                               cohort.ledger.results[k],
                                               cohort.device.result)
        composed_trace = Tracer()
        composed_trace.events = (list(device.trace.events)
                                 + cohort.device.trace.events[
                                     cohort.ledger.trace_pos[k]:])

        class _TraceView:
            trace = composed_trace

        row = DeviceTelemetry.from_device(device_id, _TraceView(),
                                          composed_result,
                                          cohort.runtime).to_row()
        row["task_retries"] = int(composed_result.task_retries)
        return LaneResult(device_id, row, rejoined=True, rejoin_boundary=k,
                          trace_events=composed_trace.events,
                          nvm_image=cohort.nvm_image)

    def _reboot_budget_allows_rejoin(self, k: int, device,
                                     cohort: CohortRun) -> bool:
        """Rejoining adopts the representative's suffix verbatim, which
        is only sound if no budget check in that suffix could decide
        differently for this lane. Time budgets are identical (the
        digest pins the clock); the reboot budget is not — the lane's
        counter may differ — so require strict headroom."""
        if self.plan.max_reboots is None:
            return True
        rep_at_k = cohort.ledger.results[k].reboots
        rep_final = cohort.device.result.reboots
        lane_now = device.result.reboots
        if lane_now == rep_at_k:
            return True
        return lane_now + (rep_final - rep_at_k) < self.plan.max_reboots

    @staticmethod
    def _compose_result(lane_prefix, rep_at_k, rep_final):
        """Lane prefix counters + representative suffix deltas.

        Sound because the digest match pins the simulated clock: the
        lane and the representative stand at the same instant, so the
        suffix's durations/energies/counters apply verbatim."""
        composed = copy.deepcopy(lane_prefix)
        composed.completed = rep_final.completed
        composed.total_time_s = rep_final.total_time_s
        composed.on_time_s += rep_final.on_time_s - rep_at_k.on_time_s
        composed.charge_time_s += rep_final.charge_time_s - rep_at_k.charge_time_s
        for category in composed.busy_time_s:
            composed.busy_time_s[category] += (
                rep_final.busy_time_s[category] - rep_at_k.busy_time_s[category])
            composed.energy_j[category] += (
                rep_final.energy_j[category] - rep_at_k.energy_j[category])
        for name in ("reboots", "runs_completed", "torn_commits",
                     "journal_replays", "corruptions_detected",
                     "corruptions_repaired", "invariant_repairs",
                     "monitor_resets", "sensor_faults", "task_retries",
                     "watchdog_trips", "monitors_shed", "monitors_restored",
                     "predictive_sheds"):
            setattr(composed, name, getattr(lane_prefix, name)
                    + getattr(rep_final, name) - getattr(rep_at_k, name))
        return composed
