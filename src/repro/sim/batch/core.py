"""Lockstep batched fleet stepping core.

A lockstep fleet is *homogeneous* — devices differ only in identity,
not behaviour — so a wave partitions into **cohorts** of byte-identical
devices (energy class × treatment, under the rollout plan's
``per_cohort`` seed mode). A device's future is a function of its
durable state and its environment, so every lane of a cohort runs the
same simulation, and every output of a wave can be read off one scalar
device per cohort.

Per wave, :class:`BatchFleetCore` partitions the wave's id range into
cohorts by arithmetic (:meth:`BatchFleetCore.partition`). Per rollout, it
runs **one scalar representative** per cohort through the unmodified
``Device``/``ArtemisRuntime``/``UpdatableRuntime`` stack —
byte-equivalence with the scalar path holds *by construction* for every
lane of the cohort. A cohort's row does not depend on which member
represents it, so a later wave of the rollout restamps the row an
earlier wave computed with its own representative's id and runs
nothing (``known_rows``); the map lives for one rollout, not across
rollouts. The core keeps three things of each in-process
representative:

* its telemetry row, which stands for every lane of the cohort
  (:meth:`BatchResult.rows`, :meth:`BatchResult.expand`);
* a **boundary ledger** that snapshots full durable state at every run
  boundary (NVM fingerprint, simulated clock, capacitor energy, loss
  RNG state, result counters, trace position);
* its final NVM image, shared across the lanes as one
  :class:`~repro.sim.batch.layout.SoAImage`.

Beyond :meth:`BatchResult.expand`, the core does no work per lane.

The representatives are independent deterministic simulations, so with
``jobs > 1`` the core runs them on the shared
:class:`~repro.sim.pool.PersistentPool` as one
:class:`~repro.fleet.server.WaveTask` run — the unit of work of the
streamed wave executor. A pooled cohort keeps only its row, as a cache
hit and a reused cohort do; a cohort with divergent lanes always runs
in-process, since its lanes need the ledger.

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
cache of :mod:`repro.sim.pool` by :meth:`BatchFleetCore.cache_fingerprint`.

The vectorized FSM kernel (:class:`~repro.sim.batch.fsm.BatchMachineSet`)
is not part of this path.
"""

from __future__ import annotations

import copy
import hashlib
import reprlib
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError
from repro.fleet.server import ENERGY_CLASSES, WaveTask
from repro.fleet.telemetry import DeviceTelemetry, FleetSummary, summarize
from repro.sim.batch.layout import SoAImage
from repro.sim.pool import (
    PoolItemError,
    _fork_available,
    _normalize_cache,
    fingerprint_hasher,
    get_pool,
)
from repro.sim.tracer import Tracer


def run_with_boundaries(device, runtime, runs: int = 1,
                        max_time_s: Optional[float] = None,
                        max_reboots: Optional[int] = None,
                        on_boundary=None):
    """``device.run(runtime, ..., on_boundary=on_boundary)``.

    A named shim, not a second run loop: the e2e benchmark's per-layer
    probes time every representative and divergent lane through this
    name (``batch.rep_s``).
    """
    return device.run(runtime, runs=runs, max_time_s=max_time_s,
                      max_reboots=max_reboots, on_boundary=on_boundary)


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

    ``device_ids`` are the members, a ``range`` in ascending order (see
    :meth:`BatchFleetCore.partition`); ``diverged`` lists the members
    that left lockstep and have their own :class:`LaneResult`. ``device``,
    ``runtime``, ``ledger`` and ``nvm_image`` are set only for an
    in-process representative; a reused, cached or pooled cohort keeps
    only its row.
    """

    def __init__(self, key, device_ids: range, row: Dict[str, Any],
                 from_cache: bool = False):
        self.key = key
        self.device_ids = device_ids
        self.row = row
        self.device = None
        self.runtime = None
        self.ledger: Optional[_BoundaryLedger] = None
        self.nvm_image: Optional[SoAImage] = None
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

    ``rows()`` pairs each cohort's representative row with its lane
    count, the input of :func:`weighted_summary` beyond the expansion
    limit; ``expand()`` materialises per-device
    :class:`~repro.fleet.telemetry.DeviceTelemetry` byte-identical to
    the scalar path.
    """

    def __init__(self, device_ids: range):
        self.device_ids = device_ids
        self.cohorts: List[CohortRun] = []
        self.lanes: Dict[int, LaneResult] = {}
        #: Always 0: no FSM kernel runs on this path. Its only reader is
        #: ``benchmarks/e2e/layers.py::_count_batch``.
        self.kernel_fallbacks = 0

    # ------------------------------------------------------------------
    @cached_property
    def _cohort_of(self) -> Dict[int, CohortRun]:
        """Device id -> cohort, built on the first per-device lookup."""
        return {d: cohort for cohort in self.cohorts
                for d in cohort.device_ids}

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

    :func:`~repro.fleet.telemetry.summarize` over each row's report
    weighted by its cohort size. A float total is ``value * count``
    where the expanded aggregate adds ``count`` equal floats, so it can
    differ from that aggregate in the last bits — which is why the
    expansion path (and its byte-exact aggregate) stays the default up
    to :attr:`RolloutPlan.expand_limit`.
    """
    return summarize((DeviceTelemetry.from_row(dict(row, device_id=0)), count)
                     for row, count in rows)


class BatchFleetCore:
    """Cohort-partitioned lockstep execution of one fleet wave, a
    ``range`` of device ids.

    Args:
        server: the :class:`~repro.fleet.server.FleetServer` whose
            device construction this wave uses.
        wire: the update blob (``None`` builds the paired control wave).
        version: fleet version being shipped.
        plan: the rollout plan (its ``seed_mode`` decides cohorting:
            ``per_cohort`` collapses each energy class into one cohort,
            a stride of the wave's range; ``per_device`` degenerates to
            singleton cohorts — correct, but with no speedup).
    """

    def __init__(self, server, wire: Optional[bytes], version: int, plan):
        self.server = server
        self.wire = wire
        self.version = version
        self.plan = plan

    def __repr__(self) -> str:
        # The cohort-row cache key hashes this repr: everything that
        # changes a representative's behaviour must show up here or
        # cached rows could be replayed wrongly.
        wire_tag = (hashlib.sha256(self.wire).hexdigest()[:16]
                    if self.wire is not None else "control")
        return (f"BatchFleetCore(version={self.version}, wire={wire_tag}, "
                f"plan={self.plan!r}, "
                f"base={hashlib.sha256(self.server.base_spec.encode()).hexdigest()[:16]})")

    # ------------------------------------------------------------------
    def cohort_key(self, device_id: int) -> int:
        """The cohort of ``device_id``: its energy class
        (``device_id % ENERGY_CLASSES``) under ``per_cohort`` seeding,
        the device itself otherwise."""
        if self.plan.seed_mode == "per_cohort":
            return device_id % ENERGY_CLASSES
        return device_id

    def partition(self, device_ids: range) -> List[Tuple[int, range]]:
        """``(key, members)`` per cohort of the wave ``device_ids``, a
        ``range`` with step 1, in ``repr(key)`` order (which fixes the
        summation order of compact rollups). Under ``per_cohort`` a
        device's build reads its id only as its energy class, so each
        class's members are the stride
        ``device_ids[offset::ENERGY_CLASSES]``; under ``per_device``
        each id is a cohort of one. Cores of one plan partition alike,
        so a wave's treated and control cores can share one."""
        if not isinstance(device_ids, range) or device_ids.step != 1:
            raise FleetError("a wave's device ids must be a range with "
                             f"step 1, got {reprlib.repr(device_ids)}")
        if self.plan.seed_mode == "per_cohort":
            groups = [(self.cohort_key(device_ids.start + offset),
                       device_ids[offset::ENERGY_CLASSES])
                      for offset in range(min(ENERGY_CLASSES,
                                              len(device_ids)))]
        else:
            groups = [(d, range(d, d + 1)) for d in device_ids]
        return sorted(groups, key=lambda group: repr(group[0]))

    def _build(self, device_id: int):
        return self.server.build_device(device_id, self.wire, self.version,
                                        self.plan)

    def cache_fingerprint(self) -> str:
        """Result-cache fingerprint of this core's cohort rows: the
        shared header plus ``repr(self)``, which names everything that
        shapes a representative run (plan with its run budget, wire,
        version and base spec)."""
        h = fingerprint_hasher()
        h.update(repr(self).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def run(self, device_ids: range, cache: Any = None,
            perturb: Optional[Dict[int, Sequence[int]]] = None,
            jobs: int = 1,
            groups: Optional[Sequence[Tuple[int, range]]] = None,
            known_rows: Optional[Dict[Tuple[str, Any], Dict[str, Any]]] = None
            ) -> BatchResult:
        """Simulate ``device_ids`` as a lockstep batch: one scalar
        representative per cohort, whose row stands for every lane of
        the cohort.

        ``result.cohorts`` keeps partition (``repr(key)``) order. A
        cache hit keeps its cached row; otherwise a cohort already run
        earlier in the rollout (``known_rows``) takes that row,
        restamped with its own representative's id. A cohort with
        divergent lanes runs its representative in-process, for the
        ledger its lanes rejoin against. The other representatives are
        pending and run through :meth:`_run_pending`; their rows are the
        same at any ``jobs``.

        Args:
            cache: optional result cache (``True``/path/instance) for
                cohort-representative rows. Every cohort not served from
                it is stored under its own representative's id.
            perturb: ``{device_id: crash schedule}`` — those lanes
                diverge from the batch into the scalar path (driven by
                :class:`~repro.verify.schedule.CrashScheduleRunner`)
                and rejoin at the first run boundary whose state digest
                matches the ledger.
            jobs: pool workers for the pending representatives
                (1 = in-process).
            groups: ``device_ids`` already partitioned by
                :meth:`partition` (of this core or of one with the same
                plan); omitted, the wave is partitioned here.
            known_rows: the representative rows of one rollout, keyed
                by ``(repr(core), cohort key)``; this wave reads it and
                adds its own rows. A cohort's row depends only on the
                core and the cohort (not on which member represents it),
                so a later wave of the rollout runs no representative
                for a cohort an earlier wave ran. One map serves one
                rollout: rows are not kept across rollouts.
        """
        if not device_ids:
            raise FleetError("batched wave needs at least one device")
        result = BatchResult(device_ids)
        perturb = dict(perturb or {})
        unknown = sorted(d for d in perturb if d not in device_ids)
        if unknown:
            raise FleetError(f"perturbed devices not in wave: {unknown}")
        diverging: Dict[Any, List[int]] = {}
        for device_id in sorted(perturb):
            diverging.setdefault(self.cohort_key(device_id), []).append(device_id)

        cache = _normalize_cache(cache)
        fingerprint = self.cache_fingerprint() if cache is not None else None
        core_id = repr(self)
        known = known_rows if known_rows is not None else {}
        pending: List[CohortRun] = []
        if groups is None:
            groups = self.partition(device_ids)
        for key, members in groups:
            divergent = diverging.get(key, [])
            if not divergent:
                rep = {"device_id": members[0]}
                row = (cache.get(cache.key_for(fingerprint, rep))
                       if cache is not None else None)
                if row is not None:
                    result.cohorts.append(CohortRun(key, members, dict(row),
                                                    from_cache=True))
                    continue
                row = known.get((core_id, key))
                if row is not None:
                    result.cohorts.append(CohortRun(key, members,
                                                    dict(row, **rep)))
                    continue
            cohort = CohortRun(key, members, {})
            result.cohorts.append(cohort)
            if not divergent:
                pending.append(cohort)
                continue
            self._run_representative(cohort)
            for device_id in divergent:
                result.lanes[device_id] = self._run_divergent_lane(
                    device_id, perturb[device_id], cohort)
                cohort.diverged.append(device_id)
        self._run_pending(pending, jobs)
        for cohort in result.cohorts:
            known.setdefault((core_id, cohort.key), cohort.row)
            if cache is not None and not cohort.from_cache:
                cache.put(cache.key_for(fingerprint, {
                    "device_id": cohort.device_ids[0]}), cohort.row)
        return result

    # ------------------------------------------------------------------
    def _run_pending(self, cohorts: List[CohortRun], jobs: int) -> None:
        """Run the pending representatives. With ``jobs > 1``, ``fork``
        and more than one of them, they run on the shared pool as one
        :class:`~repro.fleet.server.WaveTask` run and keep only their
        rows; as in the streamed wave, one that fails in a worker reruns
        in-process, where a deterministic failure raises its own error.
        Otherwise each runs in-process."""
        if not (jobs > 1 and len(cohorts) > 1 and _fork_available()):
            for cohort in cohorts:
                self._run_representative(cohort)
            return
        task = WaveTask(self.server.base_spec, self.server.base_version,
                        self.wire, self.version, self.plan)
        rep_ids = [cohort.device_ids[0] for cohort in cohorts]
        rows = get_pool(jobs).run(task, rep_ids, return_errors=True)
        for cohort, rep_id, row in zip(cohorts, rep_ids, rows):
            cohort.row = task(rep_id) if isinstance(row, PoolItemError) else row

    def _run_representative(self, cohort: CohortRun) -> None:
        """Run ``cohort``'s representative in-process, keeping its row,
        device, boundary ledger and final NVM image."""
        rep_id = cohort.device_ids[0]
        device, runtime = self._build(rep_id)
        ledger = _BoundaryLedger()

        def on_boundary(k: int) -> bool:
            ledger.record(k, device, runtime)
            return False

        run_result = run_with_boundaries(
            device, runtime, runs=self.plan.runs,
            max_time_s=self.plan.max_time_s,
            max_reboots=self.plan.max_reboots,
            on_boundary=on_boundary)
        cohort.row = DeviceTelemetry.from_device(rep_id, device, run_result,
                                                 runtime).to_row()
        cohort.device, cohort.runtime, cohort.ledger = device, runtime, ledger
        cohort.nvm_image = SoAImage.from_nvm(device.nvm)

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
