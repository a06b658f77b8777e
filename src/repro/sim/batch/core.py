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
rollouts. Of each representative the core keeps only its telemetry
row, which stands for every lane of the cohort
(:meth:`BatchResult.rows`, :meth:`BatchResult.expand`). Beyond
:meth:`BatchResult.expand`, the core does no work per lane.

The representatives are independent deterministic simulations, so with
``jobs > 1`` the core runs them on the shared
:class:`~repro.sim.pool.PersistentPool` as one
:class:`~repro.fleet.server.WaveTask` run — the unit of work of the
streamed wave executor.

Cohort-representative rows are keyed into the content-addressed result
cache of :mod:`repro.sim.pool` by :meth:`BatchFleetCore.cache_fingerprint`.

The vectorized FSM kernel (:class:`~repro.sim.batch.fsm.BatchMachineSet`)
is not part of this path.
"""

from __future__ import annotations

import hashlib
import reprlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import FleetError
from repro.fleet.server import ENERGY_CLASSES, WaveTask
from repro.fleet.telemetry import DeviceTelemetry, FleetSummary, summarize
from repro.sim.pool import (
    PoolItemError,
    _fork_available,
    _normalize_cache,
    fingerprint_hasher,
    get_pool,
)


def run_with_boundaries(device, runtime, runs: int = 1,
                        max_time_s: Optional[float] = None,
                        max_reboots: Optional[int] = None):
    """``device.run(runtime, ...)``.

    A named shim, not a second run loop: the e2e benchmark's per-layer
    probes time every in-process representative through this name
    (``batch.rep_s``).
    """
    return device.run(runtime, runs=runs, max_time_s=max_time_s,
                      max_reboots=max_reboots)


class CohortRun:
    """One cohort of a wave and its representative's row.

    ``device_ids`` are the members, a ``range`` in ascending order (see
    :meth:`BatchFleetCore.partition`); ``row`` is the representative's
    telemetry row, which stands for every member; ``from_cache`` marks
    a row the result cache served.
    """

    def __init__(self, key, device_ids: range, row: Dict[str, Any],
                 from_cache: bool = False):
        self.key = key
        self.device_ids = device_ids
        self.row = row
        self.from_cache = from_cache


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
        #: Always 0: no FSM kernel runs on this path. Its only reader is
        #: ``benchmarks/e2e/layers.py::_count_batch``.
        self.kernel_fallbacks = 0

    def rows(self) -> List[Tuple[Dict[str, Any], int]]:
        """(representative row, lane count) per cohort — the amortized
        rollup's input."""
        return [(cohort.row, len(cohort.device_ids))
                for cohort in self.cohorts]

    def expand(self) -> List[DeviceTelemetry]:
        """Per-device telemetry in input order, byte-identical to the
        scalar path (each lane's row restamped with its device id)."""
        start = self.device_ids.start
        out: List[Optional[DeviceTelemetry]] = [None] * len(self.device_ids)
        for cohort in self.cohorts:
            row = cohort.row
            for device_id in cohort.device_ids:
                out[device_id - start] = DeviceTelemetry.from_row(
                    dict(row, device_id=device_id))
        return out


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

    def cache_fingerprint(self) -> str:
        """Result-cache fingerprint of this core's cohort rows: the
        shared header plus ``repr(self)``, which names everything that
        shapes a representative run (plan with its run budget, wire,
        version and base spec)."""
        h = fingerprint_hasher()
        h.update(repr(self).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def run(self, device_ids: range, cache: Any = None, jobs: int = 1,
            groups: Optional[Sequence[Tuple[int, range]]] = None,
            known_rows: Optional[Dict[Tuple[str, Any], Dict[str, Any]]] = None
            ) -> BatchResult:
        """Simulate ``device_ids`` as a lockstep batch: one scalar
        representative per cohort, whose row stands for every lane of
        the cohort.

        ``result.cohorts`` keeps partition (``repr(key)``) order. A
        cache hit keeps its cached row; otherwise a cohort already run
        earlier in the rollout (``known_rows``) takes that row,
        restamped with its own representative's id. The other
        representatives are pending and run through :meth:`_run_pending`;
        their rows are the same at any ``jobs``.

        Args:
            cache: optional result cache (``True``/path/instance) for
                cohort-representative rows. Every cohort not served from
                it is stored under its own representative's id.
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
        cache = _normalize_cache(cache)
        fingerprint = self.cache_fingerprint() if cache is not None else None
        core_id = repr(self)
        known = known_rows if known_rows is not None else {}
        pending: List[CohortRun] = []
        if groups is None:
            groups = self.partition(device_ids)
        for key, members in groups:
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
            pending.append(cohort)
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
        :class:`~repro.fleet.server.WaveTask` run; as in the streamed
        wave, one that fails in a worker reruns in-process, where a
        deterministic failure raises its own error. Otherwise each runs
        in-process."""
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
        """Run ``cohort``'s representative in-process, keeping its row."""
        rep_id = cohort.device_ids[0]
        device, runtime = self.server.build_device(rep_id, self.wire,
                                                   self.version, self.plan)
        run_result = run_with_boundaries(
            device, runtime, runs=self.plan.runs,
            max_time_s=self.plan.max_time_s,
            max_reboots=self.plan.max_reboots)
        cohort.row = DeviceTelemetry.from_device(rep_id, device, run_result,
                                                 runtime).to_row()
