"""Always-on asyncio fleet control plane.

:class:`FleetServer` began as a batch function: simulate a wave, wait
for every device, aggregate, decide. This module turns that into a
long-lived *service* shape — the thing a million-device fleet actually
talks to — while keeping the batch path's decisions byte-identical:

* **Execution** — waves run on the shared
  :class:`~repro.sim.pool.PersistentPool`: each distinct device build
  is one :class:`~repro.fleet.server.WaveTask` item (picklable:
  provision, simulate, report; re-exported here), run once per rollout
  and arm, rows come back through a shared-memory table, and every
  finished device becomes a telemetry *event* the moment it lands, not
  when the wave ends. A device whose build an earlier item already ran
  reports that item's row under its own id. Builds are equal when
  their :meth:`~repro.fleet.server.FleetServer.build_key` is: energy
  class, RF trace seed and, for a treated device, the chunk-loss
  outcomes its transfer consumes.
* **Ingestion** — events flow through a bounded
  :class:`TelemetryQueue` with explicit backpressure (``block``: the
  producer — and transitively the worker pool collector — waits;
  ``shed_oldest``: the oldest report is dropped and counted, surfacing
  as ``FleetSummary.telemetry_dropped``), into a
  :class:`ShardedRegistry` of per-shard device records and windowed
  percentile rollups (:mod:`repro.fleet.digest`).
* **Decisions** — a :class:`TelemetryGate` evaluates the paired-control
  delta over the telemetry the consumer actually received and promotes
  or halts the next wave; every decision is appended to a wave
  *ledger* together with the queue/backpressure stats and rollup
  windows that justified it.

Determinism contract: under the default ``block`` policy nothing is
dropped and the gate sees exactly the rows the batch path would have
aggregated — ``FleetServer.rollout`` (now a thin synchronous driver
over this plane) produces reports byte-identical to the pre-plane
implementation, and the soak tests assert streamed == batch through
injected worker crashes and delayed telemetry.

Chaos hooks: :class:`ChaosWaveTask` crashes the executing pool worker
(``os._exit``) exactly once per nominated device — marker files make
the crash one-shot so the re-queued chunk converges — and holds back
nominated devices' telemetry so it arrives late and out of order.
Verdicts must not change; that is the point.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import FleetError
from repro.fleet.digest import WindowedRollup
from repro.fleet.server import (
    FleetServer,
    RolloutPlan,
    RolloutReport,
    WaveReport,
    WaveTask,
)
from repro.fleet.telemetry import DeviceTelemetry, FleetSummary, aggregate
from repro.sim.pool import (
    PoolItemError,
    _fork_available,
    _normalize_cache,
    get_pool,
    portable,
)

#: Backpressure policies a :class:`TelemetryQueue` supports.
BACKPRESSURE_POLICIES = ("block", "shed_oldest")


class ChaosCrash(FleetError):
    """Injected failure from a :class:`ChaosWaveTask` running in-process
    (where ``os._exit`` would kill the control plane itself)."""


# ---------------------------------------------------------------------------
# Bounded ingestion queue with explicit backpressure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryEvent:
    """One device report arriving at the plane."""

    device_id: int
    arm: str  # "treatment" | "control"
    row: Dict[str, Any]
    cached: bool = False


class TelemetryQueue:
    """Bounded asyncio queue with an explicit overload policy.

    ``block`` (default, lossless): a producer hitting capacity waits
    until the consumer drains — backpressure propagates all the way to
    the worker-pool collector thread, which simply stops acknowledging
    results until there is room. ``shed_oldest`` (lossy, bounded
    latency): the oldest queued *data* event is discarded to admit the
    new one and ``dropped`` is incremented; end-of-stream sentinels
    (``None``) are never shed, so stream termination is reliable under
    any load.

    Counters are exact: ``dropped`` events never reach the consumer,
    ``blocked_puts`` counts puts that had to wait, ``high_watermark``
    is the deepest the queue ever got.
    """

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity < 1:
            raise FleetError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise FleetError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._cond = asyncio.Condition()
        self.dropped = 0
        self.blocked_puts = 0
        self.high_watermark = 0
        self.total_in = 0
        self.total_out = 0

    def __len__(self) -> int:
        return len(self._items)

    def full(self) -> bool:
        return len(self._items) >= self.capacity

    async def put(self, item: Optional[TelemetryEvent]) -> None:
        async with self._cond:
            if len(self._items) >= self.capacity:
                if self.policy == "block":
                    self.blocked_puts += 1
                    while len(self._items) >= self.capacity:
                        await self._cond.wait()
                else:
                    self._shed_one()
            self._items.append(item)
            self.total_in += 1
            self.high_watermark = max(self.high_watermark, len(self._items))
            self._cond.notify_all()

    def _shed_one(self) -> None:
        # Drop the oldest *data* event; sentinels must survive or the
        # consumer would wait forever for a stream that already ended.
        for i, queued in enumerate(self._items):
            if queued is not None:
                del self._items[i]
                self.dropped += 1
                return
        # Queue full of sentinels (capacity producers ended at once):
        # nothing sheddable; grow past capacity by this one item.

    async def get(self) -> Optional[TelemetryEvent]:
        async with self._cond:
            while not self._items:
                await self._cond.wait()
            item = self._items.popleft()
            self.total_out += 1
            self._cond.notify_all()
            return item

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "policy": self.policy,  # type: ignore[dict-item]
            "dropped": self.dropped,
            "blocked_puts": self.blocked_puts,
            "high_watermark": self.high_watermark,
            "total_in": self.total_in,
            "total_out": self.total_out,
        }


# ---------------------------------------------------------------------------
# Sharded device registry + windowed rollups
# ---------------------------------------------------------------------------


@dataclass
class DeviceRecord:
    """Latest known state of one device, as reported by telemetry."""

    device_id: int
    update_outcome: str
    active_version: Optional[int]
    completed: bool
    reported_t: float  # simulated seconds at report time


class ShardedRegistry:
    """Device records and violation-rate rollups, sharded by id.

    Each shard owns its own :class:`WindowedRollup`; fleet-wide views
    fold the shards through the digest's exactly-associative merge —
    the production code path the digest property tests back up.
    """

    def __init__(self, n_shards: int = 8, window_s: float = 600.0,
                 relative_error: float = 0.01):
        if n_shards < 1:
            raise FleetError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.window_s = window_s
        self.relative_error = relative_error
        self._shards: List[Dict[int, DeviceRecord]] = [
            {} for _ in range(n_shards)]
        self._rollups: List[WindowedRollup] = [
            WindowedRollup(window_s, relative_error) for _ in range(n_shards)]
        self.events = 0

    def shard_of(self, device_id: int) -> int:
        return device_id % self.n_shards

    def record(self, telemetry: DeviceTelemetry) -> None:
        """Fold one (treatment-arm) report into the registry."""
        shard = self.shard_of(telemetry.device_id)
        self._shards[shard][telemetry.device_id] = DeviceRecord(
            device_id=telemetry.device_id,
            update_outcome=telemetry.update_outcome,
            active_version=telemetry.active_version,
            completed=telemetry.completed,
            reported_t=telemetry.total_time_s,
        )
        runs = max(1, telemetry.runs_before + telemetry.runs_after)
        rate = (telemetry.violations_before + telemetry.violations_after) \
            / runs
        self._rollups[shard].add(telemetry.total_time_s, rate)
        self.events += 1

    @property
    def devices(self) -> int:
        return sum(len(s) for s in self._shards)

    def shard_sizes(self) -> List[int]:
        return [len(s) for s in self._shards]

    def get(self, device_id: int) -> Optional[DeviceRecord]:
        return self._shards[self.shard_of(device_id)].get(device_id)

    def version_counts(self) -> Dict[Optional[int], int]:
        counts: Dict[Optional[int], int] = {}
        for shard in self._shards:
            for rec in shard.values():
                counts[rec.active_version] = \
                    counts.get(rec.active_version, 0) + 1
        return counts

    def merged_rollup(self) -> WindowedRollup:
        """Fleet-wide rollup: associative fold over the shard rollups."""
        out = WindowedRollup(self.window_s, self.relative_error)
        for rollup in self._rollups:
            out = out.merge(rollup)
        return out


# ---------------------------------------------------------------------------
# Chaos wave task: failure injection on the pool's unit of work
# ---------------------------------------------------------------------------


class ChaosWaveTask(WaveTask):
    """A :class:`WaveTask` with failure injection for soak tests.

    ``crash_devices``: before simulating one of these, the executing
    *pool worker* dies via ``os._exit`` — exercising chunk re-queue +
    worker re-fork. A marker file under ``chaos_dir`` makes each crash
    one-shot, so the retried chunk completes. Run in-process (no pool),
    the task raises :class:`ChaosCrash` instead, which the plane's
    inline retry loop absorbs. ``delay_devices`` maps device ids to a
    hold: the *plane* (not the worker) withholds their telemetry until
    every punctual report has been ingested, then delivers them late
    and out of order.
    """

    def __init__(self, base_spec: str, base_version: int,
                 wire: Optional[bytes], version: int, plan: RolloutPlan,
                 chaos_dir: str, crash_devices: Tuple[int, ...] = (),
                 delay_devices: Optional[Dict[int, float]] = None):
        super().__init__(base_spec, base_version, wire, version, plan)
        self.chaos_dir = chaos_dir
        self.crash_devices = tuple(crash_devices)
        self.delay_devices = dict(delay_devices or {})
        self.parent_pid = os.getpid()

    def pre_simulate(self, device_id: int) -> None:
        if device_id not in self.crash_devices:
            return
        arm = "t" if self.wire is not None else "c"
        marker = os.path.join(self.chaos_dir, f"crash-{arm}-{device_id}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # already crashed once for this device; proceed
        except OSError:
            return  # chaos_dir gone: degrade to no injection
        os.close(fd)
        if os.getpid() != self.parent_pid:
            os._exit(23)  # kill the pool worker mid-chunk
        raise ChaosCrash(f"injected in-process crash for device {device_id}")

    def build_key(self, device_id: int):
        # A nominated device is a build of its own, so it runs (and
        # crashes) in both arms instead of taking another device's row.
        if device_id in self.crash_devices:
            return ("crash", device_id)
        return super().build_key(device_id)


# ---------------------------------------------------------------------------
# Telemetry gate
# ---------------------------------------------------------------------------


#: Gate evidence: a treated report, its paired control report, and how
#: many devices the pair stands for.
GatePair = Tuple[DeviceTelemetry, DeviceTelemetry, int]


def _violations(t: DeviceTelemetry) -> int:
    return t.violations_before + t.violations_after


def _device_pairs(telemetry: List[DeviceTelemetry],
                  control: List[DeviceTelemetry]) -> List[GatePair]:
    """Per-device gate pairs (weight 1), matched by device id; a device
    without a control report is left out."""
    by_id = {c.device_id: c for c in control}
    return [(t, by_id[t.device_id], 1) for t in telemetry
            if t.device_id in by_id]


class TelemetryGate:
    """Promote/halt decision over a wave's paired-control evidence.

    Treatment and control simulate the *same* device, once offered the
    update and once not, so their difference is the update's effect,
    not an artifact of when the download finished. The signal is the
    weighted mean per-run violation increase over :data:`GatePair`
    triples: one per device with weight 1, or one per cohort weighted by
    its lane count (compact lockstep waves). The streamed plane pairs
    the reports it received: under ``block`` all of them; under
    ``shed_oldest`` the survivors.
    """

    def __init__(self, plan: RolloutPlan):
        self.plan = plan

    def decide(self, pairs: Iterable[GatePair]) -> Tuple[float, bool]:
        runs = max(1, self.plan.runs)
        pairs = list(pairs)
        weight = sum(w for _, _, w in pairs)
        delta = (sum(w * (_violations(t) - _violations(c)) / runs
                     for t, c, w in pairs) / weight if weight else 0.0)
        return delta, delta > self.plan.halt_threshold


# ---------------------------------------------------------------------------
# Plane configuration + ledger
# ---------------------------------------------------------------------------


#: In-process (no-pool) retries per device on injected/transient
#: failures, beyond the first attempt.
INLINE_RETRIES = 2


@dataclass(frozen=True)
class ControlConfig:
    """Service knobs of the control plane: the telemetry queue's
    capacity and overload policy (the rollout *policy* lives in
    :class:`~repro.fleet.server.RolloutPlan`)."""

    queue_capacity: int = 256
    policy: str = "block"

    def __post_init__(self) -> None:
        if self.policy not in BACKPRESSURE_POLICIES:
            raise FleetError(
                f"unknown backpressure policy {self.policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}")
        if self.queue_capacity < 1:
            raise FleetError("queue_capacity must be >= 1")


@dataclass
class WaveLedgerEntry:
    """One gate decision and the evidence it was made on."""

    index: int
    devices: int
    received: int
    regression_delta: float
    decision: str  # "promote" | "complete" | "halt"
    queue: Dict[str, int] = field(default_factory=dict)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Devices already running the new version when a halt fired — the
    #: rollback blast radius the halt protects the rest of fleet from.
    rollback_devices: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "devices": self.devices,
            "received": self.received,
            "regression_delta": self.regression_delta,
            "decision": self.decision, "queue": dict(self.queue),
            "windows": list(self.windows), "elapsed_s": self.elapsed_s,
            "rollback_devices": self.rollback_devices,
        }


@dataclass
class ServeReport:
    """Outcome of a :meth:`ControlPlane.serve` session."""

    n_devices: int
    cycles: List[Dict[str, Any]] = field(default_factory=list)
    rollout: Optional[RolloutReport] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_devices": self.n_devices,
            "cycles": list(self.cycles),
            "rollout": None if self.rollout is None
            else self.rollout.to_dict(),
        }

    def describe(self) -> str:
        lines = [f"serve session over {self.n_devices} devices: "
                 f"{len(self.cycles)} cycle(s)"]
        if self.rollout is not None:
            lines.append("  " + self.rollout.describe().replace("\n", "\n  "))
        for cycle in self.cycles:
            summary = cycle.get("summary", {})
            queue = cycle.get("queue", {})
            lines.append(
                f"  cycle {cycle.get('cycle')}: "
                f"{summary.get('devices', 0)} reports, "
                f"mean rate {summary.get('mean_rate_before', 0.0):.2f}, "
                f"queue peak {queue.get('high_watermark', 0)}"
                + (f", dropped {queue.get('dropped')}"
                   if queue.get("dropped") else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The control plane
# ---------------------------------------------------------------------------


def _run_sync(coro):
    """Drive a coroutine to completion from synchronous code.

    Callers inside a running event loop (tests driving the plane from
    async code) get a private loop on a helper thread instead of a
    nested-loop error.

    The value travels in a box, not as the main task's result: on the
    main thread ``asyncio.run`` formats the finished task while it
    restores the SIGINT handler, and that would repr a whole report.
    """
    box: Dict[str, Any] = {}

    async def main() -> None:
        box["value"] = await coro

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(main())
        return box["value"]

    def runner() -> None:
        try:
            asyncio.run(main())
        except BaseException as exc:  # re-raised below, on the caller
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


class ControlPlane:
    """Asyncio rollout/monitoring service over a simulated fleet.

    A streamed wave simulates each distinct device build once per
    rollout and arm: devices whose builds share a key
    (:meth:`WaveTask.build_key`) report the row of the first one to
    run, restamped with their own ids. A lockstep wave does the same
    per cohort (:class:`~repro.sim.batch.BatchFleetCore`). Reports equal
    those of simulating every device.

    Args:
        server: the :class:`FleetServer` that builds devices and wire
            blobs.
        plan: rollout policy (waves, thresholds, OTA link shape).
        jobs: worker processes for wave execution — streamed devices
            and lockstep cohort representatives alike (1 = in-process).
        cache: optional content-addressed row cache (same values
            :func:`repro.sim.pool.run_sweep` accepts).
        config: service knobs (:class:`ControlConfig`).
        on_event: optional callback receiving event dicts
            (``wave_start``, ``telemetry``, ``wave_decision``,
            ``cycle`` ...) — the CLI's ``--stream`` NDJSON hook.
        task_factory: override the per-wave task constructor (the soak
            tests inject :class:`ChaosWaveTask` here).
    """

    def __init__(self, server: FleetServer, plan: RolloutPlan = RolloutPlan(),
                 jobs: Optional[int] = None, cache: Any = None,
                 config: Optional[ControlConfig] = None,
                 on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
                 task_factory: Optional[Callable[..., WaveTask]] = None):
        self.server = server
        self.plan = plan
        self.jobs = max(1, int(jobs)) if jobs else 1
        self.cache = _normalize_cache(cache)
        self.config = config if config is not None else ControlConfig()
        self.on_event = on_event
        self.task_factory = task_factory or WaveTask
        self.gate = TelemetryGate(plan)
        self.registry = ShardedRegistry()
        self.ledger: List[WaveLedgerEntry] = []

    # -- events ------------------------------------------------------------
    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event({"event": event, **payload})

    # -- public sync API ---------------------------------------------------
    def run_rollout(self, new_spec: str, n_devices: int,
                    new_version: Optional[int] = None) -> RolloutReport:
        """Staged rollout driven by live telemetry gates (synchronous
        driver; byte-identical to the historical batch path under the
        default lossless policy)."""
        return _run_sync(self._rollout(new_spec, n_devices, new_version))

    def serve(self, n_devices: int, new_spec: Optional[str] = None,
              cycles: int = 1,
              new_version: Optional[int] = None) -> ServeReport:
        """Always-on mode: optionally roll out ``new_spec`` first, then
        run ``cycles`` monitoring passes over the whole fleet, each a
        streamed telemetry sweep folded into the registry rollups."""
        return _run_sync(self._serve(n_devices, new_spec, cycles,
                                     new_version))

    # -- rollout -----------------------------------------------------------
    async def _rollout(self, new_spec: str, n_devices: int,
                       new_version: Optional[int]) -> RolloutReport:
        if n_devices < 1:
            raise FleetError("rollout needs at least one device")
        plan = self.plan
        version = (self.server.base_version + 1 if new_version is None
                   else int(new_version))
        wire = self.server.encode_update(new_spec, version,
                                         use_delta=plan.use_delta)
        report = RolloutReport(n_devices=n_devices, new_version=version)
        boundaries = [min(n_devices, math.ceil(frac * n_devices))
                      for frac in plan.waves]
        start = 0
        compact_rows: List[Tuple[Dict[str, Any], int]] = []
        any_compact = False
        # Rows of this rollout only, by the build they stand for (a
        # lockstep cohort of an arm's core, or a streamed arm's build
        # key): a later wave restamps them, but a later rollout runs its
        # own.
        known_rows: Dict[Tuple[str, Any], Dict[str, Any]] = {}
        for index, end in enumerate(boundaries):
            ids = range(start, end)
            start = end
            if not ids:
                continue
            began = time.monotonic()
            self._emit("wave_start", wave=index, devices=len(ids),
                       version=version)
            if plan.lockstep:
                telemetry, control, summary, pairs, rows = \
                    self._lockstep_wave(ids, wire, version, known_rows)
                compact_rows.extend(rows)
                any_compact = any_compact or not telemetry
                queue_stats: Dict[str, int] = {}
                windows: List[Dict[str, Any]] = []
            else:
                telemetry, control, summary, pairs, queue_stats, \
                    windows = await self._streamed_wave(index, ids, wire,
                                                        version, known_rows)
            delta, halted = self.gate.decide(pairs)
            decision = ("halt" if halted else
                        "complete" if index + 1 == len(boundaries)
                        else "promote")
            rollback = 0
            if halted:
                # From the summaries, not per-device telemetry: a compact
                # lockstep wave carries none.
                rollback = summary.installed + sum(
                    w.summary.installed for w in report.waves)
            self.ledger.append(WaveLedgerEntry(
                index=index, devices=len(ids),
                received=summary.devices, regression_delta=delta,
                decision=decision, queue=queue_stats, windows=windows,
                elapsed_s=time.monotonic() - began,
                rollback_devices=rollback,
            ))
            self._emit("wave_decision", wave=index, devices=len(ids),
                       regression_delta=delta, decision=decision,
                       rollback_devices=rollback, queue=queue_stats)
            report.waves.append(WaveReport(
                index=index, device_ids=ids, telemetry=telemetry,
                control=control, summary=summary,
                regression_delta=delta, halted=halted,
            ))
            if halted:
                report.halted = True
                report.halted_wave = index
                break
        if any_compact:
            from repro.sim.batch import weighted_summary
            report.summary = weighted_summary(compact_rows)
        else:
            report.summary = aggregate(report.all_telemetry())
        return report

    def _lockstep_wave(self, ids: range, wire: Optional[bytes],
                       version: int,
                       known_rows: Dict[Tuple[str, Any], Dict[str, Any]]):
        """One wave (treatment + paired control) through the lockstep
        cohort core, whose representatives run on the plane's ``jobs``
        pool workers. ``known_rows`` holds the rollout's representative
        rows so far: a cohort an earlier wave ran runs no representative
        here (:meth:`BatchFleetCore.run`).

        Waves up to ``plan.expand_limit`` devices expand into per-device
        telemetry, aggregated and paired exactly as the streamed path
        does — byte-identical to it. Larger waves stay compact: one row
        per cohort, the weighted rollup, and one gate pair per cohort
        weighted by its lane count.
        """
        from repro.sim.batch import BatchFleetCore, weighted_summary

        plan = self.plan
        treated_core = BatchFleetCore(self.server, wire, version, plan)
        control_core = BatchFleetCore(self.server, None, version, plan)
        # Both arms share the plan, hence the partition.
        groups = treated_core.partition(ids)
        treated = treated_core.run(ids, cache=self.cache, jobs=self.jobs,
                                   groups=groups, known_rows=known_rows)
        control = control_core.run(ids, cache=self.cache, jobs=self.jobs,
                                   groups=groups, known_rows=known_rows)
        rows = [(dict(row), count) for row, count in treated.rows()]
        if len(ids) <= plan.expand_limit:
            telemetry = treated.expand()
            control_t = control.expand()
            return (telemetry, control_t, aggregate(telemetry),
                    _device_pairs(telemetry, control_t), rows)
        control_rows = {c.key: c.row for c in control.cohorts}
        pairs = [(DeviceTelemetry.from_row(c.row),
                  DeviceTelemetry.from_row(control_rows[c.key]),
                  len(c.device_ids))
                 for c in treated.cohorts if c.key in control_rows]
        return [], [], weighted_summary(rows), pairs, rows

    async def _streamed_wave(self, index: int, ids: range,
                             wire: Optional[bytes], version: int,
                             known_rows: Dict[Tuple[str, Any],
                                              Dict[str, Any]]):
        """One wave, streamed: treatment + paired control as two
        producers feeding the bounded queue into the registry; the gate
        pairs are the received rows, matched at stream end. Each arm
        simulates each distinct build once per rollout
        (:meth:`_produce_arm`); ``known_rows`` holds the rollout's rows
        so far.

        The producers are gathered, but on the pool (``jobs > 1``) the
        arms do not overlap: both call :meth:`PersistentPool.run`, which
        holds the pool's lock for a whole run, so one arm's devices
        execute after the other's and the waiting arm's lock wait counts
        as its run time."""
        cfg = self.config
        make = self.task_factory
        tasks = {
            "treatment": make(self.server.base_spec,
                              self.server.base_version, wire, version,
                              self.plan),
            "control": make(self.server.base_spec, self.server.base_version,
                            None, version, self.plan),
        }
        queue = TelemetryQueue(cfg.queue_capacity, cfg.policy)
        received: Dict[str, Dict[int, Dict[str, Any]]] = {
            "treatment": {}, "control": {}}

        async def consume() -> None:
            ended = 0
            while ended < len(tasks):
                event = await queue.get()
                if event is None:
                    ended += 1
                    continue
                received[event.arm][event.device_id] = event.row
                if event.arm == "treatment":
                    self.registry.record(DeviceTelemetry.from_row(event.row))
                    self._emit("telemetry", wave=index,
                               device_id=event.device_id,
                               outcome=event.row.get("update_outcome"),
                               cached=event.cached)

        async def produce(arm: str) -> None:
            try:
                await self._produce_arm(arm, tasks[arm], ids, queue,
                                        known_rows)
            finally:
                await queue.put(None)

        consumer = asyncio.ensure_future(consume())
        try:
            await asyncio.gather(produce("treatment"), produce("control"))
            await consumer
        except BaseException:
            consumer.cancel()
            raise
        telemetry = [DeviceTelemetry.from_row(received["treatment"][d])
                     for d in sorted(received["treatment"])]
        control = [DeviceTelemetry.from_row(received["control"][d])
                   for d in sorted(received["control"])]
        summary = aggregate(telemetry)
        if queue.dropped:
            summary = replace(summary, telemetry_dropped=queue.dropped)
        windows = self.registry.merged_rollup().to_rows()
        return (telemetry, control, summary,
                _device_pairs(telemetry, control), queue.stats(), windows)

    async def _produce_arm(self, arm: str, task: WaveTask, ids: range,
                           queue: TelemetryQueue,
                           known_rows: Dict[Tuple[str, Any], Dict[str, Any]]
                           ) -> None:
        """Execute one arm's devices, feeding the queue as rows land.

        A device the result cache holds is delivered from it. The others
        are grouped by ``(arm, task.build_key(device_id))``: devices of
        one key run the same simulation, so each key runs once per
        rollout. A key in ``known_rows`` (an earlier wave ran it) is
        delivered at once; of a new key, the first device runs, on the
        pool or inline, and the key's other devices are delivered when
        its row lands and the row joins ``known_rows``. A reused row is
        restamped with its own ``device_id`` and, like a computed row,
        stored in the cache under its own device."""
        loop = asyncio.get_running_loop()
        delays: Dict[int, float] = dict(
            getattr(task, "delay_devices", None) or {})
        held: List[Dict[str, Any]] = []

        async def deliver(row: Dict[str, Any], cached: bool = False) -> None:
            device_id = int(row["device_id"])
            if device_id in delays:
                held.append(row)
                return
            await queue.put(TelemetryEvent(device_id, arm, row,
                                           cached=cached))

        fingerprint = task.fingerprint() if self.cache is not None else ""
        keys: Dict[int, str] = {}
        pending: List[int] = []
        for device_id in ids:
            if self.cache is not None:
                key = self.cache.key_for(fingerprint,
                                         {"device_id": device_id})
                keys[device_id] = key
                row = self.cache.get(key)
                if row is not None:
                    await deliver(row, cached=True)
                    continue
            pending.append(device_id)

        computed: Dict[int, Dict[str, Any]] = {}

        async def restamp(row: Dict[str, Any], device_ids: List[int]) -> None:
            for device_id in device_ids:
                computed[device_id] = dict(row, device_id=device_id)
                await deliver(computed[device_id])
                # Let the consumer drain after each row, as it does
                # between pool results: a burst of one build's rows
                # would overrun a lossy queue.
                await asyncio.sleep(0)

        by_key: Dict[Tuple[str, Any], List[int]] = {}
        for device_id in pending:
            by_key.setdefault((arm, task.build_key(device_id)),
                              []).append(device_id)
        # The device that runs for each new key, and the key's others.
        runs: Dict[int, Tuple[Tuple[str, Any], List[int]]] = {}
        for build, members in by_key.items():
            if build in known_rows:
                await restamp(known_rows[build], members)
            else:
                runs[members[0]] = (build, members[1:])

        async def land(device_id: int, row: Dict[str, Any]) -> None:
            build, others = runs[device_id]
            known_rows[build] = row
            await restamp(row, [device_id, *others])

        failed: List[int] = list(runs)
        if runs and self.jobs > 1 and _fork_available() and portable(task):
            failed = await self._pool_arm(task, list(runs), land, loop)
        for device_id in failed:
            await land(device_id,
                       await self._run_inline(task, device_id, loop))
        # Late arrivals: delayed telemetry lands after every punctual
        # report, in delay order — out of order relative to device ids.
        for row in sorted(held,
                          key=lambda r: (delays.get(int(r["device_id"]), 0.0),
                                         int(r["device_id"]))):
            await queue.put(TelemetryEvent(int(row["device_id"]), arm, row))
        if self.cache is not None:
            for device_id, row in computed.items():
                self.cache.put(keys[device_id], row)

    async def _pool_arm(self, task: WaveTask, pending: List[int],
                        land, loop) -> List[int]:
        """Run ``pending`` on the persistent pool, handing each row to
        ``land(device_id, row)`` as it arrives; returns the device ids
        that failed in the workers (retried inline by the caller)."""
        pool = get_pool(self.jobs)

        def on_result(slot: int, row: Dict[str, Any]) -> None:
            # Pool collector thread -> event loop; .result() makes the
            # collector wait while the queue is full (block policy), so
            # backpressure reaches the execution backend itself.
            asyncio.run_coroutine_threadsafe(land(pending[slot], row),
                                             loop).result()

        results = await loop.run_in_executor(
            None, lambda: pool.run(task, pending, on_result=on_result,
                                   return_errors=True))
        return [device_id for device_id, result in zip(pending, results)
                if isinstance(result, PoolItemError)]

    async def _run_inline(self, task: WaveTask, device_id: int,
                          loop) -> Dict[str, Any]:
        attempts = INLINE_RETRIES + 1
        for attempt in range(attempts):
            try:
                return await loop.run_in_executor(None, task, device_id)
            except ChaosCrash:
                if attempt + 1 >= attempts:
                    raise
        raise FleetError(f"device {device_id} failed after "
                         f"{attempts} attempts")  # pragma: no cover

    # -- always-on serving -------------------------------------------------
    async def _serve(self, n_devices: int, new_spec: Optional[str],
                     cycles: int,
                     new_version: Optional[int]) -> ServeReport:
        if cycles < 1:
            raise FleetError("serve needs at least one cycle")
        report = ServeReport(n_devices=n_devices)
        if new_spec is not None:
            report.rollout = await self._rollout(new_spec, n_devices,
                                                 new_version)
        version = (report.rollout.new_version if report.rollout is not None
                   else self.server.base_version)
        for cycle in range(cycles):
            began = time.monotonic()
            telemetry, queue_stats = await self._monitor_cycle(cycle,
                                                               n_devices,
                                                               version)
            summary = aggregate(telemetry)
            if queue_stats.get("dropped"):
                summary = replace(summary,
                                  telemetry_dropped=queue_stats["dropped"])
            windows = self.registry.merged_rollup().to_rows()
            entry = {
                "cycle": cycle,
                "summary": summary.to_dict(),
                "queue": queue_stats,
                "windows": windows,
                "shards": self.registry.shard_sizes(),
                "versions": {str(k): v for k, v in
                             self.registry.version_counts().items()},
                "elapsed_s": time.monotonic() - began,
            }
            report.cycles.append(entry)
            self._emit("cycle", **entry)
        return report

    async def _monitor_cycle(self, cycle: int, n_devices: int,
                             version: int):
        """One monitoring pass: every device simulated on its installed
        spec (no update offered), streamed into the registry. Each
        distinct build runs once per cycle; every device is recorded."""
        make = self.task_factory
        task = make(self.server.base_spec, self.server.base_version, None,
                    version, self.plan)
        queue = TelemetryQueue(self.config.queue_capacity,
                               self.config.policy)
        rows: Dict[int, Dict[str, Any]] = {}

        async def consume() -> None:
            while True:
                event = await queue.get()
                if event is None:
                    return
                rows[event.device_id] = event.row
                self.registry.record(DeviceTelemetry.from_row(event.row))
                self._emit("telemetry", cycle=cycle,
                           device_id=event.device_id,
                           outcome=event.row.get("update_outcome"),
                           cached=event.cached)

        async def produce() -> None:
            try:
                await self._produce_arm("treatment", task,
                                        range(n_devices), queue, {})
            finally:
                await queue.put(None)

        consumer = asyncio.ensure_future(consume())
        try:
            await produce()
            await consumer
        except BaseException:
            consumer.cancel()
            raise
        telemetry = [DeviceTelemetry.from_row(rows[d])
                     for d in sorted(rows)]
        return telemetry, queue.stats()
