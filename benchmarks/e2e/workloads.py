"""The benchmark's four workloads, and the child process that runs one.

Every workload is a closed loop: one process issues one rollout, sweep
or exploration at a time and waits for it, with the persistent worker
pool at :data:`JOBS` workers. Why each workload exists:

* ``fleet-streamed`` — every device is unique (``per_device`` seeding),
  so nothing amortizes: provisioning, codegen, NVM writes, monitor
  dispatch, energy, the pool, the telemetry queue and the gate are all
  on the blocking path.
* ``fleet-lockstep`` — four cohorts stand for the whole fleet, so the
  cohort partition, lane fill and kernel replay dominate; a per-device
  optimisation should leave it flat.
* ``sweep-grid`` — the paper's Fig. 12 grid at scale: energy model and
  brown-out loop per point, the pool's per-item transport, and no OTA,
  bundle, queue or gate.
* ``verify-crash`` — crash-schedule exploration reads NVM the other way
  round (fingerprints and verifies at every payment), so work moved
  from writes into ``verify()`` or fingerprints shows up here as a loss.

Each workload has two sizes: the measured one, and a small warm-up one
that runs the same code paths (both specs, every system and energy
source, the same scenario at bound 1). ``--quick`` measures at the
warm-up size.

Run as a script this module is the child process ``run.py`` starts::

    python3 benchmarks/e2e/workloads.py '{"workload": "sweep-grid",
        "seed": 0, "seconds": 20, "quick": false, "mode": "measure",
        "p99_samples": 1000}'

It builds the workload, forks the pool, runs one untimed warm-up
iteration and prints ``READY``, then one ``RESULT <json>`` line.
``mode`` is ``setup`` (stop after the warm-up), ``measure`` (the timed
loop; on fleet-streamed until ``p99_samples`` report latencies) or
``trace`` (the traced passes of :mod:`layers`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List

E2E_DIR = Path(__file__).resolve().parent
SRC_DIR = E2E_DIR.parents[1] / "src"
for _path in (str(SRC_DIR), str(E2E_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
from repro.energy.environment import (  # noqa: E402
    EnergyEnvironment,
    default_capacitor,
)
from repro.fleet import control, server  # noqa: E402
from repro.sim import pool  # noqa: E402
from repro.sim.device import Device  # noqa: E402
from repro.sim.experiments import Sweep  # noqa: E402
from repro.verify import workloads as scenarios  # noqa: E402
from repro.workloads import health  # noqa: E402

#: Pool workers: two, or fewer on a smaller machine (never above nproc).
JOBS = min(2, os.cpu_count() or 1)

#: Timed iterations a run needs at least.
MIN_ITERATIONS = 5

#: A timed loop stops after this many multiples of ``--seconds`` even if
#: it has too few samples, so one slow program cannot run past the
#: benchmark's time limit.
MAX_STRETCH = 4.0


@dataclass
class Iteration:
    """One closed-loop iteration: what it did, how long, what failed.

    ``items`` completed in ``wall_s`` give ``items_per_s``; ``ops`` are
    the operations whose outputs were checked (devices per arm, grid
    points, schedules), ``failed`` of them failed a check.
    """

    items: int = 0
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    digest: str = ""
    ledger: List[Dict[str, Any]] = field(default_factory=list)
    waves: List[List[float]] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self) -> Dict[str, Any]:
        """What the result file keeps: no ledger, no wave spans."""
        out = asdict(self)
        del out["ledger"], out["waves"]
        return out


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Fleet rollouts
# ---------------------------------------------------------------------------


class FleetWorkload:
    """Alternating benign and regressing staged rollouts.

    The benign ``FLEET_SPEC_V2`` rollout must reach every device; the
    regressing one must halt in wave 0. ``--seed`` seeds the chunk-loss
    streams (``RolloutPlan.seed``).
    """

    seed_used = True

    def __init__(self, seed: int, quick: bool, lockstep: bool):
        if lockstep:
            self.warmup_devices = 2_000
            full = 250_000
            self.plan = server.RolloutPlan(
                waves=(0.25, 1.0), runs=2, loss_rate=0.02, seed=seed,
                lockstep=True, seed_mode="per_cohort", expand_limit=0)
        else:
            self.warmup_devices = 8
            full = 128
            self.plan = server.RolloutPlan(waves=(0.25, 1.0), runs=2,
                                           loss_rate=0.02, seed=seed)
        self.devices = self.warmup_devices if quick else full
        self.fleet = server.FleetServer()
        #: Whether the timed loop runs on until ``report_p99_s`` has
        #: enough per-device report latencies.
        self.reports_latency = not (quick or lockstep)

    def sizes(self) -> Dict[str, Any]:
        return {"devices": self.devices,
                "warmup_devices": self.warmup_devices,
                "waves": list(self.plan.waves),
                "runs": self.plan.runs, "loss_rate": self.plan.loss_rate,
                "lockstep": self.plan.lockstep,
                "seed_mode": self.plan.seed_mode,
                "expand_limit": self.plan.expand_limit}

    def iterate(self, jobs: int, warmup: bool = False) -> Iteration:
        it = Iteration()
        devices = self.warmup_devices if warmup else self.devices
        digests = [self._rollout(it, jobs, devices, benign=True),
                   self._rollout(it, jobs, devices, benign=False)]
        it.digest = _digest(digests)
        return it

    def _rollout(self, it: Iteration, jobs: int, fleet_size: int,
                 benign: bool) -> str:
        perf = time.perf_counter
        events: List[Any] = []
        plane = control.ControlPlane(
            self.fleet, plan=self.plan, jobs=jobs,
            on_event=lambda event: events.append((perf(), event)))
        kind = "benign" if benign else "regressing"
        devices = (fleet_size if benign
                   else math.ceil(self.plan.waves[0] * fleet_size))
        ops = 2 * devices  # treatment and paired control arms
        it.ops += ops
        start = perf()
        try:
            report = plane.run_rollout(
                server.FLEET_SPEC_V2 if benign
                else server.FLEET_SPEC_REGRESSING, fleet_size)
        except Exception as exc:  # the loop keeps running and counts it
            it.fail(ops, f"{kind} rollout raised {exc!r}")
            return ""
        wall = perf() - start
        it.ledger.extend(entry.to_dict() for entry in plane.ledger)
        if benign and not (report.ok
                           and report.devices_attempted == fleet_size):
            it.fail(ops, f"benign rollout stopped: halted={report.halted} "
                         f"attempted={report.devices_attempted}")
        if not benign and not (report.halted and report.halted_wave == 0):
            it.fail(ops, f"regressing rollout not halted in wave 0 "
                         f"(halted_wave={report.halted_wave})")
        wave_start: Dict[int, float] = {}
        for t, event in events:
            name = event["event"]
            if name == "wave_start":
                wave_start[event["wave"]] = t
            elif name == "wave_decision":
                it.waves.append([wave_start[event["wave"]], t])
                if event["decision"] == "halt":
                    it.sample("halt_s", t - start)
            elif name == "telemetry":
                it.sample("report_latency_s", t - wave_start[event["wave"]])
        if benign:
            it.items, it.wall_s = fleet_size, wall
        return _digest(report.to_dict())


# ---------------------------------------------------------------------------
# Fig. 12 sweep grid
# ---------------------------------------------------------------------------

#: Relative persistent-clock error of fixed-delay devices; the point's
#: seed draws the error, so no two points are identical work.
CLOCK_ERROR = 0.05


def _build_point(point: Dict[str, Any]):
    energy = point["energy"]
    if energy == "rf":
        device = health.make_rf_device(seed=point["seed"])
    else:
        env = EnergyEnvironment.for_charging_delay(
            float(energy), capacitor=default_capacitor())
        device = Device(env, clock_error=CLOCK_ERROR, seed=point["seed"])
    build = (health.build_artemis if point["system"] == "artemis"
             else health.build_mayfly)
    return device, build(device)


def _completed(device, result) -> bool:
    return result.completed


def _time_s(device, result) -> float:
    return result.total_time_s


def _reboots(device, result) -> int:
    return result.reboots


def _grid(seed: int, per_cell: int) -> Sweep:
    return Sweep(
        factors={"system": ["artemis", "mayfly"],
                 "energy": [60.0, 180.0, 300.0, "rf"],
                 "seed": [seed * 1000 + i for i in range(per_cell)]},
        build=_build_point,
        metrics={"completed": _completed, "time_s": _time_s,
                 "reboots": _reboots},
        runs=3, max_time_s=4 * 3600.0)


class SweepWorkload:
    """System × energy × seed grid through ``run_sweep``, no cache.

    ``--seed`` is the base of the seed factor. Every ARTEMIS point must
    complete (the paper's Fig. 12 claim); Mayfly may not.
    """

    seed_used = True
    reports_latency = False

    def __init__(self, seed: int, quick: bool):
        self.warmup_sweep = _grid(seed, 1)
        self.sweep = self.warmup_sweep if quick else _grid(seed, 30)
        self.points = len(self.sweep.points())

    def sizes(self) -> Dict[str, Any]:
        return {"points": self.points,
                "warmup_points": len(self.warmup_sweep.points()),
                "factors": {k: len(v) for k, v in self.sweep.factors.items()},
                "runs": self.sweep.runs, "max_time_s": self.sweep.max_time_s,
                "clock_error": CLOCK_ERROR}

    def iterate(self, jobs: int, warmup: bool = False) -> Iteration:
        sweep = self.warmup_sweep if warmup else self.sweep
        points = len(sweep.points())
        it = Iteration(ops=points)
        start = time.perf_counter()
        try:
            rows = pool.run_sweep(sweep, jobs=jobs, strategy="persistent")
        except Exception as exc:  # the loop keeps running and counts it
            it.fail(points, f"sweep raised {exc!r}")
            return it
        it.items, it.wall_s = len(rows), time.perf_counter() - start
        stuck = sum(1 for row in rows
                    if row["system"] == "artemis" and not row["completed"])
        if len(rows) != points or stuck:
            it.fail(points, f"{len(rows)}/{points} rows, "
                            f"{stuck} ARTEMIS points did not complete")
        it.digest = _digest(rows)
        return it


# ---------------------------------------------------------------------------
# Crash-schedule verification
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """Bound-2 POR exploration of the scenarios to a full verdict.

    Exhaustive, so it ignores ``--seed``. Every scenario must pass
    untruncated with the same schedule count on every pass.
    """

    seed_used = False
    reports_latency = False

    def __init__(self, seed: int, quick: bool):
        # One scenario: (ota-delta) and (temporal) would add 3.6 s and
        # 3.2 s to each pass, which 92 runs of the four workloads cannot
        # afford within the benchmark's hour.
        self.scenarios = ("ota",)
        self.warmup_bound = 1
        self.bound = self.warmup_bound if quick else 2
        self.budget = 400

    def sizes(self) -> Dict[str, Any]:
        return {"scenarios": [f"{w}-artemis" for w in self.scenarios],
                "bound": self.bound, "warmup_bound": self.warmup_bound,
                "budget": self.budget, "por": True}

    def iterate(self, jobs: int, warmup: bool = False) -> Iteration:
        bound = self.warmup_bound if warmup else self.bound
        it = Iteration()
        counts = []
        start = time.perf_counter()
        for workload in self.scenarios:
            try:
                report = scenarios.get_scenario(
                    workload, "artemis").explorer().explore(
                        bound=bound, budget=self.budget,
                        stop_on_first=False, por=True)
            except Exception as exc:  # the loop keeps running and counts it
                it.fail(1, f"{workload} exploration raised {exc!r}")
                it.ops += 1
                continue
            it.ops += report.runs_executed
            if not report.ok or report.truncated:
                it.fail(report.runs_executed, report.summary())
            counts.append(report.schedules_checked)
        it.items, it.wall_s = len(self.scenarios), time.perf_counter() - start
        it.digest = _digest(counts)
        return it


def make_workload(name: str, seed: int, quick: bool):
    if name == "fleet-streamed":
        return FleetWorkload(seed, quick, lockstep=False)
    if name == "fleet-lockstep":
        return FleetWorkload(seed, quick, lockstep=True)
    if name == "sweep-grid":
        return SweepWorkload(seed, quick)
    if name == "verify-crash":
        return VerifyWorkload(seed, quick)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------


def measure(workload, seconds: float, min_samples: int) -> List[Iteration]:
    """The timed closed loop: at least ``seconds``,
    :data:`MIN_ITERATIONS` iterations and ``min_samples`` report
    latencies, unless :data:`MAX_STRETCH` ends it."""
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while True:
        iterations.append(workload.iterate(JOBS))
        elapsed = time.perf_counter() - start
        samples = sum(len(it.samples.get("report_latency_s", ()))
                      for it in iterations)
        if elapsed >= seconds * MAX_STRETCH or (
                elapsed >= seconds and len(iterations) >= MIN_ITERATIONS
                and samples >= min_samples):
            return iterations


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def trace(workload) -> Dict[str, Any]:
    """Per-layer table: after an untimed full-size iteration, an
    untraced and a traced in-process iteration at ``jobs=1``, then a
    parent-side traced iteration at :data:`JOBS`.

    At ``jobs=1`` the fleet control plane runs devices inline and the
    sweep runs serially; ``run.py`` checks their digests against the
    pooled timed iterations, which executes the streamed-vs-inline and
    serial-vs-pooled byte-identity contracts.
    """
    warm = workload.iterate(1)
    start = time.perf_counter()
    untraced = workload.iterate(1)
    untraced_wall = time.perf_counter() - start
    span_it, span_pass = layers.traced(layers.SPAN_PROBES,
                                       lambda: workload.iterate(1))
    pool.shutdown_pools()  # reap the warm-up's workers: CPU baseline
    cpu0 = _children_cpu_s()
    parent_it, parent_pass = layers.traced(layers.PARENT_PROBES,
                                           lambda: workload.iterate(JOBS))
    pool.shutdown_pools()
    table = layers.layer_table(span_pass, parent_pass, untraced_wall,
                               _children_cpu_s() - cpu0, JOBS,
                               parent_it.ledger)
    spans = span_pass.spans + [("wave", s, e, 0) for s, e in span_it.waves]
    return {"layers": table, "spans": layers.span_summary(spans),
            "iterations": [it.record()
                           for it in (warm, untraced, span_it, parent_it)]}


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    workload = make_workload(spec["workload"], int(spec["seed"]),
                             bool(spec["quick"]))
    warmup = workload.iterate(JOBS, warmup=True)
    print("READY", flush=True)
    out: Dict[str, Any] = {"warmup": warmup.record(), "jobs": JOBS,
                           "sizes": workload.sizes(),
                           "seed_used": workload.seed_used,
                           "iterations": []}
    if spec["mode"] == "measure":
        min_samples = spec["p99_samples"] if workload.reports_latency else 0
        out["iterations"] = [it.record() for it in measure(
            workload, float(spec["seconds"]), min_samples)]
    elif spec["mode"] == "trace":
        out.update(trace(workload))
    pool.shutdown_pools()
    out["peak_rss_mb"] = peak_rss_mb()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
