"""Benchmark-regression harness.

Measures the engine's host-side performance (monitor-call throughput,
per-event dispatch cost, sweep wall time serial vs parallel vs cached),
writes the numbers to a dated ``BENCH_<date>.json`` baseline, and
compares a fresh run against the newest committed baseline with a
tolerance band::

    python benchmarks/regression.py --write     # record a new baseline
    python benchmarks/regression.py             # compare vs newest baseline
    python benchmarks/regression.py --tolerance 0.25

Exit status: 0 when every enforced metric is within tolerance of the
baseline (or when writing), 1 on a regression, 2 when no baseline
exists. Absolute wall-clock metrics are recorded for trend-reading but
*informational only* — shared CI machines make them too noisy to gate
on; the enforced metrics are throughputs and dimensionless ratios.

See ``docs/performance.md`` for how to read the fields.
"""

from __future__ import annotations

import argparse
import datetime
import json
import multiprocessing
import os
import platform
import string
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

if str(REPO_ROOT / "src") not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Metric name -> comparison direction. ``higher`` / ``lower`` metrics
#: are enforced against the tolerance band; ``info`` metrics are printed
#: but never fail the run.
METRIC_DIRECTIONS: Dict[str, str] = {
    "engine_generated_events_per_s": "higher",
    "engine_interpreted_events_per_s": "higher",
    "dispatch_us_per_event": "lower",
    "cache_speedup": "higher",
    "cache_hit_rate": "higher",
    "fleet_devices_per_s": "higher",
    "batched_devices_per_s": "higher",
    "streamed_devices_per_s": "higher",
    "conformance_schedules_per_s": "higher",
    "predict_monitors_per_s": "higher",
    "tl_monitors_per_s": "higher",
    # Persistent-pool wall time and its ratio to serial: core-count
    # dependent (a single-core box pays IPC with no parallel hardware
    # to recoup it), so informational only.
    "parallel_vs_serial": "info",
    "sweep_serial_s": "info",
    "sweep_parallel_s": "info",
    "sweep_cache_warm_s": "info",
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _measure_engine(backend: str, n_events: int = 2000,
                    trials: int = 5) -> float:
    """Best-of-N monitor-call throughput (events/second) on the health
    workload's five-property monitor."""
    from repro.core.events import MonitorEvent
    from repro.core.monitor import ArtemisMonitor
    from repro.nvm.memory import NonVolatileMemory
    from repro.spec.validator import load_properties
    from repro.workloads.health import BENCHMARK_SPEC, build_health_app

    app = build_health_app()
    events: List[MonitorEvent] = []
    t = 0.0
    while len(events) < n_events:
        for path in app.paths:
            for task in path.task_names:
                events.append(MonitorEvent("startTask", task, t, {},
                                           path=path.number))
                t += 0.5
                data = {"avgTemp": 36.8} if task == "calcAvg" else {}
                events.append(MonitorEvent("endTask", task, t, data,
                                           path=path.number))
                t += 0.5
    events = events[:n_events]
    props = load_properties(BENCHMARK_SPEC, app)
    monitor = ArtemisMonitor(props, NonVolatileMemory(), backend=backend)
    best: Optional[float] = None
    for _ in range(trials):
        monitor.reset()
        t0 = time.perf_counter()
        for event in events:
            monitor.call(event)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return len(events) / best


# Module-level (picklable) sweep pieces: the persistent worker pool
# ships the task to long-lived workers, so the build and metric
# callables must be importable, not closures.
def _bench_build(point):
    from repro.workloads.health import build_artemis, make_intermittent_device

    device = make_intermittent_device(point["delay_s"])
    return device, build_artemis(device)


def _bench_metric_completed(dev, res):
    return res.completed


def _bench_metric_time_s(dev, res):
    return round(res.total_time_s, 6)


def _bench_metric_reboots(dev, res):
    return res.reboots


def _bench_sweep():
    from repro.sim.experiments import Sweep

    return Sweep(
        factors={"delay_s": [30.0, 60.0, 90.0, 120.0, 180.0, 240.0]},
        build=_bench_build,
        metrics={
            "completed": _bench_metric_completed,
            "time_s": _bench_metric_time_s,
            "reboots": _bench_metric_reboots,
        },
        max_time_s=4 * 3600.0,
    )


def _measure_sweep(jobs: int = 4) -> Dict[str, float]:
    """Wall time of a small health-workload sweep: serial, persistent
    pool, and cache-warm, plus the derived ratios and hit rate.

    ``parallel_vs_serial`` (persistent pool vs in-process serial) is
    informational: on a single-core host it hovers near or below 1.0
    because there is no parallel hardware to pay for the IPC.
    """
    from repro.sim.pool import ResultCache, run_sweep, shutdown_pools

    sweep = _bench_sweep()

    # Best-of-N wall times: the sweep is small, so single runs jitter
    # too much for a tolerance band over derived ratios.
    def best_of(n, fn):
        best = None
        rows = None
        for _ in range(n):
            t0 = time.perf_counter()
            rows = fn()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best, rows

    serial_s, serial_rows = best_of(
        3, lambda: run_sweep(sweep, jobs=1, strategy="serial"))

    metrics: Dict[str, float] = {"sweep_serial_s": serial_s}
    if "fork" in multiprocessing.get_all_start_methods():
        # Three runs so the steady state (workers already forked)
        # dominates the minimum.
        persistent_s, persistent_rows = best_of(
            3, lambda: run_sweep(sweep, jobs=jobs, strategy="persistent"))
        shutdown_pools()
        if persistent_rows != serial_rows:
            raise AssertionError("parallel sweep produced a different table")
        metrics.update({
            "sweep_parallel_s": persistent_s,
            "parallel_vs_serial": serial_s / persistent_s if persistent_s
            else 0.0,
        })

    with tempfile.TemporaryDirectory(prefix="repro_bench_cache_") as tmp:
        cache = ResultCache(tmp)
        run_sweep(sweep, jobs=1, cache=cache)  # populate
        warm_s = None
        for _ in range(3):
            cache.hits = cache.misses = 0
            t0 = time.perf_counter()
            warm_rows = run_sweep(sweep, jobs=1, cache=cache)
            elapsed = time.perf_counter() - t0
            warm_s = elapsed if warm_s is None else min(warm_s, elapsed)
        hit_rate = cache.hit_rate
    if warm_rows != serial_rows:
        raise AssertionError("cached sweep produced a different table")

    metrics.update({
        "sweep_cache_warm_s": warm_s,
        "cache_speedup": serial_s / warm_s if warm_s else 0.0,
        "cache_hit_rate": hit_rate,
    })
    return metrics


def _measure_fleet(n_devices: int = 16, jobs: int = 4,
                   trials: int = 3) -> float:
    """Best-of-N staged-rollout throughput (fleet devices evaluated per
    second, paired control included) on the benign v2 update."""
    from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan

    server = FleetServer()
    plan = RolloutPlan(waves=(0.25, 1.0), runs=2, loss_rate=0.02, seed=0)
    best: Optional[float] = None
    for _ in range(trials):
        t0 = time.perf_counter()
        report = server.rollout(FLEET_SPEC_V2, n_devices, plan=plan,
                                jobs=jobs)
        elapsed = time.perf_counter() - t0
        if not report.ok or report.devices_attempted != n_devices:
            raise AssertionError("benign fleet rollout failed to complete")
        best = elapsed if best is None else min(best, elapsed)
    return n_devices / best


def _measure_batched_fleet(n_devices: int = 2000, trials: int = 2) -> float:
    """Best-of-N lockstep staged-rollout throughput (devices per second,
    paired control included) through the lockstep cohort core:
    ``per_cohort`` seeding, compact per-cohort rollup (``expand_limit=0``).
    Guards the lockstep path end to end — cohort partitioning, the
    representative runs, and the weighted telemetry aggregation."""
    from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan

    server = FleetServer()
    plan = RolloutPlan(waves=(0.25, 1.0), runs=2, loss_rate=0.02, seed=0,
                       lockstep=True, seed_mode="per_cohort",
                       expand_limit=0)
    best: Optional[float] = None
    for _ in range(trials):
        t0 = time.perf_counter()
        report = server.rollout(FLEET_SPEC_V2, n_devices, plan=plan)
        elapsed = time.perf_counter() - t0
        if not report.ok or report.devices_attempted != n_devices:
            raise AssertionError("batched fleet rollout failed to complete")
        best = elapsed if best is None else min(best, elapsed)
    return n_devices / best


def _measure_streamed(n_devices: int = 32, jobs: int = 4,
                      trials: int = 3) -> float:
    """Best-of-N throughput (devices per second, paired control
    included) of the control plane's streamed rollout: per-device wave
    tasks on the persistent pool, telemetry flowing through the bounded
    ingestion queue into the sharded registry, waves gated live. Guards
    the whole async path — a queue stall, pool regression, or registry
    slowdown all surface here."""
    from repro.fleet.control import ControlPlane
    from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan
    from repro.sim.pool import shutdown_pools

    server = FleetServer()
    plan = RolloutPlan(waves=(0.25, 1.0), runs=2, loss_rate=0.02, seed=0)
    best: Optional[float] = None
    for _ in range(trials):
        plane = ControlPlane(server, plan=plan, jobs=jobs)
        t0 = time.perf_counter()
        report = plane.run_rollout(FLEET_SPEC_V2, n_devices)
        elapsed = time.perf_counter() - t0
        if not report.ok or report.devices_attempted != n_devices:
            raise AssertionError("streamed fleet rollout failed to complete")
        best = elapsed if best is None else min(best, elapsed)
    shutdown_pools()
    return n_devices / best


def _measure_conformance(trials: int = 2) -> float:
    """Best-of-N crash-schedule throughput (schedules checked per
    second) of a POR-enabled bound-2 exploration of the fleet OTA
    scenario. Guards the partial-order reduction: a pruning regression
    multiplies the schedule count, and a runner slowdown divides the
    rate — both surface here."""
    from repro.verify.workloads import get_scenario

    scenario = get_scenario("ota", "artemis")
    best: Optional[float] = None
    for _ in range(trials):
        t0 = time.perf_counter()
        report = scenario.explorer().explore(bound=2, budget=400,
                                             stop_on_first=False, por=True)
        elapsed = time.perf_counter() - t0
        if not report.ok or report.truncated:
            raise AssertionError(
                "conformance benchmark scenario failed or truncated")
        best = elapsed if best is None else min(best, elapsed)
    return report.schedules_checked / best


def _measure_predict(trials: int = 5, repeats: int = 20) -> float:
    """Best-of-N static-analysis throughput (monitors bounded per
    second): full ``analyze()`` passes — machine generation, dispatch
    tables, path-sensitive worst-case transition scans, per-path
    budgets, and the non-termination predicate — over the health
    benchmark's property set."""
    from repro.analysis import analyze
    from repro.spec.validator import load_properties
    from repro.workloads.health import (
        BENCHMARK_SPEC,
        build_health_app,
        health_power_model,
    )

    app = build_health_app()
    props = load_properties(BENCHMARK_SPEC, app)
    power = health_power_model()
    n_monitors = len(analyze(app, props, power).monitors)
    best: Optional[float] = None
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(repeats):
            analyze(app, props, power)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return repeats * n_monitors / best


def _measure_tl(trials: int = 5, n_props: int = 200) -> float:
    """Best-of-N temporal-frontend throughput (emitted monitors per
    second): parse and validate an ``n_props``-property past-time MTL
    spec, then compile it through the shared-subformula planner. The
    spec's properties recur over a small pool of stateful subformulas,
    so the whole frontend is on the path — lexer, formula parser,
    rewriter, hash-consing, and sub-monitor emission."""
    from repro.core.generator import build_monitor_plan
    from repro.spec.validator import load_properties
    from repro.taskgraph.builder import AppBuilder

    tasks = ("A", "B", "C")
    windows = ("0, 5s", "0, 30s", "0, 2min")
    lines: Dict[str, list] = {t: [] for t in tasks}
    for i in range(n_props):
        anchor, dep = tasks[i % 3], tasks[(i + 1) % 3]
        variant = i % 4
        if variant == 0:
            f = f"started({anchor}) -> once ended({dep})"
        elif variant == 1:
            f = f"once[{windows[i % 3]}] ended({dep})"
        elif variant == 2:
            f = f"not ended({anchor}) since ended({dep})"
        else:
            f = (f"once ended({dep}) and "
                 f"(not ended({anchor}) since ended({dep}))")
        lines[anchor].append(
            f"    temporal: {f} at: {'start' if i % 2 else 'end'} "
            f"label: p{i} onFail: skipPath Path: 1;")
    source = "\n\n".join(
        f"{task}: {{\n" + "\n".join(props) + "\n}"
        for task, props in lines.items()) + "\n"
    builder = AppBuilder("tl-bench")
    for t in tasks:
        builder.task(t)
    app = builder.path(1, list(tasks)).build()

    best: Optional[float] = None
    plan = None
    for _ in range(trials):
        t0 = time.perf_counter()
        props = load_properties(source, app)
        plan = build_monitor_plan(props)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    if plan.shared_monitors >= plan.naive_monitors:
        raise AssertionError("subformula sharing produced no savings")
    return plan.shared_monitors / best


def collect_metrics() -> Dict[str, float]:
    """Run the whole measurement suite; returns metric name -> value."""
    generated = _measure_engine("generated")
    interpreted = _measure_engine("interpreted")
    metrics: Dict[str, float] = {
        "engine_generated_events_per_s": generated,
        "engine_interpreted_events_per_s": interpreted,
        "dispatch_us_per_event": 1e6 / generated,
    }
    metrics.update(_measure_sweep())
    metrics["fleet_devices_per_s"] = _measure_fleet()
    metrics["batched_devices_per_s"] = _measure_batched_fleet()
    metrics["streamed_devices_per_s"] = _measure_streamed()
    metrics["conformance_schedules_per_s"] = _measure_conformance()
    metrics["predict_monitors_per_s"] = _measure_predict()
    metrics["tl_monitors_per_s"] = _measure_tl()
    return metrics


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def baseline_path_for_today() -> Path:
    """``BENCH_<today>.json``, or the first free ``BENCH_<today>b.json``,
    ``c``, ... when today already has one: a recorded baseline is never
    overwritten, and the newest still sorts last."""
    today = datetime.date.today().isoformat()
    for suffix in ("", *string.ascii_lowercase[1:]):
        path = BENCH_DIR / f"BENCH_{today}{suffix}.json"
        if not path.exists():
            return path
    raise RuntimeError(f"no free baseline name left for {today}")


def latest_baseline() -> Optional[Path]:
    """Newest committed ``BENCH_*.json``, by the date in the name."""
    candidates = sorted(BENCH_DIR.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def write_baseline(metrics: Dict[str, float],
                   path: Optional[Path] = None) -> Path:
    path = path or baseline_path_for_today()
    doc = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path) -> Dict[str, float]:
    doc = json.loads(path.read_text())
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path} has no 'metrics' table")
    return metrics


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def compare(baseline: Dict[str, float], current: Dict[str, float],
            tolerance: float = 0.15) -> Tuple[bool, List[Tuple[str, str]]]:
    """Compare current metrics against a baseline.

    Returns ``(ok, report_lines)`` where each report line is
    ``(status, text)`` with status one of ``ok`` / ``FAIL`` / ``info``.
    An enforced metric fails when it is worse than the baseline by more
    than ``tolerance`` (relative); better-than-baseline never fails.
    """
    ok = True
    lines: List[Tuple[str, str]] = []
    for name, direction in METRIC_DIRECTIONS.items():
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None:
            lines.append(("info", f"{name}: no baseline value"))
            continue
        if direction == "info" or base == 0:
            lines.append(("info", f"{name}: {base:.4g} -> {cur:.4g}"))
            continue
        change = (cur - base) / base
        worse = -change if direction == "higher" else change
        status = "FAIL" if worse > tolerance else "ok"
        if status == "FAIL":
            ok = False
        lines.append((status,
                      f"{name}: {base:.4g} -> {cur:.4g} "
                      f"({change:+.1%}, {direction} is better, "
                      f"tolerance {tolerance:.0%})"))
    return ok, lines


def main(argv: Optional[List[str]] = None,
         collect: Callable[[], Dict[str, float]] = collect_metrics) -> int:
    parser = argparse.ArgumentParser(
        description="measure engine performance and compare against the "
                    "newest BENCH_<date>.json baseline")
    parser.add_argument("--write", action="store_true",
                        help="record a new dated baseline instead of "
                             "comparing")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="explicit baseline file (default: newest "
                             "benchmarks/BENCH_*.json)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    args = parser.parse_args(argv)

    metrics = collect()
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.4g}")

    if args.write:
        path = write_baseline(metrics)
        print(f"baseline written: {path}")
        return 0

    baseline_file = args.baseline or latest_baseline()
    if baseline_file is None or not baseline_file.exists():
        print("no baseline found; record one with --write", file=sys.stderr)
        return 2
    baseline = load_baseline(baseline_file)
    print(f"comparing against {baseline_file.name} "
          f"(tolerance {args.tolerance:.0%})")
    ok, lines = compare(baseline, metrics, tolerance=args.tolerance)
    for status, text in lines:
        print(f"  [{status}] {text}")
    print("PASS" if ok else "REGRESSION DETECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
