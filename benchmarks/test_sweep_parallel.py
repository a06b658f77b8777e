"""Parallel experiment engine: sweep wall-clock microbenchmark.

Times the same health-workload sweep three ways — serial, the
persistent worker pool, and replayed from a warm result cache — and
asserts the engine's contracts: every table is byte-identical to the
serial one and the warm cache beats serial by at least 2x.

The pool-vs-serial number is printed but not asserted: on a
single-core box any pool loses to serial (no parallel hardware to pay
for the IPC). That workers fork once, not per call, is checked by
``tests/test_persistent_pool.py::TestPersistentPoolBasics::test_workers_forked_once_across_runs``.
See ``docs/performance.md``.
"""

import json
import multiprocessing
import os
import time

from conftest import print_table, run_once

from repro.sim.experiments import Sweep
from repro.sim.pool import ResultCache, run_sweep, shutdown_pools
from repro.workloads.health import build_artemis, make_intermittent_device

JOBS = 4
DELAYS_S = [30.0, 60.0, 90.0, 120.0, 180.0, 240.0, 300.0, 360.0]
CAP_S = 4 * 3600.0

fork_available = "fork" in multiprocessing.get_all_start_methods()


# Module-level (picklable) so the persistent pool can ship the sweep to
# its long-lived workers.
def _build(point):
    device = make_intermittent_device(point["delay_s"])
    return device, build_artemis(device)


def _metric_completed(dev, res):
    return res.completed


def _metric_time_s(dev, res):
    return round(res.total_time_s, 6)


def _metric_energy_mj(dev, res):
    return round(res.total_energy_j * 1e3, 6)


def _metric_reboots(dev, res):
    return res.reboots


def _sweep() -> Sweep:
    return Sweep(
        factors={"delay_s": DELAYS_S},
        build=_build,
        metrics={
            "completed": _metric_completed,
            "time_s": _metric_time_s,
            "energy_mJ": _metric_energy_mj,
            "reboots": _metric_reboots,
        },
        max_time_s=CAP_S,
    )


def _best_of(n, fn):
    best = None
    rows = None
    for _ in range(n):
        t0 = time.perf_counter()
        rows = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def _measure(tmp_path):
    sweep = _sweep()

    serial_s, serial_rows = _best_of(
        2, lambda: run_sweep(sweep, jobs=1, strategy="serial"))

    persistent_s = None
    persistent_rows = serial_rows
    if fork_available:
        # Three runs so the steady state (workers already forked)
        # dominates the minimum.
        persistent_s, persistent_rows = _best_of(
            3, lambda: run_sweep(sweep, jobs=JOBS, strategy="persistent"))
        shutdown_pools()

    cache = ResultCache(tmp_path / "cache")
    run_sweep(sweep, jobs=1, cache=cache)  # cold run populates
    cache.hits = cache.misses = 0
    t0 = time.perf_counter()
    cached_rows = run_sweep(sweep, jobs=1, cache=cache)
    warm_s = time.perf_counter() - t0

    return {
        "serial_rows": serial_rows,
        "persistent_rows": persistent_rows,
        "cached_rows": cached_rows,
        "serial_s": serial_s,
        "persistent_s": persistent_s,
        "warm_s": warm_s,
        "hit_rate": cache.hit_rate,
    }


def test_parallel_and_cached_sweeps_match_serial(benchmark, tmp_path):
    m = run_once(benchmark, lambda: _measure(tmp_path))
    rows = [("serial", f"{m['serial_s']:.3f}", "1.00x")]
    if fork_available:
        rows.append((f"persistent({JOBS})", f"{m['persistent_s']:.3f}",
                     f"{m['serial_s'] / m['persistent_s']:.2f}x"))
    rows.append(("cache-warm", f"{m['warm_s']:.4f}",
                 f"{m['serial_s'] / m['warm_s']:.2f}x"))
    print_table(
        f"Sweep engine: {len(DELAYS_S)} points, jobs={JOBS}, "
        f"host cores={os.cpu_count()}",
        ["mode", "wall (s)", "speedup vs serial"],
        rows,
    )
    print(f"cache hit rate: {m['hit_rate']:.0%}")

    # Contract: identical tables, to the byte.
    serial_bytes = json.dumps(m["serial_rows"], sort_keys=True)
    assert json.dumps(m["persistent_rows"], sort_keys=True) == serial_bytes
    assert json.dumps(m["cached_rows"], sort_keys=True) == serial_bytes
    assert m["hit_rate"] == 1.0
    # Contract: a warm cache short-circuits the simulations entirely.
    assert m["serial_s"] / m["warm_s"] >= 2.0, (
        f"warm cache only {m['serial_s'] / m['warm_s']:.2f}x faster"
    )
