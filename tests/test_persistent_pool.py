"""Persistent worker-pool tests: correctness, reuse, shared-memory
transport, worker-death recovery, and sweep-strategy parity
(:mod:`repro.sim.pool`)."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import pool as pool_module
from repro.sim.experiments import Sweep, SweepPointError
from repro.sim.pool import (
    PersistentPool,
    PoolError,
    PoolItemError,
    ResultCache,
    get_pool,
    run_sweep,
    shutdown_pools,
)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="persistent pool needs the fork start method")


# ---------------------------------------------------------------------------
# Module-level (picklable) tasks
# ---------------------------------------------------------------------------


def square(x):
    return x * x


def failing_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x + 1


class CrashOnce:
    """Kills its worker process the first time it sees the magic item;
    the marker file makes the crash one-shot so the re-queued chunk
    succeeds on retry."""

    def __init__(self, marker_dir, crash_item=7):
        self.marker_dir = marker_dir
        self.crash_item = crash_item

    def __call__(self, x):
        if x == self.crash_item:
            marker = os.path.join(self.marker_dir, f"crashed-{x}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                os._exit(17)
            except FileExistsError:
                pass
        return x * 10


class CrashAlways:
    def __call__(self, x):
        if x == 2:
            os._exit(9)
        return x


class ShmTask:
    """Fixed two-field row through the shared-memory table."""

    shm_row_size = 2

    def __call__(self, x):
        return {"a": float(x), "b": float(x) / 2.0}

    @staticmethod
    def encode_row(row):
        return [row["a"], row["b"]]

    @staticmethod
    def decode_row(values):
        return {"a": values[0], "b": values[1]}


# Portable sweep pieces (no closures) for strategy parity tests.
def _sweep_build(point):
    from repro.workloads.health import make_continuous_device
    from repro.workloads.health import build_artemis, build_health_app
    device = make_continuous_device()
    runtime = build_artemis(device, app=build_health_app())
    return device, runtime


def _sweep_metric_time(device, result):
    return result.total_time_s


def _sweep_metric_completed(device, result):
    return result.completed


def make_portable_sweep(n=4):
    return Sweep(
        factors={"idx": list(range(n))},
        build=_sweep_build,
        metrics={"time_s": _sweep_metric_time,
                 "completed": _sweep_metric_completed},
        runs=1,
    )


@pytest.fixture(autouse=True)
def fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


@fork_only
class TestPersistentPoolBasics:
    def test_results_in_item_order(self):
        pool = PersistentPool(jobs=3)
        try:
            assert pool.run(square, list(range(20))) == \
                [x * x for x in range(20)]
        finally:
            pool.close()

    def test_empty_run_and_validation(self):
        pool = PersistentPool(jobs=2)
        try:
            assert pool.run(square, []) == []
        finally:
            pool.close()
        with pytest.raises(PoolError):
            PersistentPool(jobs=0)

    def test_workers_forked_once_across_runs(self):
        pool = PersistentPool(jobs=2)
        try:
            pool.run(square, list(range(8)))
            forks_after_first = pool.forks
            for _ in range(3):
                pool.run(square, list(range(8)))
            assert pool.forks == forks_after_first == 2
            assert pool.alive_workers == 2
        finally:
            pool.close()

    def test_on_result_streams_every_item(self):
        pool = PersistentPool(jobs=2)
        seen = {}
        try:
            pool.run(square, list(range(10)),
                     on_result=lambda slot, value: seen.__setitem__(slot,
                                                                    value))
        finally:
            pool.close()
        assert seen == {i: i * i for i in range(10)}

    def test_error_attribution(self):
        pool = PersistentPool(jobs=2)
        try:
            with pytest.raises(PoolError, match="three"):
                pool.run(failing_on_three, [1, 2, 3, 4])
        finally:
            pool.close()

    def test_return_errors_mode(self):
        pool = PersistentPool(jobs=2)
        try:
            results = pool.run(failing_on_three, [1, 2, 3, 4],
                               return_errors=True)
        finally:
            pool.close()
        assert results[0] == 2 and results[1] == 3 and results[3] == 5
        assert isinstance(results[2], PoolItemError)
        with pytest.raises(PoolError, match="three"):
            raise results[2].to_exception(3)

    def test_closed_pool_rejects_work(self):
        pool = PersistentPool(jobs=2)
        pool.run(square, [1])
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolError):
            pool.run(square, [1])


@fork_only
class TestSharedMemoryTransport:
    def test_rows_return_through_the_table(self):
        pool = PersistentPool(jobs=2)
        streamed = []
        try:
            rows = pool.run(ShmTask(), list(range(12)),
                            on_result=lambda s, v: streamed.append((s, v)))
        finally:
            pool.close()
        assert rows == [{"a": float(x), "b": x / 2.0} for x in range(12)]
        assert dict(streamed) == {i: rows[i] for i in range(12)}


@fork_only
class TestWorkerDeathRecovery:
    def test_crashed_worker_restarts_and_chunk_retries(self, tmp_path):
        pool = PersistentPool(jobs=2)
        try:
            task = CrashOnce(str(tmp_path), crash_item=7)
            rows = pool.run(task, list(range(12)), chunk_size=3,
                            timeout=60.0)
            assert rows == [x * 10 for x in range(12)]
            assert pool.restarts >= 1
            assert pool.alive_workers == 2
            # The pool is still healthy for subsequent runs.
            assert pool.run(square, [5]) == [25]
        finally:
            pool.close()

    def test_poison_chunk_fails_after_retry_budget(self):
        pool = PersistentPool(jobs=2, max_chunk_retries=2)
        try:
            with pytest.raises(PoolError, match="crashed its worker"):
                pool.run(CrashAlways(), list(range(6)), chunk_size=6,
                         timeout=60.0)
        finally:
            pool.close()

    def test_no_restart_policy_raises_when_all_workers_die(self):
        pool = PersistentPool(jobs=1, restart=False)
        try:
            with pytest.raises(PoolError):
                pool.run(CrashAlways(), [2], timeout=60.0)
        finally:
            pool.close()


@fork_only
class TestSharedPoolRegistry:
    def test_get_pool_reuses_and_survives_shutdown(self):
        a = get_pool(2)
        assert get_pool(2) is a
        assert get_pool(3) is not a
        shutdown_pools()
        b = get_pool(2)
        assert b is not a
        assert b.run(square, [3]) == [9]


_REFORK_SCRIPT = """\
from repro.sim.pool import get_pool, shutdown_pools


class Rows:
    shm_row_size = 1

    def __call__(self, x):
        return float(x)

    @staticmethod
    def encode_row(row):
        return [row]

    @staticmethod
    def decode_row(values):
        return values[0]


for _ in range(3):
    assert get_pool(2).run(Rows(), range(16)) == [float(x) for x in range(16)]
    shutdown_pools()
"""


@fork_only
class TestResourceTracker:
    def test_reforked_pools_print_no_tracker_tracebacks(self):
        """Workers share the parent's resource tracker, so the
        shared-memory tables they write to stay registered until the
        parent unlinks them; otherwise that unlink makes the tracker
        print a KeyError traceback once pools are forked again."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _REFORK_SCRIPT], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


class TestSweepStrategies:
    def test_portable_sweep_identical_across_strategies(self):
        sweep = make_portable_sweep(4)
        serial = run_sweep(sweep, jobs=1, strategy="serial")
        assert serial and all("time_s" in row for row in serial)
        if "fork" in multiprocessing.get_all_start_methods():
            persistent = run_sweep(sweep, jobs=2, strategy="persistent")
            auto = run_sweep(sweep, jobs=2)
            assert persistent == serial
            assert auto == serial

    def test_unknown_strategy_rejected(self):
        for strategy in ("warp", "fork"):  # the fork pool is gone
            with pytest.raises(Exception, match="unknown pool strategy"):
                run_sweep(make_portable_sweep(2), jobs=2, strategy=strategy)

    @fork_only
    def test_closure_sweep_runs_serially(self):
        offset = 5  # captured by the metric: a closure does not pickle
        sweep = Sweep(
            factors={"idx": [0, 1]},
            build=lambda p: _sweep_build(p),
            metrics={"time_s": lambda d, r: r.total_time_s + offset * 0},
            runs=1,
        )
        rows = run_sweep(sweep, jobs=2)  # auto -> in-process
        assert not pool_module._POOLS  # no pool was created
        assert rows == run_sweep(sweep, jobs=1, strategy="serial")
        with pytest.raises(PoolError, match="not portable"):
            run_sweep(sweep, jobs=2, strategy="persistent")

    def test_warm_cache_needs_no_pool(self, tmp_path, monkeypatch):
        """``persistent`` only needs ``fork`` when a point is left to
        run: a fully cached table comes back on any platform."""
        sweep = make_portable_sweep(2)
        cache = ResultCache(tmp_path / "cache")
        rows = run_sweep(sweep, jobs=1, cache=cache, strategy="serial")
        monkeypatch.setattr(pool_module, "_fork_available", lambda: False)
        assert run_sweep(sweep, jobs=2, cache=cache,
                         strategy="persistent") == rows
        with pytest.raises(PoolError, match="fork"):
            run_sweep(sweep, jobs=2, cache=ResultCache(tmp_path / "cold"),
                      strategy="persistent")

    def test_sweep_point_error_attribution_preserved(self):
        sweep = Sweep(
            factors={"idx": [0, 1]},
            build=_sweep_build,
            metrics={"boom": _metric_boom},
            runs=1,
        )
        with pytest.raises(SweepPointError) as err:
            run_sweep(sweep, jobs=1, strategy="serial")
        assert err.value.stage == "metric"
        if "fork" in multiprocessing.get_all_start_methods():
            with pytest.raises(SweepPointError) as err:
                run_sweep(sweep, jobs=2, strategy="persistent")
            assert err.value.stage == "metric"


def _metric_boom(device, result):
    raise RuntimeError("boom")
