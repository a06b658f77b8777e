"""Tests for the parallel sweep engine and its result cache.

Covers the engine's three contracts: parallel tables are byte-identical
to serial ones, failures name the offending grid point, and cached rows
can never outlive the code or configuration that produced them.

The sweeps here are portable (module-level callables and partials):
a sweep with lambdas or closures runs serially even with ``parallel``
set, so a closure sweep would compare serial with serial.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.sim.experiments import Sweep, SweepPointError, metric_action_count
from repro.sim.pool import (
    ResultCache,
    portable,
    run_sweep,
    sweep_fingerprint,
)
from repro.workloads.health import build_artemis, make_intermittent_device


def _build(point):
    device = make_intermittent_device(point["delay_s"])
    return device, build_artemis(device)


def _build_seeded(point):
    device = make_intermittent_device(point["delay_s"] + point["seed"])
    return device, build_artemis(device)


def _completed(dev, res):
    return res.completed


def _scaled_time(scale, dev, res):
    return round(res.total_time_s * scale, 6)


def _reboots(dev, res):
    return res.reboots


def make_sweep(delays=(30.0, 60.0), seeds=(0,), scale=1.0):
    """A small portable health-workload sweep; ``scale`` is a partial
    argument of a metric, so two sweeps can be made to fingerprint
    differently."""
    return Sweep(
        factors={"delay_s": list(delays), "seed": list(seeds)},
        build=_build_seeded,
        metrics={
            "completed": _completed,
            "time_s": functools.partial(_scaled_time, scale),
            "reboots": _reboots,
        },
        max_time_s=4 * 3600.0,
    )


def closure_sweep(scale):
    """The same sweep with a closure metric capturing ``scale``."""
    return Sweep(
        factors={"delay_s": [30.0]},
        build=_build,
        metrics={"time_s": lambda dev, res: res.total_time_s * scale},
        max_time_s=4 * 3600.0,
    )


class ScaledTime:
    """A callable-object metric; ``scale`` is instance state."""

    def __init__(self, scale):
        self.scale = scale

    def __call__(self, dev, res):
        return round(res.total_time_s * self.scale, 6)


def object_sweep(scale):
    return Sweep(
        factors={"delay_s": [30.0]},
        build=_build,
        metrics={"time_s": ScaledTime(scale)},
        max_time_s=4 * 3600.0,
    )


def cross_process_sweep():
    """A partial metric, and one whose function holds a generator
    expression (a nested code object)."""
    sweep = make_sweep(scale=2.0)
    sweep.metrics["skips"] = metric_action_count("skipPath")
    return sweep


class Builder:
    """A bound-method build; ``delay_s`` is instance state."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def build(self, point):
        return _build({"delay_s": self.delay_s})


def _two_args(a, b, dev, res):
    return a + b


def metric_sweep(metric, build=_build):
    return Sweep(factors={"delay_s": [30.0]}, build=build,
                 metrics={"m": metric}, max_time_s=4 * 3600.0)


def _build_fails_at_60(point):
    if point["delay_s"] == 60.0:
        raise ValueError("bad delay")
    return _build_seeded(point)


def _dead_build(point):
    raise RuntimeError(f"dead {point['x']}")


def _always_true(dev, res):
    return True


def table_bytes(rows):
    return json.dumps(rows, sort_keys=True).encode()


class TestDeterminism:
    def test_parallel_matches_serial_byte_identical_across_seeds(self):
        """Sweep.run(parallel=4) returns the very same table as serial
        execution, for three different replication seeds."""
        for seed in (0, 1, 2):
            sweep = make_sweep(delays=(30.0, 60.0, 90.0), seeds=(seed,))
            assert portable(sweep)  # else parallel=4 would run serially
            serial = sweep.run()
            parallel = sweep.run(parallel=4)
            assert table_bytes(parallel) == table_bytes(serial), (
                f"seed {seed}: parallel table differs"
            )

    def test_row_order_is_grid_order(self):
        sweep = make_sweep(delays=(90.0, 30.0, 60.0))
        rows = sweep.run(parallel=4)
        assert [r["delay_s"] for r in rows] == [90.0, 30.0, 60.0]

    def test_parallel_one_equals_plain_run(self):
        sweep = make_sweep()
        assert sweep.run(parallel=1) == sweep.run()


class TestErrorAttribution:
    def test_build_failure_names_the_point(self):
        def build(point):
            if point["x"] == 3:
                raise ValueError("boom at three")
            return _build({"delay_s": 30.0})

        sweep = Sweep(factors={"x": [1, 2, 3]}, build=build,
                      metrics={"ok": lambda d, r: r.completed},
                      max_time_s=60.0)
        with pytest.raises(SweepPointError) as err:
            sweep.run()
        assert err.value.stage == "build"
        assert err.value.point == {"x": 3}
        assert "x=3" in str(err.value)
        assert "boom at three" in str(err.value)

    def test_metric_failure_names_the_metric_and_point(self):
        sweep = Sweep(
            factors={"delay_s": [30.0]},
            build=_build,
            metrics={"bad": lambda d, r: 1 / 0},
            max_time_s=60.0,
        )
        with pytest.raises(SweepPointError) as err:
            sweep.run()
        assert err.value.stage == "metric"
        assert "bad" in str(err.value)
        assert "delay_s=30.0" in str(err.value)

    def test_parallel_failure_reports_first_grid_point(self):
        sweep = Sweep(factors={"x": [5, 6, 7]}, build=_dead_build,
                      metrics={"ok": _always_true}, max_time_s=60.0)
        with pytest.raises(SweepPointError) as err:
            sweep.run(parallel=2)
        assert err.value.point == {"x": 5}


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        sweep = make_sweep()
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(sweep, cache=cache)
        assert cache.hits == 0 and cache.misses == len(first)
        second = run_sweep(sweep, cache=cache)
        assert second == first
        assert cache.hits == len(first)
        assert cache.hit_rate == 0.5  # half the lookups were the cold run

    def test_cache_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = make_sweep()
        rows = sweep.run(cache=True)
        assert (tmp_path / ".repro_cache").is_dir()
        assert sweep.run(cache=True) == rows

    def test_non_roundtrippable_rows_are_not_cached(self, tmp_path):
        sweep = Sweep(
            factors={"delay_s": [30.0]},
            build=_build,
            metrics={"obj": lambda d, r: object()},  # not JSON-able
            max_time_s=60.0,
        )
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache)
        assert not list((tmp_path / "cache").rglob("*.json"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_point_keeps_the_other_rows(self, tmp_path, jobs):
        """Every point runs; the rows that succeed are cached before the
        first failure is raised, so dropping the bad level reruns
        nothing."""
        sweep = make_sweep(delays=(30.0, 60.0, 90.0))
        sweep.build = _build_fails_at_60
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SweepPointError) as err:
            run_sweep(sweep, jobs=jobs, cache=cache)
        assert err.value.point == {"delay_s": 60.0, "seed": 0}
        sweep.factors["delay_s"] = [30.0, 90.0]
        warm = ResultCache(tmp_path / "cache")
        rows = run_sweep(sweep, jobs=jobs, cache=warm)
        assert warm.hits == 2 and warm.misses == 0
        assert rows == sweep.run()

    def test_rejects_bogus_cache_argument(self):
        with pytest.raises(ReproError):
            make_sweep().run(cache=12345)


_FINGERPRINT_SCRIPT = """
from repro.sim.pool import sweep_fingerprint
from tests.test_parallel_sweep import cross_process_sweep
print(sweep_fingerprint(cross_process_sweep()))
"""


class TestCacheInvalidation:
    def test_fingerprint_changes_with_metric_closure(self):
        assert (sweep_fingerprint(closure_sweep(1.0))
                != sweep_fingerprint(closure_sweep(2.0)))

    def test_fingerprint_covers_partial_arguments(self):
        assert (sweep_fingerprint(make_sweep(scale=1.0))
                != sweep_fingerprint(make_sweep(scale=2.0)))
        by_keyword = make_sweep()
        by_keyword.metrics["time_s"] = functools.partial(_scaled_time,
                                                         scale=1.0)
        other = make_sweep()
        other.metrics["time_s"] = functools.partial(_scaled_time, scale=2.0)
        assert sweep_fingerprint(by_keyword) != sweep_fingerprint(other)

    def test_fingerprint_covers_callable_object_state(self):
        assert (sweep_fingerprint(object_sweep(1.0))
                != sweep_fingerprint(object_sweep(2.0)))
        assert (sweep_fingerprint(object_sweep(1.0))
                == sweep_fingerprint(object_sweep(1.0)))

    def test_fingerprint_separates_adjacent_fields(self):
        """Arguments and constants are hashed field by field, not run
        together: ``(1, 23)`` and ``(12, 3)`` must not collide."""
        assert (sweep_fingerprint(metric_sweep(
                    functools.partial(_two_args, 1, 23)))
                != sweep_fingerprint(metric_sweep(
                    functools.partial(_two_args, 12, 3))))
        assert (sweep_fingerprint(metric_sweep(
                    lambda d, r: r.total_time_s * 12 + 3))
                != sweep_fingerprint(metric_sweep(
                    lambda d, r: r.total_time_s * 1 + 23)))

    def test_fingerprint_covers_bound_method_instance(self):
        assert (sweep_fingerprint(metric_sweep(
                    _completed, build=Builder(30.0).build))
                != sweep_fingerprint(metric_sweep(
                    _completed, build=Builder(60.0).build)))
        assert (sweep_fingerprint(metric_sweep(
                    _completed, build=Builder(30.0).build))
                == sweep_fingerprint(metric_sweep(
                    _completed, build=Builder(30.0).build)))

    def test_fingerprint_stable_across_processes(self):
        """A cache shared between runs only hits if two interpreters
        fingerprint the same sweep alike: nothing process-specific (a
        function's address) may leak into the hash."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        prints = {
            subprocess.run(
                [sys.executable, "-c", _FINGERPRINT_SCRIPT], env=env,
                cwd=root, capture_output=True, text=True, timeout=120,
                check=True).stdout.strip()
            for _ in range(2)
        }
        assert prints == {sweep_fingerprint(cross_process_sweep())}

    def test_fingerprint_changes_with_run_budget(self):
        a, b = make_sweep(), make_sweep()
        b.max_time_s = 123.0
        assert sweep_fingerprint(a) != sweep_fingerprint(b)

    def test_fingerprint_stable_for_equivalent_sweeps(self):
        assert (sweep_fingerprint(make_sweep())
                == sweep_fingerprint(make_sweep()))

    def test_poisoned_entry_is_ignored_after_code_change(self, tmp_path):
        """A stale (even maliciously wrong) cached row cannot survive a
        change to the sweep's code: the key includes the code
        fingerprint, so the changed sweep never reads the old entry."""
        cache_dir = tmp_path / "cache"
        sweep_v1 = make_sweep(scale=1.0)
        cache = ResultCache(cache_dir)
        truth_v1 = run_sweep(sweep_v1, cache=cache)

        # Poison every v1 entry in place with an absurd row.
        poisoned = {"completed": False, "time_s": -1.0, "reboots": 999,
                    "delay_s": 0.0, "seed": 0}
        poisoned_count = 0
        for path in cache_dir.rglob("*.json"):
            path.write_text(json.dumps({"format": 1, "row": poisoned}))
            poisoned_count += 1
        assert poisoned_count == len(truth_v1)

        # Same sweep, same fingerprint: the poison IS served — that is
        # what content-addressing means (the store is trusted).
        replay = run_sweep(sweep_v1, cache=ResultCache(cache_dir))
        assert all(row == poisoned for row in replay)

        # Changed code (a different metric partial argument): every key
        # changes, the poisoned rows are unreachable, and the sweep
        # recomputes the truth.
        sweep_v2 = make_sweep(scale=2.0)
        fresh = run_sweep(sweep_v2, cache=ResultCache(cache_dir))
        assert all(row != poisoned for row in fresh)
        assert fresh == sweep_v2.run()

    def test_torn_cache_entry_is_a_miss(self, tmp_path):
        sweep = make_sweep()
        cache_dir = tmp_path / "cache"
        run_sweep(sweep, cache=ResultCache(cache_dir))
        for path in cache_dir.rglob("*.json"):
            path.write_text('{"format": 1, "row"')  # truncated JSON
        cache = ResultCache(cache_dir)
        rows = run_sweep(sweep, cache=cache)
        assert rows == sweep.run()
        assert cache.hits == 0

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(make_sweep(), cache=cache)
        assert cache.clear() > 0
        assert not list((tmp_path / "cache").rglob("*.json"))
