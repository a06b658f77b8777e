"""Tests for the benchmark-regression harness (benchmarks/regression.py).

The harness is a script, not a package module, so it is loaded by file
path. Measurements are injected through ``main``'s ``collect`` hook —
these tests never run the (slow, machine-dependent) real suite.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGRESSION_PY = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "regression.py")


@pytest.fixture(scope="module")
def regression():
    spec = importlib.util.spec_from_file_location("bench_regression",
                                                  _REGRESSION_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOOD = {
    "engine_generated_events_per_s": 50_000.0,
    "engine_interpreted_events_per_s": 40_000.0,
    "dispatch_us_per_event": 20.0,
    "cache_speedup": 25.0,
    "cache_hit_rate": 1.0,
    "streamed_devices_per_s": 20.0,
    "parallel_vs_serial": 0.9,
    "sweep_serial_s": 1.0,
    "sweep_parallel_s": 0.5,
    "sweep_cache_warm_s": 0.04,
}


class TestCompare:
    def test_identical_metrics_pass(self, regression):
        ok, _ = regression.compare(GOOD, dict(GOOD), tolerance=0.15)
        assert ok

    def test_injected_20pct_regression_fails(self, regression):
        current = dict(GOOD)
        current["engine_generated_events_per_s"] *= 0.80  # 20% slower
        ok, lines = regression.compare(GOOD, current, tolerance=0.15)
        assert not ok
        failing = [text for status, text in lines if status == "FAIL"]
        assert any("engine_generated_events_per_s" in t for t in failing)

    def test_lower_is_better_direction(self, regression):
        current = dict(GOOD)
        current["dispatch_us_per_event"] *= 1.25  # 25% more per-event cost
        ok, _ = regression.compare(GOOD, current, tolerance=0.15)
        assert not ok

    def test_within_tolerance_passes(self, regression):
        current = dict(GOOD)
        current["engine_generated_events_per_s"] *= 0.90  # 10% < 15%
        ok, _ = regression.compare(GOOD, current, tolerance=0.15)
        assert ok

    def test_improvement_never_fails(self, regression):
        current = {k: v * 10 for k, v in GOOD.items()}
        current["dispatch_us_per_event"] = GOOD["dispatch_us_per_event"] / 10
        ok, _ = regression.compare(GOOD, current, tolerance=0.15)
        assert ok

    def test_informational_metrics_cannot_fail(self, regression):
        current = dict(GOOD)
        current["parallel_vs_serial"] = 0.01   # terrible, but info-only
        current["sweep_serial_s"] = 100.0
        ok, lines = regression.compare(GOOD, current, tolerance=0.15)
        assert ok
        assert any(status == "info" and "parallel_vs_serial" in text
                   for status, text in lines)


class TestMainAndBaselines:
    def test_write_then_compare_roundtrip(self, regression, tmp_path, capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        regression.write_baseline(dict(GOOD), path=baseline)
        assert regression.load_baseline(baseline) == GOOD
        code = regression.main(["--baseline", str(baseline)],
                               collect=lambda: dict(GOOD))
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_main_exits_nonzero_on_regression(self, regression, tmp_path,
                                              capsys):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        regression.write_baseline(dict(GOOD), path=baseline)
        regressed = dict(GOOD)
        regressed["engine_generated_events_per_s"] *= 0.75
        code = regression.main(["--baseline", str(baseline)],
                               collect=lambda: regressed)
        assert code == 1
        assert "REGRESSION DETECTED" in capsys.readouterr().out

    def test_main_exits_2_without_baseline(self, regression, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(regression, "BENCH_DIR", tmp_path)
        code = regression.main([], collect=lambda: dict(GOOD))
        assert code == 2

    def test_latest_baseline_picks_newest_date(self, regression, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(regression, "BENCH_DIR", tmp_path)
        for name in ("BENCH_2026-01-01.json", "BENCH_2026-03-05.json",
                     "BENCH_2026-02-28.json"):
            (tmp_path / name).write_text(json.dumps({"metrics": GOOD}))
        assert regression.latest_baseline().name == "BENCH_2026-03-05.json"

    def test_second_baseline_of_a_day_gets_a_new_name(self, regression,
                                                      tmp_path, monkeypatch):
        monkeypatch.setattr(regression, "BENCH_DIR", tmp_path)
        first = regression.write_baseline(dict(GOOD))
        second = regression.write_baseline(dict(GOOD))
        assert first.exists() and second.exists()
        assert second.name == first.name.replace(".json", "b.json")
        assert regression.latest_baseline() == second

    def test_wider_tolerance_accepts_the_same_delta(self, regression,
                                                    tmp_path):
        baseline = tmp_path / "BENCH_2026-01-01.json"
        regression.write_baseline(dict(GOOD), path=baseline)
        regressed = dict(GOOD)
        regressed["engine_generated_events_per_s"] *= 0.80
        assert regression.main(["--baseline", str(baseline)],
                               collect=lambda: regressed) == 1
        assert regression.main(["--baseline", str(baseline),
                                "--tolerance", "0.30"],
                               collect=lambda: regressed) == 0

    def test_committed_baseline_exists_and_parses(self, regression):
        """The repo carries at least one dated baseline for CI to
        compare against."""
        newest = regression.latest_baseline()
        assert newest is not None, "no benchmarks/BENCH_*.json committed"
        metrics = regression.load_baseline(newest)
        for name, direction in regression.METRIC_DIRECTIONS.items():
            assert name in metrics, f"baseline missing {name}"
