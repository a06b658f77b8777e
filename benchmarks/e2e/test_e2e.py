"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import compare
import layers
import run

E2E_DIR = Path(__file__).resolve().parent


def _run(*args: str, cwd: Path = run.REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks/e2e/run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


# ---------------------------------------------------------------------------
# The manifest, the metric tables and what a run emits
# ---------------------------------------------------------------------------


def test_manifest_lists_every_layer_metric():
    assert run.manifest_units("per_layer") == list(layers.LAYER_METRICS)


@pytest.fixture(scope="module")
def traced_quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    proc = _run("--quick", "--seconds", "0.5", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (result_file,) = out.glob("*.json")
    return proc.stdout.splitlines(), json.loads(result_file.read_text())


def test_every_metric_is_emitted_with_its_unit(traced_quick_run):
    lines, doc = traced_quick_run
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    units = dict(layers.LAYER_METRICS)
    assert final["metrics"] == {
        f"{w}/{name}": {"value": doc["workloads"][w]["layers"][name],
                        "unit": units[name]}
        for w in run.workload_names() for name, _ in layers.LAYER_METRICS}
    listed = [name for name, _ in run.manifest_units("end_to_end")]
    for workload in run.workload_names():
        record = doc["workloads"][workload]
        expected = [m for m in run.metrics() if m.applies_to(workload)
                    and m.name != "report_p99_s"]
        if workload == "fleet-streamed":  # quick runs time < 1000 reports
            assert any("report_p99_s left out" in n for n in record["notes"])
        assert sorted(record["metrics"]) == sorted(m.name for m in expected)
        for metric in expected:
            value = record["metrics"][metric.name]
            assert value["unit"] == metric.unit
            assert any(line.startswith(f"{workload} {metric.name} ")
                       and f" {metric.unit} n=" in line for line in lines)
            if metric.name in listed:
                assert value["value"] > 0
        assert record["metrics"]["failed_frac"]["value"] == 0
        # Full sizes leave under 7% unattributed; at quick sizes the
        # control plane's fixed event-loop cost alone reaches 10%. A
        # layer moved out from under its probes shows far above both.
        assert record["layers"]["other.self_s"] <= \
            0.25 * record["layers"]["trace.cpu_s"]


def test_single_workload_prints_the_contract_line(tmp_path):
    proc = _run("--quick", "--seconds", "0.5", "--workload", "fleet-lockstep",
                "--seed", "3", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["attempted"] >= 1
    assert final["metrics"].keys() == {
        name for name, _ in run.manifest_units("end_to_end")}
    for name, entry in final["metrics"].items():
        assert entry["unit"] == run.metric(name).unit


def test_p99_needs_a_thousand_samples():
    def metrics(latencies):
        measured = {"peak_rss_mb": 30.0, "iterations": [
            {"items": 10, "wall_s": 2.0,
             "samples": {"report_latency_s": latencies, "halt_s": [0.5]}},
            {"items": 10, "wall_s": 1.0, "samples": {"halt_s": [0.4]}}]}
        return run.workload_metrics("fleet-streamed", [1.0, 3.0, 2.0],
                                    measured, 100, 0)

    values, notes = metrics([0.01 * i for i in range(1, 1001)])
    assert values["report_p99_s"]["n"] == 1000 and notes == []
    assert values["report_p99_s"]["value"] > values["report_p50_s"]["value"]
    assert values["items_per_s"]["value"] == 10.0  # the fastest iteration
    assert values["halt_s"]["value"] == 0.4
    assert values["setup_s"]["value"] == 2.0  # median of the children
    values, notes = metrics([0.01] * 999)
    assert "report_p99_s" not in values and "999" in notes[0]


def test_differing_outputs_fail_their_iteration():
    def it(digest):
        return {"digest": digest, "ops": 4, "failed": 0, "problems": []}

    results = [{"warmup": it("w"), "iterations": []},
               {"warmup": it("w"), "iterations": [it("a"), it("a")]},
               {"warmup": it("x"), "iterations": [it("b")]}]
    run.check_digests(results)
    assert [r["warmup"]["failed"] for r in results] == [0, 0, 4]
    assert [i["failed"] for r in results for i in r["iterations"]] \
        == [0, 0, 4]
    assert "differ" in results[2]["iterations"][0]["problems"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.MANIFEST_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run("--quick", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_self_time_is_kept_per_thread():
    """Two threads interleave inside nested spans; a fake per-thread
    clock makes every self time exact. A shared span stack would
    subtract one thread's children from the other's spans."""
    clock_state = threading.local()

    def clock():
        return getattr(clock_state, "t", 0.0)

    def spend(seconds):
        clock_state.t = clock() + seconds

    mod = types.ModuleType("e2e_synthetic")

    def leaf(seconds):
        spend(seconds)

    def middle():
        spend(1.0)
        mod.leaf(2.0)
        spend(0.5)

    def outer(barrier):
        spend(3.0)
        barrier.wait(timeout=10)
        mod.middle()
        barrier.wait(timeout=10)
        mod.leaf(4.0)

    mod.leaf, mod.middle, mod.outer = leaf, middle, outer
    sys.modules[mod.__name__] = mod
    probes = (layers.Probe("e2e_synthetic:outer", "outer.self_s",
                           "outer.calls", inclusive="outer.total_s"),
              layers.Probe("e2e_synthetic:middle", "middle.self_s"),
              layers.Probe("e2e_synthetic:leaf", "leaf.self_s", "leaf.calls"))
    tracer = layers.Tracer(clock)
    installation = layers.install(tracer, probes)
    try:
        barrier = threading.Barrier(2)
        threads = [threading.Thread(target=mod.outer, args=(barrier,))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        installation.restore()
        del sys.modules[mod.__name__]
    values = tracer.values()
    assert values["outer.self_s"] == 2 * 3.0
    assert values["middle.self_s"] == 2 * 1.5
    assert values["leaf.self_s"] == 2 * (2.0 + 4.0)
    assert values["outer.total_s"] == 2 * 10.5
    assert (values["outer.calls"], values["leaf.calls"]) == (2, 4)
    assert mod.outer is outer and mod.leaf is leaf


def _wrappers_left() -> list:
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, layers.MARKER):
                    found.append(f"{name}.{attr}")
    return found


def test_wrappers_are_restored_after_a_traced_pass():
    import workloads

    probes = layers.SPAN_PROBES + layers.PARENT_PROBES
    workload = workloads.make_workload("fleet-streamed", 0, quick=True)
    reference = workload.iterate(1).digest
    originals = {p.target: layers._resolve(p.target)[2] for p in probes}

    it, span_pass = layers.traced(layers.SPAN_PROBES,
                                  lambda: workload.iterate(1))
    assert it.digest == reference
    assert span_pass.values["nvm.writes"] > 0
    assert span_pass.values["runtime.iterations"] > 0
    try:
        it, parent_pass = layers.traced(
            layers.PARENT_PROBES, lambda: workload.iterate(workloads.JOBS))
    finally:
        workloads.pool.shutdown_pools()
    assert it.digest == reference
    assert parent_pass.values["queue.puts"] > 0

    def boom():
        raise RuntimeError("body failed")

    with pytest.raises(RuntimeError):
        layers.traced(probes, boom)
    assert {p.target: layers._resolve(p.target)[2] for p in probes} \
        == originals
    assert _wrappers_left() == []


# ---------------------------------------------------------------------------
# compare.py
# ---------------------------------------------------------------------------


def _runs(values, start=0, step=2, workload="sweep-grid",
          metric="items_per_s", failed=None):
    failed = failed or [0] * len(values)
    return [{"created_utc": f"2026-01-01T00:{start + i * step:04d}",
             "workloads": {workload: {"attempted": 100, "failed": f,
                                      "metrics": {metric: {"value": v}}}}}
            for i, (v, f) in enumerate(zip(values, failed))]


def _verdict(base, new, metric="items_per_s"):
    rows = compare.compare_sets(_runs(base, metric=metric),
                                _runs(new, metric=metric))
    (row,) = [row for row in rows if row.metric.name == metric]
    return row.verdict


def _failed_verdict(base_failed, new_failed):
    rows = compare.compare_sets(
        _runs([100] * len(base_failed), failed=base_failed),
        _runs([100] * len(new_failed), failed=new_failed))
    (row,) = [row for row in rows if row.metric.name == "failed_frac"]
    return row.verdict


def test_compare_verdicts():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert _verdict(base, [v * 0.95 for v in base]) == "ok"
    assert _verdict(base, [v * 0.7 for v in base]) == "regressed"
    noisy = [50, 150, 70, 130, 100, 60, 140, 100, 80, 120]
    assert _verdict(noisy, base) == "unresolved"
    assert _verdict(noisy, [200] * 10) == "ok"  # every new run is better
    assert _verdict([2.0, 2.02, 1.98], [2.1, 2.12, 2.08], "setup_s") == "ok"
    assert _verdict([2.0, 2.02, 1.98], [2.8, 2.9, 2.7], "setup_s") \
        == "regressed"


def test_compare_counts_every_failed_operation():
    assert _failed_verdict([0] * 5, [0] * 5) == "ok"
    assert _failed_verdict([0] * 5, [0] * 4 + [20]) == "regressed"
    assert _failed_verdict([5] * 5, [5] * 5) == "ok"
    assert _failed_verdict([5] * 5, [0] * 5) == "ok"
    crashed = _runs([100] * 5)
    del crashed[2]["workloads"]["sweep-grid"]["attempted"]
    del crashed[2]["workloads"]["sweep-grid"]["failed"]
    assert compare.failed_share(crashed, "sweep-grid") > 0


def _claim(base, new, new_first_every_other=True, new_failed=None):
    base_runs = _runs(base, start=0, step=4)
    new_runs = _runs(new, start=1, step=4, failed=new_failed)
    if new_first_every_other:  # swap the order inside every other pair
        for i in range(1, len(base), 2):
            base_runs[i]["created_utc"], new_runs[i]["created_utc"] = \
                new_runs[i]["created_utc"], base_runs[i]["created_utc"]
    return compare.check_claim(base_runs, new_runs, "sweep-grid",
                               "items_per_s")


def test_compare_claim_rule():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert _claim(base, [v + 10 for v in base])[0]
    assert not _claim(base, [v + 10 for v in base],
                      new_first_every_other=False)[0]
    assert not _claim(base[:9], [v + 10 for v in base[:9]])[0]
    two_losses = [v + 10 for v in base[:8]] + [90, 90]
    assert not _claim(base, two_losses)[0]
    assert not _claim(base, [v + 1.5 for v in base])[0]  # gap < base IQR
    met, why = _claim(base, [v + 10 for v in base],
                      new_failed=[0] * 9 + [1])
    assert not met and "failed" in why


def test_compare_cli_exit_status(tmp_path):
    for side, values in (("base", [100, 101, 99]), ("new", [60, 61, 59])):
        (tmp_path / side).mkdir()
        for i, run_doc in enumerate(_runs(values)):
            (tmp_path / side / f"{i}.json").write_text(json.dumps(run_doc))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "base")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 1
