"""End-to-end system benchmark: four workloads, each in its own processes.

::

    python3 benchmarks/e2e/run.py --seed 0                    # all workloads
    python3 benchmarks/e2e/run.py --seed 0 --workload sweep-grid --trace
    python3 benchmarks/e2e/run.py --quick --seconds 1         # smoke sizes

For each workload this starts :data:`SETUPS` child processes one after
another (``workloads.py``). Each child imports the package, builds the
workload, forks the worker pool and runs one untimed warm-up iteration
at the warm-up size; ``setup_s`` is the median time from starting a
child to the end of its warm-up. The last child then runs the timed
closed loop. With ``--trace`` one more child runs the traced passes and
the per-layer table is printed.

Every end-to-end metric is printed as ``workload metric value unit``,
every output check is applied, a dated result file is written under
``--out`` (never overwritten), and the last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace``. The exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"

FLEET = ("fleet-streamed", "fleet-lockstep")

#: Child processes per workload; ``setup_s`` is their median set-up time.
SETUPS = 5

#: Wall-clock limit for one workload, all its children included.
WORKLOAD_LIMIT_S = 170.0

#: Samples a 99th percentile needs: ten beyond it.
P99_MIN_SAMPLES = 1000


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric. ``bound`` is the share of the base median
    by which it may worsen; for ``failed_frac`` it is absolute.
    ``workloads`` names the workloads it applies to (``None``: all)."""

    name: str
    unit: str
    better: str
    bound: float
    workloads: Optional[Tuple[str, ...]] = None

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


@functools.lru_cache(maxsize=None)
def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``, read on first use."""
    return json.loads(MANIFEST_PATH.read_text())


def workload_names() -> Tuple[str, ...]:
    return tuple(w["name"] for w in manifest()["workloads"])


@functools.lru_cache(maxsize=None)
def metrics() -> Tuple[Metric, ...]:
    """The manifest's end-to-end metrics, which every run reports, then
    the ones recorded beside them: those of some workloads only, and
    ``failed_frac``, which is zero on a correct run (the JSON line
    carries it as the ``failed`` count). Wall-clock times among the
    latter share the bound of the manifest's ``items_per_s``."""
    listed = tuple(Metric(m["name"], m["unit"], m["better"], m["bound"])
                   for m in manifest()["end_to_end"])
    time_bound = next(m.bound for m in listed if m.name == "items_per_s")
    return listed + (
        Metric("failed_frac", "fraction", "lower", 0.0),
        Metric("halt_s", "s", "lower", time_bound, FLEET),
        Metric("report_p50_s", "s", "lower", time_bound,
               ("fleet-streamed",)),
        Metric("report_p99_s", "s", "lower", time_bound,
               ("fleet-streamed",)),
    )


def metric(name: str) -> Metric:
    return next(m for m in metrics() if m.name == name)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildRun:
    setup_s: Optional[float]
    result: Optional[Dict[str, Any]]
    error: str = ""


def run_child(spec: Dict[str, Any], deadline: float) -> ChildRun:
    """Start one child, time it to ``READY``, collect its ``RESULT``.

    The child gets its own session so that on a timeout the whole group
    (its pool workers included) is killed; it is always waited for.
    """
    cmd = [sys.executable, str(E2E_DIR / "workloads.py"), json.dumps(spec)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=REPO_ROOT, start_new_session=True)
    setup_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error = ""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    error = "timed out"
                    break
                if not selector.select(remaining):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("READY"):
                    setup_s = time.perf_counter() - started
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
                else:
                    sys.stderr.write(line)
    finally:
        if error:
            _kill_group(proc.pid)
        proc.wait()
        proc.stdout.close()
        _kill_group(proc.pid)  # stragglers, should a worker outlive it
    if not error and (proc.returncode != 0 or result is None):
        error = f"child exited with status {proc.returncode}"
    return ChildRun(setup_s, None if error else result, error)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# Checks and metrics from the children's records
# ---------------------------------------------------------------------------


def check_digests(results: Sequence[Dict[str, Any]]) -> None:
    """Fail every iteration whose outputs differ from the others'.

    Warm-up iterations are compared across child processes; full-size
    iterations across the timed loop and the traced passes, so the
    ``jobs=1`` passes check the streamed-vs-inline and serial-vs-pooled
    contracts. A failed iteration counts all its operations as failed.
    """
    warmups = [result["warmup"] for result in results]
    full = [it for result in results for it in result["iterations"]]
    for group, what in ((warmups, "warm-up"), (full, "full-size")):
        reference = next((it["digest"] for it in group if not it["failed"]),
                         None)
        for it in group:
            if not it["failed"] and it["digest"] != reference:
                it["failed"] = it["ops"]
                it["problems"].append(f"{what} outputs differ from another "
                                      f"iteration's or child process's")


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def workload_metrics(name: str, setups: List[float],
                     measured: Dict[str, Any], attempted: int,
                     failed: int) -> Tuple[Dict[str, Dict[str, Any]],
                                           List[str]]:
    """Every metric that applies to workload ``name``, as
    ``{metric: {"value", "unit", "n"}}`` (``n`` = samples behind it),
    and notes on metrics left out.

    Iteration times are taken at the fastest iteration of the run: the
    host's speed drops by up to 1.7x for seconds to minutes at a time,
    and the fastest iteration repeats best across runs (README.md).
    """
    iterations = measured["iterations"]
    samples: Dict[str, List[float]] = {}
    for it in iterations:
        for key, values in it["samples"].items():
            samples.setdefault(key, []).extend(values)
    rates = [it["items"] / it["wall_s"] for it in iterations if it["wall_s"]]
    values: Dict[str, Tuple[float, int]] = {
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (measured["peak_rss_mb"], 1),
        "items_per_s": (max(rates, default=0.0), len(rates)),
        "failed_frac": (failed / attempted if attempted else 1.0, attempted),
    }
    if "halt_s" in samples:
        values["halt_s"] = (min(samples["halt_s"]), len(samples["halt_s"]))
    notes = []
    latencies = samples.get("report_latency_s")
    if latencies:
        values["report_p50_s"] = (statistics.median(latencies),
                                  len(latencies))
        if len(latencies) >= P99_MIN_SAMPLES:
            values["report_p99_s"] = (percentile(latencies, 99),
                                      len(latencies))
        else:
            notes.append(f"report_p99_s left out: {len(latencies)} report "
                         f"latencies, fewer than {P99_MIN_SAMPLES}")
    out = {m.name: {"value": values[m.name][0], "unit": m.unit,
                    "n": values[m.name][1]}
           for m in metrics() if m.applies_to(name) and m.name in values}
    return out, notes


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """All children of one workload; returns its result-file record."""
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    base = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "quick": args.quick, "p99_samples": P99_MIN_SAMPLES}
    modes = ["setup"] * (SETUPS - 1) + ["measure"] + (
        ["trace"] if args.trace else [])
    runs = [run_child(dict(base, mode=mode), deadline) for mode in modes]
    problems = [f"{mode} child: {run.error}"
                for mode, run in zip(modes, runs) if run.error]
    record: Dict[str, Any] = {"problems": problems}
    if problems:
        return record
    results = [run.result for run in runs]
    check_digests(results)
    attempted = failed = 0
    for result in results:
        for it in [result["warmup"]] + result["iterations"]:
            attempted += it["ops"]
            failed += it["failed"]
            problems.extend(it["problems"])
    measured = results[SETUPS - 1]
    setups = [run.setup_s for run in runs[:SETUPS]]
    values, notes = workload_metrics(name, setups, measured, attempted,
                                     failed)
    record.update({
        "sizes": measured["sizes"], "seed_used": measured["seed_used"],
        "jobs": measured["jobs"], "setup_samples_s": setups,
        "warmups": [result["warmup"] for result in results],
        "iterations": measured["iterations"],
        "attempted": attempted, "failed": failed,
        "metrics": values, "notes": notes,
    })
    if args.trace:
        traced = results[-1]
        record.update({"layers": traced["layers"], "spans": traced["spans"],
                       "trace_iterations": traced["iterations"]})
    return record


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=REPO_ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return out.stdout.strip() if out.returncode == 0 else "nogit"


def write_result(doc: Dict[str, Any], out_dir: Path) -> Path:
    """``<UTC timestamp>-<git short sha>.json``; never overwrites."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{doc['created_utc'].replace(':', '')}-{doc['git']}"
    for suffix in [""] + [f"-{i}" for i in range(1, 100)]:
        path = out_dir / f"{stem}{suffix}.json"
        try:
            with open(path, "x", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.write("\n")
            return path
        except FileExistsError:
            continue
    raise FileExistsError(f"no free result file name for {stem}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def manifest_units(section: str) -> List[Tuple[str, str]]:
    return [(entry["name"], entry["unit"]) for entry in manifest()[section]]


def main(argv: Optional[List[str]] = None) -> int:
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"run.py: needs the repository checkout (src/repro under "
              f"{REPO_ROOT})", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workload_names(),
                        action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest()["run_seconds"]),
                        help="timed loop length per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced passes")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--out", type=Path, default=E2E_DIR / "results",
                        help="directory for the dated result file")
    args = parser.parse_args(argv)
    names = args.workload or list(workload_names())

    doc: Dict[str, Any] = {
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        "git": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "trace": bool(args.trace), "setups": SETUPS, "workloads": {},
    }
    correct = True
    attempted = failed = 0
    final: Dict[str, Dict[str, Any]] = {}
    for name in names:
        record = run_workload(name, args)
        doc["workloads"][name] = record
        for problem in record["problems"]:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
        if "metrics" not in record:
            correct = False
            continue
        for note in record["notes"]:
            print(f"{name} note: {note}", file=sys.stderr)
        correct = correct and not record["problems"] and not record["failed"]
        attempted += record["attempted"]
        failed += record["failed"]
        for metric, m in record["metrics"].items():
            print(f"{name} {metric} {_fmt(m['value'])} {m['unit']} "
                  f"n={m['n']}")
        if args.trace:
            values = record["layers"]
            units = manifest_units("per_layer")
            for metric, unit in units:
                print(f"{name} {metric} {_fmt(values[metric])} {unit}")
        else:
            values = {m: v["value"] for m, v in record["metrics"].items()}
            units = manifest_units("end_to_end")
        prefix = f"{name}/" if len(names) > 1 else ""
        final.update({prefix + m: {"value": values[m], "unit": unit}
                      for m, unit in units})
    if not final:
        return 1
    path = write_result(doc, args.out)
    print(f"result file: {path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
