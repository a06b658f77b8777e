"""Fleet OTA throughput: staged-rollout devices per second.

Times a full staged rollout (benign v2, three waves, paired controls)
over a heterogeneous fleet and reports devices simulated per wall-clock
second — the capacity number that says how large a fleet the rollout
harness can evaluate per CI minute. Each rollout device is simulated
twice (treatment + control), so the metric counts device-*simulations*
per second divided by two: it is directly "fleet devices evaluated per
second".

``REPRO_BENCH_JOBS=N`` shards each wave's sweep across N worker
processes, same as every other benchmark in this harness.
"""

import os
import time

from conftest import print_table, run_once

from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan

DEVICES = int(os.environ.get("REPRO_FLEET_DEVICES", "48"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")


def _measure():
    server = FleetServer()
    plan = RolloutPlan(waves=(0.1, 0.5, 1.0), runs=2, loss_rate=0.02, seed=0)
    t0 = time.perf_counter()
    report = server.rollout(FLEET_SPEC_V2, DEVICES, plan=plan, jobs=JOBS)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_fleet_rollout_throughput(benchmark):
    report, elapsed = run_once(benchmark, _measure)
    assert report.ok and report.devices_attempted == DEVICES
    devices_per_s = DEVICES / elapsed
    summary = report.summary
    print_table(
        f"Staged rollout throughput ({DEVICES} devices, jobs={JOBS})",
        ["metric", "value"],
        [
            ["devices", DEVICES],
            ["waves", len(report.waves)],
            ["wall_s", f"{elapsed:.2f}"],
            ["devices_per_s", f"{devices_per_s:.2f}"],
            ["installed", summary.outcomes.get("installed", 0)],
            ["rollbacks", summary.rollbacks],
            ["chunks_lost", summary.chunks_lost],
            ["radio_mJ", f"{summary.radio_energy_mj:.2f}"],
            ["regression_delta", f"{summary.regression_delta:.3f}"],
        ],
    )
    # Capacity floor: even serial on a busy CI box the harness clears
    # a couple of devices per second at runs=2.
    assert devices_per_s > 0.5


BATCH_DEVICES = int(os.environ.get("REPRO_BATCH_DEVICES", "1000"))


def _measure_batched():
    server = FleetServer()
    plan = RolloutPlan(waves=(0.1, 0.5, 1.0), runs=2, loss_rate=0.02,
                       seed=0, lockstep=True, seed_mode="per_cohort",
                       expand_limit=0)
    t0 = time.perf_counter()
    report = server.rollout(FLEET_SPEC_V2, BATCH_DEVICES, plan=plan,
                            jobs=JOBS)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_batched_fleet_rollout_throughput(benchmark):
    """Lockstep cohort-core rollout. ``REPRO_BATCH_DEVICES``
    scales the fleet (CI runs 1k blocking and 100k non-blocking) and
    ``REPRO_BENCH_JOBS`` runs the cohort representatives on that many
    pool workers (CI: 2); the floor is the single-core acceptance bar,
    derated for busy CI boxes at the small default fleet where the
    fixed per-cohort representative cost dominates."""
    report, elapsed = run_once(benchmark, _measure_batched)
    assert report.ok and report.devices_attempted == BATCH_DEVICES
    devices_per_s = BATCH_DEVICES / elapsed
    summary = report.summary
    print_table(
        f"Batched rollout throughput ({BATCH_DEVICES} devices, lockstep, "
        f"jobs={JOBS})",
        ["metric", "value"],
        [
            ["devices", BATCH_DEVICES],
            ["waves", len(report.waves)],
            ["wall_s", f"{elapsed:.2f}"],
            ["devices_per_s", f"{devices_per_s:.0f}"],
            ["installed", summary.outcomes.get("installed", 0)],
            ["rollbacks", summary.rollbacks],
            ["chunks_lost", summary.chunks_lost],
            ["regression_delta", f"{summary.regression_delta:.3f}"],
        ],
    )
    assert devices_per_s > 100
