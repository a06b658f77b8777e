#!/usr/bin/env python3
"""Million-device staged rollout through the lockstep batched core.

Ships the benign FLEET_SPEC_V2 update to 1,000,000 simulated devices in
three waves (1% canary, 10%, everyone), then re-runs the rollout with
the deliberately regressing spec to show the canary wave halting at
fleet scale. The fleet uses ``per_cohort`` seeding — devices within an
energy class are byte-identical — which is exactly the homogeneous
shape :class:`repro.sim.batch.BatchFleetCore` amortizes: each wave is
a range of device ids and each cohort a stride of it, one scalar
representative runs per cohort per rollout (in the canary; the 10% and
100% waves reuse its row, since a cohort's row does not depend on which
member represents it; the next rollout runs its own), and a weighted
per-cohort telemetry rollup reports the big waves. Nothing is
simulated, listed or stored per device beyond the expanded canary.

Run:  python examples/megafleet_demo.py [n_devices]
"""

import sys
import time

from repro.fleet.server import (
    FLEET_SPEC_REGRESSING,
    FLEET_SPEC_V2,
    FleetServer,
    RolloutPlan,
)

N_DEVICES = 1_000_000


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else N_DEVICES
    server = FleetServer()
    plan = RolloutPlan(
        waves=(0.01, 0.1, 1.0),
        runs=2,
        max_time_s=4 * 3600.0,
        max_reboots=200,
        lockstep=True,
        seed_mode="per_cohort",
        # Expand the canary wave to real per-device telemetry; keep the
        # big waves as compact per-cohort rollups.
        expand_limit=max(1000, n // 100),
    )

    print(f"== benign update (v2) to {n:,} devices ==")
    t0 = time.time()
    report = server.rollout(FLEET_SPEC_V2, n, plan=plan)
    dt = time.time() - t0
    print(report.describe())
    print(f"-> {dt:.1f}s wall = {n / dt:,.0f} devices/s "
          f"({len(report.waves)} waves, ok={report.ok})")

    print(f"\n== regressing update to {n:,} devices ==")
    t0 = time.time()
    bad = server.rollout(FLEET_SPEC_REGRESSING, n, plan=plan)
    dt = time.time() - t0
    print(bad.describe())
    blast = bad.devices_attempted
    print(f"-> halted={bad.halted} at wave {bad.halted_wave}; "
          f"blast radius {blast:,}/{n:,} devices "
          f"({dt:.1f}s wall)")
    return 0 if report.ok and bad.halted else 1


if __name__ == "__main__":
    sys.exit(main())
