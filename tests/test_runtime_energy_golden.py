"""Golden digests of the four runtimes on harvested power.

:mod:`tests.test_runtime_goldens` runs every runtime on continuous
power, where brown-outs are placed by an injector and the harvester,
capacitor and charging search never run. Here the same runtimes (its
``_build``: frozen sensors, burst-dropout faults and a retry policy
with a per-retry energy surcharge) run on harvested devices and brown
out organically, when the capacitor drains below its cutoff. A paired
treated and control fleet device run on the literal trace too. Every
case writes one line to ``tests/goldens/runtime_energy.txt``: the same
digest of trace records, :class:`~repro.sim.result.RunResult`, NVM
fingerprint and access log, then the reboot count and the exact
charging time.

The energy sources are a fixed charging delay with a drifting
persistent clock, a looping :class:`~repro.energy.harvester.TraceHarvester`
over a literal sample list (zero-power stretches and a duplicated
sample time included) and a :class:`~repro.energy.harvester.PeriodicOutageHarvester`.
None goes through libm: the RF-mobility generator's ``distance ** 2``
would, so it is not used. A change to any payment, any harvested or
consumed joule, any charging wait or any durable access shows up as a
changed line. To accept an intended change, regenerate the file::

    PYTHONPATH=src python -m pytest tests/test_runtime_energy_golden.py --update-goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from repro.energy.capacitor import Capacitor
from repro.energy.environment import EnergyEnvironment, default_capacitor
from repro.energy.harvester import PeriodicOutageHarvester, TraceHarvester
from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan
from repro.nvm.accesslog import AccessLog
from repro.sim.device import Device

from tests.test_runtime_goldens import RUNTIMES, _build

GOLDEN = Path(__file__).resolve().parent / "goldens" / "runtime_energy.txt"

SEEDS = (0, 1)
RUNS = 2
MAX_TIME_S = 7200.0

#: One 300-s loop of ``(time, watts)``: it starts dark and has a second
#: dark stretch, a weak one that cannot carry the costliest task, and a
#: duplicated sample time (the later sample holds from that instant).
LITERAL_TRACE = (
    (0.0, 0.0),
    (10.0, 1.8e-3),
    (30.0, 0.0),
    (75.0, 0.7e-3),
    (75.0, 2.5e-3),
    (110.0, 0.4e-3),
    (160.0, 0.0),
    (200.0, 3.0e-3),
    (240.0, 0.9e-3),
    (300.0, 0.9e-3),
)


def _capacitor(runtime: str) -> Capacitor:
    # The checkpoint program draws under 1 mJ in its runs, so on the
    # default 15-mJ store it would never brown out; this one holds
    # about 0.43 mJ per charge cycle.
    if runtime == "checkpoint":
        return Capacitor(capacitance=1.5e-4, v_initial=3.0)
    return default_capacitor()


def _device(runtime: str, source: str, seed: int) -> Device:
    capacitor = _capacitor(runtime)
    if source == "delay60":
        return Device(EnergyEnvironment.for_charging_delay(60.0, capacitor),
                      clock_error=0.05, seed=seed)
    if source == "trace":
        harvester = TraceHarvester(LITERAL_TRACE, loop=True)
    else:
        harvester = PeriodicOutageHarvester(1.5e-3, on_s=0.4, off_s=1.0)
    return Device(EnergyEnvironment(harvester=harvester, capacitor=capacitor))


SOURCES = ("delay60", "trace", "outage")


def _digest(device: Device, log: AccessLog, result) -> str:
    digest = hashlib.sha256()
    for event in device.trace:
        digest.update(repr((event.t, event.kind, event.detail)).encode())
    digest.update(repr(dataclasses.asdict(result)).encode())
    digest.update(repr(device.nvm.state_fingerprint()).encode())
    for e in log:
        digest.update(repr((e.op, e.cell, e.value_sig, e.epoch, e.region,
                            e.via, e.detail)).encode())
    return digest.hexdigest()[:32]


def _line(label: str, device: Device, log: AccessLog, result) -> str:
    env = device.env
    return (f"{label} {_digest(device, log, result)} "
            f"completed={result.completed} reboots={result.reboots} "
            f"charge_time_s={result.charge_time_s!r} "
            f"harvested_j={env.total_harvested_j!r} "
            f"consumed_j={env.total_consumed_j!r}")


def run_case(runtime: str, source: str, seed: int):
    """Run one runtime case; returns (golden line, RunResult)."""
    device = _device(runtime, source, seed)
    log = AccessLog()
    device.nvm.attach_access_log(log)
    result = device.run(_build(runtime, device, seed), runs=RUNS,
                        max_time_s=MAX_TIME_S)
    return _line(f"{runtime} {source} seed={seed}", device, log,
                 result), result


class _LiteralTraceServer(FleetServer):
    """A fleet server whose every device harvests the literal trace."""

    @staticmethod
    def make_device(energy_class, rf_seed=None):
        return Device(EnergyEnvironment(
            harvester=TraceHarvester(LITERAL_TRACE, loop=True),
            capacitor=default_capacitor()))


def run_fleet_case(arm: str):
    """Run the treated or control fleet device on the literal trace."""
    server = _LiteralTraceServer()
    plan = RolloutPlan()
    wire = server.encode_update(FLEET_SPEC_V2, 2) if arm == "treated" else None
    device, runtime = server.build_device(3, wire, 2, plan)
    log = AccessLog()
    device.nvm.attach_access_log(log)
    result = device.run(runtime, runs=plan.runs, max_time_s=plan.max_time_s,
                        max_reboots=plan.max_reboots)
    return _line(f"fleet {arm} trace", device, log, result), result


def _lines():
    lines, reboots = [], {}
    for runtime in RUNTIMES:
        for source in SOURCES:
            for seed in SEEDS:
                line, result = run_case(runtime, source, seed)
                lines.append(line)
                key = (runtime, source)
                reboots[key] = reboots.get(key, 0) + result.reboots
    for arm in ("treated", "control"):
        line, result = run_fleet_case(arm)
        lines.append(line)
        reboots[("fleet", arm)] = result.reboots
    return lines, reboots


def test_harvested_runtime_digests_match_golden(request):
    lines, reboots = _lines()
    # Every runtime browns out organically on every source, or the
    # golden would not pin its charging search.
    assert all(count > 0 for count in reboots.values()), reboots
    text = "\n".join(lines) + "\n"
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(text)
        return
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; generate it with "
        f"pytest {__file__} --update-goldens")
    assert text == GOLDEN.read_text()
