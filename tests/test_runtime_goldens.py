"""Golden digests of the four runtimes under brown-outs and sensor faults.

ARTEMIS, Mayfly, Chain and the checkpoint runtime each run on the
continuous-power device of a :class:`~repro.sim.faults.FailRandomly`
injector at a few brown-out rates, with burst-dropout sensor faults
(checkpoint: a block that raises :class:`~repro.errors.PeripheralError`
from a seeded RNG) and a :class:`~repro.core.retry.RetryPolicy` with
backoff and a per-retry energy surcharge. Every case writes one line to
``tests/goldens/runtime_faults.txt``: a digest of the trace records,
the :class:`~repro.sim.result.RunResult`, the NVM state fingerprint and
the NVM access log, followed by the retry, watchdog-trip and reboot
counts. A change to any payment, durable write or trace record of the
retry, watchdog and escalation paths shows up as a changed line.

Sensors are frozen to their t=0 constants, so no libm result reaches a
digest. To accept an intended change, regenerate the file::

    PYTHONPATH=src python -m pytest tests/test_runtime_goldens.py --update-goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

from repro.baselines.chain import ChainRuntime
from repro.baselines.mayfly import Collection, Expiration, MayflyConfig, MayflyRuntime
from repro.checkpoint.program import Block, CheckpointProgram
from repro.checkpoint.runtime import CheckpointRuntime
from repro.core.retry import RetryPolicy
from repro.core.runtime import ArtemisRuntime
from repro.energy.power import PowerModel
from repro.errors import PeripheralError
from repro.nvm.accesslog import AccessLog
from repro.peripherals import BurstDropout, PeripheralSet
from repro.sim.faults import FailRandomly
from repro.spec.validator import load_properties
from repro.verify.workloads import VERIFY_HEALTH_SPEC, _freeze_sensors
from repro.workloads.health import build_health_app, health_power_model

GOLDEN = Path(__file__).resolve().parent / "goldens" / "runtime_faults.txt"

RUNTIMES = ("artemis", "mayfly", "chain", "checkpoint")
SEEDS = (0, 1, 2)
#: Per-payment brown-out probabilities.
BROWNOUT_RATES = (0.02, 0.06, 0.12)
#: Sensors whose reads fail in bursts, with the burst length: ``ppg``
#: feeds ``heartRate`` (no property guards it) and its bursts outlast
#: the attempt budget; ``accelerometer`` feeds ``accel`` (maxTries
#: guards it), and a lone burst there is retried to success. So ARTEMIS
#: escalates both ways, and every runtime also clears a counter.
FLAKY_SENSORS = (("ppg", 3), ("accelerometer", 2))
DROPOUT_RATE = 0.35
RUNS = 3


def _policy(seed: int) -> RetryPolicy:
    return RetryPolicy(max_attempts=3, backoff_base_s=2e-3,
                       backoff_factor=2.0, jitter_frac=0.1,
                       retry_energy_j=2e-5, seed=seed)


def _power() -> PowerModel:
    # The health costs, with an overhead draw unlike the checkpoint
    # runtime's and a nonzero commit step, so the golden also pins the
    # power and duration of every overhead payment.
    base = health_power_model()
    return PowerModel({task: base.cost_of(task) for task in base.task_names()},
                      overhead_power_w=0.5e-3, commit_step_s=2e-5)


def _peripherals(app, seed: int) -> PeripheralSet:
    peripherals = PeripheralSet(app.sensors)
    for offset, (sensor, burst) in enumerate(FLAKY_SENSORS):
        peripherals.attach(sensor, BurstDropout(
            rate=DROPOUT_RATE, seed=100 + 10 * seed + offset,
            burst_length=burst))
    return peripherals


def _need_two_temps(ctx):
    # Chain's hand-rolled collect: 2.
    if len(ctx.read("temps", [])) < 2:
        return "restart_path"
    return None


def _checkpoint_program(seed: int) -> CheckpointProgram:
    rng = random.Random(100 + seed)

    def sense(state):
        if rng.random() < 0.5:
            raise PeripheralError("adc_temp", "dropout")
        state.setdefault("temps", []).append(36.6)

    def avg(state):
        temps = state.get("temps", [])
        state["avgTemp"] = sum(temps) / len(temps) if temps else 0.0

    def send(state):
        state.setdefault("sent", []).append(state.get("avgTemp"))

    return CheckpointProgram(
        "faulty",
        blocks=[
            Block("sense1", 0.05, body=sense),
            Block("sense2", 0.05, body=sense),
            Block("avg", 0.08, body=avg),
            Block("send", 0.30, 1.0e-3, body=send),
        ],
        checkpoint_after=["sense1", "avg", "send"],
    )


def _build(runtime: str, device, seed: int):
    if runtime == "checkpoint":
        return CheckpointRuntime(_checkpoint_program(seed), device,
                                 retry_policy=_policy(seed))
    app = _freeze_sensors(build_health_app())
    peripherals = _peripherals(app, seed)
    power = _power()
    if runtime == "artemis":
        return ArtemisRuntime(
            app, load_properties(VERIFY_HEALTH_SPEC, app), device, power,
            audit_capacity=16 if seed % 2 else 0, peripherals=peripherals,
            retry_policy=_policy(seed))
    if runtime == "mayfly":
        config = MayflyConfig(
            expirations=[Expiration("send", "accel", 300.0, path=2)],
            collections=[Collection("calcAvg", "bodyTemp", 2, path=1),
                         Collection("send", "micSense", 1, path=3)],
        )
        return MayflyRuntime(app, config, device, power,
                             peripherals=peripherals,
                             retry_policy=_policy(seed))
    return ChainRuntime(app, {"calcAvg": _need_two_temps}, device, power,
                        peripherals=peripherals, retry_policy=_policy(seed))


def run_case(runtime: str, seed: int, p: float):
    """Run one case; returns (golden line, RunResult)."""
    device = FailRandomly(p=p, seed=seed).device
    log = AccessLog()
    device.nvm.attach_access_log(log)
    result = device.run(_build(runtime, device, seed), runs=RUNS,
                        max_time_s=3600)
    digest = hashlib.sha256()
    for event in device.trace:
        digest.update(repr((event.t, event.kind, event.detail)).encode())
    digest.update(repr(dataclasses.asdict(result)).encode())
    digest.update(repr(device.nvm.state_fingerprint()).encode())
    for e in log:
        digest.update(repr((e.op, e.cell, e.value_sig, e.epoch, e.region,
                            e.via, e.detail)).encode())
    line = (f"{runtime} seed={seed} p={p} {digest.hexdigest()[:32]} "
            f"retries={result.task_retries} trips={result.watchdog_trips} "
            f"reboots={result.reboots}")
    return line, result


def _cases():
    return [(runtime, seed, p) for runtime in RUNTIMES for seed in SEEDS
            for p in BROWNOUT_RATES]


def test_runtime_fault_digests_match_golden(request):
    lines, totals = [], {}
    for runtime, seed, p in _cases():
        line, result = run_case(runtime, seed, p)
        assert result.completed, line
        lines.append(line)
        retries, trips = totals.get(runtime, (0, 0))
        totals[runtime] = (retries + result.task_retries,
                           trips + result.watchdog_trips)
    # Every runtime takes both the retry and the watchdog path somewhere.
    for runtime, (retries, trips) in totals.items():
        assert retries > 0 and trips > 0, (runtime, retries, trips)
    text = "\n".join(lines) + "\n"
    if request.config.getoption("--update-goldens"):
        GOLDEN.write_text(text)
        return
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; generate it with "
        f"pytest {__file__} --update-goldens")
    assert text == GOLDEN.read_text()

