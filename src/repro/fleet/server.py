"""Fleet server: staged rollouts with halt-on-regression.

:class:`FleetServer` pushes a new monitor spec to N simulated devices
with heterogeneous energy traces (wall power, fixed charging delays,
RF-mobility harvesting), in percentage *waves*: each wave's devices run
a full simulation — application + OTA download + crash-safe install —
and report :class:`~repro.fleet.telemetry.DeviceTelemetry`. After each
wave the server compares per-run violation rates before and after
activation across the wave's installed devices; a delta above the
plan's threshold halts the rollout before the next (larger) wave ships
the regression.

Execution lives in the control plane (:mod:`repro.fleet.control`):
:meth:`FleetServer.rollout` is a thin synchronous driver over
:class:`~repro.fleet.control.ControlPlane`, which streams each wave's
telemetry through a bounded ingestion queue and decides promote/halt
from the live stream — byte-identical, under the default lossless
backpressure policy, to the historical batch implementation.
:class:`WaveTask` — provision one device, simulate it, report its row
— is the unit of work both wave executors ship to the worker pool;
it lives here, below the control plane and the lockstep core
(:mod:`repro.sim.batch`), so both depend on it downward.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.retry import RetryPolicy
from repro.errors import FleetError
from repro.fleet.bundle import build_bundle
from repro.fleet.device import UpdatableRuntime
from repro.fleet.install import BundleInstaller
from repro.fleet.telemetry import (
    UPDATE_OUTCOMES,
    DeviceTelemetry,
    FleetSummary,
)
from repro.fleet.transport import ChunkLoss, OtaTransport
from repro.sim.experiments import SweepPointError
from repro.sim.pool import fingerprint_hasher
from repro.workloads.health import (
    BENCHMARK_SPEC,
    build_artemis,
    build_health_app,
    health_power_model,
    make_continuous_device,
    make_intermittent_device,
    make_rf_device,
)

#: The fleet's installed baseline: the benchmark health spec.
FLEET_SPEC_V1 = BENCHMARK_SPEC

#: Energy classes, assigned round-robin by device id
#: (:meth:`FleetServer.make_device`): device ``d`` is of class
#: ``d % ENERGY_CLASSES``. Under ``per_cohort`` seeding a device's
#: build reads its id only through this class.
ENERGY_CLASSES = 4

#: A benign update: tighter averaging window (changed machine) plus a
#: generous new watchdog on bodyTemp (added machine that never fires).
FLEET_SPEC_V2 = """
micSense: {
    maxTries: 10 onFail: skipPath Path: 3;
}

send: {
    MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
    collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg {
    collect: 8 dpTask: bodyTemp onFail: restartPath;
}

accel {
    maxTries: 10 onFail: skipPath Path: 2;
}

bodyTemp: {
    maxTries: 50 onFail: skipTask Path: 1;
}
"""

#: A deliberately regressing update: the added range check on avgTemp is
#: physically unsatisfiable (body temperature is never below 1°C), so
#: every completed averaging window fires a corrective action. The app
#: still terminates — skipTask on a finished task just moves on — which
#: is exactly the kind of noisy-but-not-fatal regression staged rollouts
#: must catch from telemetry.
FLEET_SPEC_REGRESSING = """
micSense: {
    maxTries: 10 onFail: skipPath Path: 3;
}

send: {
    MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
    collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg {
    collect: 10 dpTask: bodyTemp onFail: restartPath;
    dpData: avgTemp Range: [0, 1] onFail: skipTask;
}

accel {
    maxTries: 10 onFail: skipPath Path: 2;
}
"""


@dataclass(frozen=True)
class RolloutPlan:
    """Knobs of one staged rollout.

    Attributes:
        waves: cumulative fleet fractions per wave, strictly increasing,
            ending at 1.0 (``(0.1, 0.5, 1.0)`` = 10% canary, then half,
            then everyone).
        runs: application iterations each device simulates.
        halt_threshold: halt when the mean per-run violation-rate
            increase across a wave's installed devices exceeds this.
        chunk_size / loss_rate / retry_max_attempts: OTA link shape.
        boot_loop_threshold: boots on probation before auto-rollback.
        use_delta: ship a delta against the installed baseline instead
            of a full bundle.
        seed: perturbs every device's chunk-loss stream.
        lockstep: run waves through the lockstep cohort core
            (:class:`repro.sim.batch.BatchFleetCore`), which simulates
            one representative per cohort of byte-identical devices,
            instead of simulating every device individually. With
            ``jobs > 1`` the representatives run on the pool workers.
        seed_mode: ``"per_device"`` seeds each device's RF-mobility
            trace and chunk-loss stream from its id (every device
            unique — the scalar default); ``"per_cohort"`` seeds them
            from the device's energy class, collapsing the fleet into
            four byte-identical cohorts — the homogeneous-fleet shape
            the lockstep core amortizes over.
        expand_limit: largest wave the lockstep path expands into
            per-device :class:`~repro.fleet.telemetry.DeviceTelemetry`
            (byte-identical to scalar); larger waves keep the compact
            per-cohort rollup (numerically equivalent, weighted sums).
    """

    waves: Tuple[float, ...] = (0.1, 0.5, 1.0)
    runs: int = 3
    halt_threshold: float = 0.5
    chunk_size: int = 192
    loss_rate: float = 0.05
    retry_max_attempts: int = 8
    boot_loop_threshold: int = 8
    use_delta: bool = True
    seed: int = 0
    max_time_s: float = 8 * 3600.0
    max_reboots: int = 600
    lockstep: bool = False
    seed_mode: str = "per_device"
    expand_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.seed_mode not in ("per_device", "per_cohort"):
            raise FleetError(
                f"seed_mode must be 'per_device' or 'per_cohort', "
                f"got {self.seed_mode!r}")
        if self.expand_limit < 0:
            raise FleetError("expand_limit must be >= 0")
        if not self.waves:
            raise FleetError("rollout plan needs at least one wave")
        previous = 0.0
        for frac in self.waves:
            if not previous < frac <= 1.0:
                raise FleetError(
                    f"wave fractions must be strictly increasing in (0, 1], "
                    f"got {self.waves}"
                )
            previous = frac
        if abs(self.waves[-1] - 1.0) > 1e-9:
            raise FleetError("the final wave must cover the whole fleet (1.0)")
        if self.runs < 1:
            raise FleetError("runs must be >= 1")


@dataclass
class WaveReport:
    """Outcome of one rollout wave.

    ``regression_delta`` is the paired-control signal the halt decision
    uses: the wave's devices are simulated twice from identical initial
    state — once receiving the update, once not — and the delta is the
    mean per-run increase in corrective actions attributable to the
    update (radio cost included). The self-paired before/after rates in
    ``summary`` are observational only; they are biased when the
    download finishes early in the simulation.
    """

    index: int
    device_ids: Sequence[int]
    telemetry: List[DeviceTelemetry]
    control: List[DeviceTelemetry]
    summary: FleetSummary
    regression_delta: float
    halted: bool


@dataclass
class RolloutReport:
    """Outcome of a staged rollout (possibly halted early)."""

    n_devices: int
    new_version: int
    waves: List[WaveReport] = field(default_factory=list)
    halted: bool = False
    halted_wave: Optional[int] = None
    summary: Optional[FleetSummary] = None

    @property
    def ok(self) -> bool:
        return not self.halted

    @property
    def devices_attempted(self) -> int:
        return sum(len(w.device_ids) for w in self.waves)

    def all_telemetry(self) -> List[DeviceTelemetry]:
        return [t for wave in self.waves for t in wave.telemetry]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_devices": self.n_devices,
            "new_version": self.new_version,
            "halted": self.halted,
            "halted_wave": self.halted_wave,
            "devices_attempted": self.devices_attempted,
            "summary": None if self.summary is None else self.summary.to_dict(),
            "waves": [
                {
                    "index": w.index,
                    "devices": len(w.device_ids),
                    "regression_delta": w.regression_delta,
                    "halted": w.halted,
                    "telemetry": [t.to_row() for t in w.telemetry],
                }
                for w in self.waves
            ],
        }

    def describe(self) -> str:
        lines = [
            f"rollout of v{self.new_version} to {self.n_devices} devices: "
            + ("HALTED at wave "
               f"{self.halted_wave}" if self.halted else "completed"),
        ]
        for wave in self.waves:
            lines.append(
                f"  wave {wave.index}: {len(wave.device_ids)} devices, "
                f"delta {wave.regression_delta:+.2f}"
                + (" -> HALT" if wave.halted else "")
            )
        if self.summary is not None:
            lines.append("  " + self.summary.describe())
        return "\n".join(lines)


class FleetServer:
    """Builds, ships and observes monitor updates for a device fleet.

    Args:
        base_spec: the spec every device is provisioned with.
        base_version: its fleet version number.
    """

    def __init__(self, base_spec: str = FLEET_SPEC_V1, base_version: int = 1):
        self.base_spec = base_spec
        self.base_version = base_version
        #: What every device is provisioned with and every delta is
        #: encoded against: built once, not once per device.
        self.base_bundle = build_bundle(base_spec, build_health_app(),
                                        version=base_version)

    # ------------------------------------------------------------------
    # Bundle preparation
    # ------------------------------------------------------------------
    def encode_update(self, new_spec: str, new_version: int,
                      use_delta: bool = True) -> bytes:
        """Wire blob for ``new_spec`` (delta against the baseline)."""
        target = build_bundle(new_spec, build_health_app(),
                              version=new_version)
        if use_delta:
            return self.base_bundle.delta_to(target).to_wire()
        return target.to_wire()

    # ------------------------------------------------------------------
    # Device construction (heterogeneous energy traces)
    # ------------------------------------------------------------------
    @staticmethod
    def make_device(device_id: int, seed_mode: str = "per_device"):
        """One of four energy classes, assigned round-robin: wall power,
        a short and a long fixed charging delay, and an RF-mobility
        trace. Under ``per_device`` seeding the RF trace is seeded per
        device (no two RF devices brown out alike); under
        ``per_cohort`` it is seeded by energy class, so every RF device
        is byte-identical — the lockstep core's homogeneous-fleet
        assumption."""
        kind = device_id % ENERGY_CLASSES
        if kind == 0:
            return make_continuous_device()
        if kind == 1:
            return make_intermittent_device(60.0)
        if kind == 2:
            return make_intermittent_device(300.0)
        return make_rf_device(
            seed=kind if seed_mode == "per_cohort" else device_id)

    def build_device(self, device_id: int, wire: Optional[bytes],
                     new_version: int, plan: RolloutPlan):
        """Provision one simulated device and offer it the update.

        ``wire=None`` builds the paired control: the identical device
        (same energy trace, same provisioned baseline) with no update
        offered."""
        device = self.make_device(device_id, plan.seed_mode)
        app = build_health_app()
        runtime = build_artemis(device, app=app, spec=self.base_spec,
                                power=health_power_model())
        installer = BundleInstaller(
            device.nvm, journal=runtime.journal,
            boot_loop_threshold=plan.boot_loop_threshold,
        )
        installer.install_initial(self.base_bundle)
        loss = None
        if plan.loss_rate > 0.0:
            loss_base = (device_id % ENERGY_CLASSES
                         if plan.seed_mode == "per_cohort" else device_id)
            loss = ChunkLoss(rate=plan.loss_rate,
                             seed=loss_base * 1_000_003 + plan.seed)
        transport = OtaTransport(
            device.nvm, loss=loss,
            retry_policy=RetryPolicy(max_attempts=plan.retry_max_attempts),
            chunk_size=plan.chunk_size,
        )
        updatable = UpdatableRuntime(runtime, installer, transport)
        if wire is not None:
            updatable.push(wire, new_version)
        return device, updatable

    # ------------------------------------------------------------------
    # Staged rollout
    # ------------------------------------------------------------------
    def rollout(
        self,
        new_spec: str,
        n_devices: int,
        new_version: Optional[int] = None,
        plan: RolloutPlan = RolloutPlan(),
        jobs: Optional[int] = None,
        cache: Any = None,
        config: Any = None,
        on_event: Any = None,
    ) -> RolloutReport:
        """Push ``new_spec`` to ``n_devices`` in waves; halt on regression.

        Thin synchronous driver over
        :class:`~repro.fleet.control.ControlPlane`: each wave executes
        on the persistent worker pool (``jobs`` workers) with telemetry
        streamed through the plane's bounded ingestion queue (under
        ``plan.lockstep``, the pool runs the cohort representatives);
        the gate decision at stream end reproduces the batch semantics
        exactly.
        Devices in waves after a halt never receive the update.
        ``config`` (a :class:`~repro.fleet.control.ControlConfig`) and
        ``on_event`` pass through to the plane.
        """
        from repro.fleet.control import ControlPlane

        plane = ControlPlane(self, plan=plan, jobs=jobs, cache=cache,
                             config=config, on_event=on_event)
        return plane.run_rollout(new_spec, n_devices,
                                 new_version=new_version)


# ---------------------------------------------------------------------------
# Wave tasks: the picklable unit of work the pool executes
# ---------------------------------------------------------------------------

#: How each DeviceTelemetry field travels through the float64 shared-
#: memory row. Every dataclass field MUST appear here — encode_row
#: raises KeyError for an unmapped field, so adding telemetry fields
#: without deciding their codec fails loudly, not silently.
_FIELD_KINDS: Dict[str, str] = {
    "device_id": "int",
    "completed": "bool",
    "runs_completed": "int",
    "reboots": "int",
    "total_time_s": "float",
    "total_energy_mj": "float",
    "radio_energy_mj": "float",
    "violations_before": "int",
    "violations_after": "int",
    "runs_before": "int",
    "runs_after": "int",
    "degradation_shed": "int",
    "degradation_restored": "int",
    "chunks_lost": "int",
    "rollbacks": "int",
    "update_outcome": "outcome",
    "active_version": "opt_int",
    "predictive_sheds": "int",
    "shed_lead_s": "float",
}

_FIELDS: Tuple[str, ...] = tuple(DeviceTelemetry.__dataclass_fields__)


class WaveTask:
    """Provision one device, simulate it, report its telemetry row.

    Picklable (plain data attributes only), so the persistent pool's
    pre-forked workers can execute waves defined after they were
    forked. Provides ``encode_row``/``decode_row`` so rows return
    through the pool's shared-memory table as fixed-layout float64 and
    are reconstructed bit-exactly (ints are exact in float64 far beyond
    any counter here; ``update_outcome`` travels as its index in
    :data:`~repro.fleet.telemetry.UPDATE_OUTCOMES`; a ``None``
    ``active_version`` travels as NaN).
    """

    shm_row_size = len(_FIELDS)

    def __init__(self, base_spec: str, base_version: int,
                 wire: Optional[bytes], version: int, plan: RolloutPlan):
        self.base_spec = base_spec
        self.base_version = base_version
        self.wire = wire
        self.version = version
        self.plan = plan
        self._server: Optional[FleetServer] = None

    # -- execution ---------------------------------------------------------
    def server(self) -> FleetServer:
        if self._server is None:
            self._server = FleetServer(self.base_spec, self.base_version)
        return self._server

    def __call__(self, device_id: int) -> Dict[str, Any]:
        point = {"device_id": device_id}
        self.pre_simulate(device_id)
        try:
            device, runtime = self.server().build_device(
                device_id, self.wire, self.version, self.plan)
        except Exception as exc:
            raise SweepPointError("build", point, repr(exc)) from exc
        try:
            result = device.run(runtime, runs=self.plan.runs,
                                max_time_s=self.plan.max_time_s,
                                max_reboots=self.plan.max_reboots)
        except Exception as exc:
            raise SweepPointError("run", point, repr(exc)) from exc
        try:
            return DeviceTelemetry.from_device(
                device_id, device, result, runtime).to_row()
        except Exception as exc:
            raise SweepPointError("metric", point, repr(exc)) from exc

    def pre_simulate(self, device_id: int) -> None:
        """Chaos hook; the base task does nothing."""

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_server"] = None  # rebuilt lazily worker-side
        return state

    # -- shared-memory row codec -------------------------------------------
    @staticmethod
    def encode_row(row: Dict[str, Any]) -> List[float]:
        out: List[float] = []
        for name in _FIELDS:
            kind = _FIELD_KINDS[name]
            value = row[name]
            if kind == "outcome":
                out.append(float(UPDATE_OUTCOMES.index(value)))
            elif kind == "opt_int":
                out.append(float("nan") if value is None else float(value))
            elif kind == "bool":
                out.append(1.0 if value else 0.0)
            else:
                out.append(float(value))
        return out

    @staticmethod
    def decode_row(values: Tuple[float, ...]) -> Dict[str, Any]:
        row: Dict[str, Any] = {}
        for name, value in zip(_FIELDS, values):
            kind = _FIELD_KINDS[name]
            if kind == "int":
                row[name] = int(value)
            elif kind == "bool":
                row[name] = bool(int(value))
            elif kind == "outcome":
                row[name] = UPDATE_OUTCOMES[int(value)]
            elif kind == "opt_int":
                row[name] = None if math.isnan(value) else int(value)
            else:
                row[name] = value
        return row

    # -- caching -----------------------------------------------------------
    def fingerprint(self) -> str:
        """Cache fingerprint: everything besides the device id that
        determines the row (code tree, specs, wire blob, plan)."""
        h = fingerprint_hasher()
        h.update(type(self).__qualname__.encode())
        h.update(hashlib.sha256(self.base_spec.encode()).digest())
        h.update(b"none" if self.wire is None
                 else hashlib.sha256(self.wire).digest())
        h.update(json.dumps(
            {"base_version": self.base_version, "version": self.version,
             "plan": {k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in self.plan.__dict__.items()}},
            sort_keys=True).encode())
        return h.hexdigest()
