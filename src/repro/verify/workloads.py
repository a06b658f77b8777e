"""Verification scenarios: workload × runtime pairs the checker runs.

Each :class:`Scenario` builds a *deterministic* deployment on a
continuously-powered device — the only power failures in a verification
run are the ones the crash schedule injects, so a schedule identifies an
execution exactly and the crash-free run doubles as the continuous
oracle.

Determinism requires two deliberate deviations from the benchmark
configs:

* **Frozen sensors.** The stock workloads model sensors as functions of
  time; re-execution after a crash would then legitimately read
  different values, and the oracle comparison could not distinguish
  that from a lost write. Verification scenarios freeze every sensor at
  its t=0 value (timestamps written *into* channels are masked by the
  policy instead — see :data:`repro.verify.oracle.TIME_KEYS`).
* **Scaled specs.** Collection counts are reduced (e.g. ``collect: 10``
  → ``collect: 2``) so a full application run stays a few hundred
  energy payments and bounded exploration is exhaustive in seconds.

The matrix covers three workloads (health wearable, trap camera,
synthetic task graph) on all four runtimes (ARTEMIS, Mayfly, Chain,
checkpoint). Chain scenarios hand-roll inline checks, checkpoint
scenarios re-express the pipeline as block programs — both per their
runtime's programming model; their oracles compare the runtime's own
durable outputs.

:data:`EXTRA_SCENARIOS` extends the matrix beyond the cross product:
the ``ota`` scenario wraps ARTEMIS in the fleet update pipeline
(:mod:`repro.fleet`) and receives + installs a monitor update
*mid-flight*, so bounded exploration covers crashes inside chunk
receipt, the journaled A/B activation, and migration roll-forward —
the update must land atomically under every crash schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines.chain import ChainRuntime
from repro.baselines.mayfly import (
    Collection,
    Expiration,
    MayflyConfig,
    MayflyRuntime,
)
from repro.checkpoint.program import Block, CheckpointProgram
from repro.checkpoint.runtime import CheckpointRuntime
from repro.core.runtime import ArtemisRuntime
from repro.energy.environment import EnergyEnvironment
from repro.energy.power import MCU_ACTIVE_POWER_W, PowerModel, TaskCost
from repro.errors import ReproError
from repro.fleet.bundle import MonitorBundle, build_bundle
from repro.fleet.device import UpdatableRuntime
from repro.fleet.install import BundleInstaller
from repro.fleet.transport import OtaTransport
from repro.sim.device import Device
from repro.taskgraph.app import Application
from repro.taskgraph.builder import AppBuilder
from repro.verify.explorer import CrashScheduleExplorer
from repro.verify.oracle import EquivalencePolicy, mask_time_fields
from repro.workloads.camera import (
    build_camera_app,
    build_camera_runtime,
    camera_power_model,
)
from repro.workloads.health import (
    build_artemis,
    build_health_app,
    health_power_model,
)
from repro.workloads.synthetic import synthetic_app, synthetic_properties

WORKLOADS = ("health", "camera", "synthetic")
RUNTIMES = ("artemis", "mayfly", "chain", "checkpoint")

#: Scenarios outside the workload × runtime cross product. The ``ota``
#: workloads exist only for ARTEMIS: they verify the fleet OTA pipeline
#: (receive → stage → journaled activate → migrate), which the baseline
#: runtimes do not implement. ``ota`` ships a full bundle; ``ota-delta``
#: ships a delta against the installed version, covering the end-to-end
#: server-side encode → transport → on-device reconstruct → install →
#: swap path (bundle → transport → install → swap). ``temporal`` runs
#: past-time temporal-logic properties (shared sub-monitors, a firing
#: root) through bounded crash exploration and additionally compares
#: the sub-monitors' durable state against the continuous oracle.
EXTRA_SCENARIOS = (("ota", "artemis"), ("ota-delta", "artemis"),
                   ("temporal", "artemis"))

#: Health benchmark spec scaled for exhaustive exploration: collect 2
#: instead of 10 (one path restart in the oracle run), generous retry
#: ceilings so a bounded number of injected crashes cannot exhaust them.
VERIFY_HEALTH_SPEC = """
micSense: {
    maxTries: 10 onFail: skipPath Path: 3;
}

send: {
    MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 onFail: skipPath Path: 2;
    collect: 1 dpTask: micSense onFail: restartPath Path: 3;
}

calcAvg {
    collect: 2 dpTask: bodyTemp onFail: restartPath;
}

accel {
    maxTries: 10 onFail: skipPath Path: 2;
}
"""


@dataclass
class Scenario:
    """One verifiable deployment: how to build it and how to judge it."""

    name: str
    workload: str
    runtime: str
    build: Callable[[], Tuple[Device, Any]]
    policy: EquivalencePolicy = field(default_factory=EquivalencePolicy)
    extract_extra: Optional[Callable[[Any, Any], Dict[str, Any]]] = None
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    time_sensitive: bool = False

    def explorer(self) -> CrashScheduleExplorer:
        return CrashScheduleExplorer(
            build=self.build,
            policy=self.policy,
            extract_extra=self.extract_extra,
            run_kwargs=self.run_kwargs,
            time_sensitive=self.time_sensitive,
            name=self.name,
        )


def _device() -> Device:
    return Device(EnergyEnvironment.continuous())


def _freeze_sensors(app: Application) -> Application:
    """Replace every sensor with its (deterministic) t=0 constant."""
    for name, fn in list(app.sensors.items()):
        value = fn(0.0)
        app.sensors[name] = (lambda v: (lambda t: v))(value)
    return app


# ---------------------------------------------------------------------------
# Health wearable
# ---------------------------------------------------------------------------

def _health_app() -> Application:
    return _freeze_sensors(build_health_app())


def _health_artemis() -> Tuple[Device, Any]:
    device = _device()
    return device, build_artemis(device, app=_health_app(),
                                 spec=VERIFY_HEALTH_SPEC)


def _health_mayfly_config() -> MayflyConfig:
    return MayflyConfig(
        expirations=[Expiration("send", "accel", 300.0, path=2)],
        collections=[
            Collection("calcAvg", "bodyTemp", 2, path=1),
            Collection("send", "micSense", 1, path=3),
        ],
    )


def _health_mayfly() -> Tuple[Device, Any]:
    device = _device()
    return device, MayflyRuntime(_health_app(), _health_mayfly_config(),
                                 device, health_power_model())


def _health_chain() -> Tuple[Device, Any]:
    def need_two_temps(ctx):
        # Hand-rolled collect: 2 — the Figure 2(a) anti-pattern.
        if len(ctx.read("temps", [])) < 2:
            return "restart_path"
        return None

    device = _device()
    return device, ChainRuntime(_health_app(), {"calcAvg": need_two_temps},
                                device, health_power_model())


def _health_checkpoint() -> Tuple[Device, Any]:
    def sense(state):
        state.setdefault("temps", []).append(36.6)

    def avg(state):
        temps = state["temps"]
        state["avgTemp"] = sum(temps) / len(temps)

    def send(state):
        state.setdefault("sent", []).append({"avgTemp": state["avgTemp"]})

    program = CheckpointProgram(
        "health",
        blocks=[
            Block("sense1", 0.05, body=sense),
            Block("sense2", 0.05, body=sense),
            Block("avg", 0.08, body=avg),
            Block("send", 0.30, 1.0e-3, body=send),
        ],
        # No checkpoint after sense2: a crash inside `avg` re-executes
        # sense2 from the sense1 snapshot — re-execution idempotence is
        # exactly what the oracle comparison checks.
        checkpoint_after=["sense1", "avg", "send"],
    )
    device = _device()
    return device, CheckpointRuntime(program, device)


# ---------------------------------------------------------------------------
# Trap camera
# ---------------------------------------------------------------------------

def _camera_app() -> Application:
    return _freeze_sensors(build_camera_app())


def _camera_artemis() -> Tuple[Device, Any]:
    device = _device()
    return device, build_camera_runtime(device, app=_camera_app())


def _camera_mayfly() -> Tuple[Device, Any]:
    config = MayflyConfig(
        expirations=[Expiration("uplinkMeta", "infer", 120.0, path=2)],
        collections=[Collection("infer", "capture", 1, path=2)],
    )
    device = _device()
    return device, MayflyRuntime(_camera_app(), config, device,
                                 camera_power_model())


def _camera_chain() -> Tuple[Device, Any]:
    def recheck_once(ctx):
        # Restart the detection path once: exercises a check-driven
        # restart whose marker write shares a commit with control state.
        if ctx.read("recheck", 0) < 1:
            ctx.write("recheck", 1)
            return "restart_path"
        return None

    def need_confidence(ctx):
        if ctx.read("confidence", None) is None:
            return "restart_path"
        return None

    device = _device()
    checks = {"compress": recheck_once, "uplinkMeta": need_confidence}
    return device, ChainRuntime(_camera_app(), checks, device,
                                camera_power_model())


def _camera_checkpoint() -> Tuple[Device, Any]:
    def capture(state):
        state["frame"] = {"luma": 0.4}

    def compress(state):
        state["jpeg"] = {"kb": 12.0}

    def infer(state):
        state["confidence"] = 0.3 + 0.6 * state["frame"]["luma"]

    def uplink(state):
        state.setdefault("uplinked", []).append(
            {"kind": "meta", "confidence": state["confidence"]})

    program = CheckpointProgram(
        "camera",
        blocks=[
            Block("capture", 1.2, 15.0e-3, body=capture),
            Block("compress", 2.0, 0.8e-3, body=compress),
            Block("infer", 3.0, 1.0e-3, body=infer),
            Block("uplink", 2.5, 8.0e-3, body=uplink),
        ],
        checkpoint_after=["capture", "infer", "uplink"],
    )
    device = _device()
    return device, CheckpointRuntime(program, device)


# ---------------------------------------------------------------------------
# Synthetic task graph
# ---------------------------------------------------------------------------

_SYNTH_SEED = 7


def _synthetic() -> Tuple[Application, Any]:
    return synthetic_app(n_paths=2, tasks_per_path=(2, 3), seed=_SYNTH_SEED)


def _synthetic_artemis() -> Tuple[Device, Any]:
    app, power = _synthetic()
    props = synthetic_properties(app, density=0.6, seed=_SYNTH_SEED)
    device = _device()
    return device, ArtemisRuntime(app, props, device, power)


def _synthetic_mayfly() -> Tuple[Device, Any]:
    app, power = _synthetic()
    collections: List[Collection] = []
    for path in app.paths:
        if len(path.task_names) >= 2:
            collections.append(Collection(path.task_names[1],
                                          path.task_names[0], 2,
                                          path=path.number))
            break
    device = _device()
    return device, MayflyRuntime(app, MayflyConfig(collections=collections),
                                 device, power)


def _synthetic_chain() -> Tuple[Device, Any]:
    app, power = _synthetic()
    target = app.paths[0].task_names[-1]

    def restart_once(ctx):
        if ctx.read("lap", 0) < 1:
            ctx.write("lap", 1)
            return "restart_path"
        return None

    device = _device()
    return device, ChainRuntime(app, {target: restart_once}, device, power)


def _synthetic_checkpoint() -> Tuple[Device, Any]:
    def step(i):
        def body(state):
            state["acc"] = state.get("acc", 0) + i + 1
        return body

    program = CheckpointProgram(
        "synthetic",
        blocks=[Block(f"b{i}", 0.1 + 0.05 * i, body=step(i))
                for i in range(4)],
        checkpoint_after=["b0", "b2", "b3"],
    )
    device = _device()
    return device, CheckpointRuntime(program, device)


# ---------------------------------------------------------------------------
# OTA update mid-flight (fleet pipeline on ARTEMIS)
# ---------------------------------------------------------------------------

#: Installed spec: one retry guard on the sensing task. Neither version
#: ever *fires* (no sensor faults, collect threshold always met), so the
#: corrective-action stream is empty under both monitor sets and the
#: oracle comparison isolates update atomicity from monitor semantics.
OTA_SPEC_V1 = """
sense: {
    maxTries: 10 onFail: skipPath Path: 1;
}
"""

#: The update: the ``sense`` machine changes semantics (retry ceiling),
#: and a ``collect`` machine is *added* on ``send`` — so activation
#: exercises both legs of the migration log (reset changed machine,
#: attach added machine) while staying non-firing.
OTA_SPEC_V2 = """
sense: {
    maxTries: 12 onFail: skipPath Path: 1;
}

send: {
    collect: 1 dpTask: sense onFail: restartPath Path: 1;
}
"""

#: The v2 bundle is ~650 wire bytes; 3 chunks keeps several radio
#: payments (= crash points) inside the transfer without bloating the
#: exploration frontier.
_OTA_CHUNK_SIZE = 256


def _ota_app() -> Application:
    def sense(ctx):
        ctx.write("reading", ctx.sample("adc"))

    def send(ctx):
        ctx.append("sent", {"reading": ctx.read("reading")})

    return (
        AppBuilder("ota_demo")
        .task("sense", body=sense)
        .task("send", body=send)
        .path(1, ["sense", "send"])
        .sensor("adc", lambda t: 21.5)
        .build()
    )


def _ota_server_side(delta: bool) -> Tuple[MonitorBundle, bytes]:
    """What the fleet server ships: the factory-installed v1 bundle and
    the update wire, either the full v2 bundle or, for ``ota-delta``,
    v2 delta-encoded against the installed v1. ``MonitorBundle`` is
    frozen and the wire is bytes, so every device may share them."""
    app = _ota_app()
    v1 = build_bundle(OTA_SPEC_V1, app, version=1)
    v2 = build_bundle(OTA_SPEC_V2, app, version=2)
    return v1, (v1.delta_to(v2) if delta else v2).to_wire()


def _ota_device(v1: MonitorBundle, wire: bytes) -> Tuple[Device, Any]:
    """A fresh device running ``v1`` with ``wire`` offered as version 2.

    With the delta wire this is the full fleet path: the wire crosses
    the (chunked) transport, and the device reconstructs, stages,
    journal-activates and migrates — so bounded exploration covers
    crashes inside every stage of bundle → transport → install → swap,
    including the hash-guarded delta reconstruction.
    """
    device = _device()
    app = _ota_app()
    power = PowerModel({
        "sense": TaskCost(0.05, MCU_ACTIVE_POWER_W),
        "send": TaskCost(0.30, MCU_ACTIVE_POWER_W, 1.0e-3),
    })
    runtime = build_artemis(device, app=app, spec=OTA_SPEC_V1, power=power)
    installer = BundleInstaller(device.nvm, journal=runtime.journal)
    installer.install_initial(v1)
    # Lossless link: ChunkLoss draws from an RNG per delivery attempt,
    # which would make crash schedules perturb later deliveries and
    # break replayability. Crashes themselves still interrupt the
    # transfer; resumption is what is under test, not retry backoff.
    transport = OtaTransport(device.nvm, chunk_size=_OTA_CHUNK_SIZE)
    updatable = UpdatableRuntime(runtime, installer, transport)
    updatable.push(wire, 2)
    return device, updatable


def _ota_build(delta: bool) -> Callable[[], Tuple[Device, Any]]:
    """One scenario's build: the server side is made on its first call
    and shared by every later one; each call still provisions a fresh
    device, app, runtime, installer and transport."""
    server_side: Optional[Tuple[MonitorBundle, bytes]] = None

    def build() -> Tuple[Device, Any]:
        nonlocal server_side
        if server_side is None:
            server_side = _ota_server_side(delta)
        return _ota_device(*server_side)

    return build


def _ota_extract(device, runtime) -> Dict[str, Any]:
    """Durable update state every crash schedule must agree on: the v2
    set fully active, migration drained, probation ended by the post-
    update run — i.e. never a half-installed device."""
    installer = runtime.installer
    return {
        "active_version": installer.active_version,
        "monitor_version": runtime.monitor_version,
        "probation": installer.probation,
        "migration_pending": installer.migration_pending,
        "transfer_failed": runtime.transport.failed,
        "update_outcome": runtime.update_outcome,
    }


# ---------------------------------------------------------------------------
# Temporal-logic properties under crashes (ARTEMIS only)
# ---------------------------------------------------------------------------

#: Past-time temporal properties over a three-task pipeline. The three
#: ``once ended(sense)`` occurrences hash-cons into ONE shared
#: sub-monitor with three owning roots, and the ``since`` property adds
#: a wildcard-dispatch sub-monitor — the sharing and dependency-order
#: machinery the crash search must keep crash-consistent. Every formula
#: is time-insensitive (no bounded operators): a crash legitimately
#: shifts timestamps, which must not change any verdict. The labelled
#: ``fires`` property is deliberately false at every ``send`` end
#: (``not ended(send)`` evaluated on the end event), so each run emits
#: exactly one skipPath — the oracle comparison covers a *firing*
#: temporal root, not just vacuous ones.
VERIFY_TEMPORAL_SPEC = """
send: {
    temporal: started(send) -> once ended(sense) onFail: restartPath Path: 1;
    temporal: once ended(sense) at: end onFail: skipPath Path: 1;
    temporal: not ended(send) since ended(sense) at: start onFail: skipPath Path: 1;
    temporal: not ended(send) at: end label: fires onFail: skipPath Path: 1;
}

process: {
    temporal: once ended(sense) at: start label: saw_sense onFail: restartPath Path: 1;
}
"""


def _temporal_app() -> Application:
    def sense(ctx):
        ctx.write("reading", ctx.sample("adc"))

    def process(ctx):
        ctx.write("scaled", ctx.read("reading") * 2.0)

    def send(ctx):
        ctx.append("sent", {"scaled": ctx.read("scaled")})

    return (
        AppBuilder("temporal_demo")
        .task("sense", body=sense, monitored_vars=("reading",))
        .task("process", body=process)
        .task("send", body=send)
        .path(1, ["sense", "process", "send"])
        .sensor("adc", lambda t: 21.5)
        .build()
    )


def _temporal_artemis() -> Tuple[Device, Any]:
    device = _device()
    app = _temporal_app()
    power = PowerModel({
        "sense": TaskCost(0.05, MCU_ACTIVE_POWER_W),
        "process": TaskCost(0.10, MCU_ACTIVE_POWER_W),
        "send": TaskCost(0.30, MCU_ACTIVE_POWER_W, 1.0e-3),
    })
    return device, build_artemis(device, app=app,
                                 spec=VERIFY_TEMPORAL_SPEC, power=power)


def _temporal_extract(device, runtime) -> Dict[str, Any]:
    """Durable temporal-monitor state every crash schedule must agree
    on: shared sub-monitor variables (the ``once``/``since`` facts) and
    the root machines' states. Timestamp-valued variables (a bounded
    once's ``last`` witness) are excluded — re-execution legitimately
    shifts them."""
    out: Dict[str, Any] = {}
    for name in device.nvm:
        if not name.startswith("monitor."):
            continue
        if ".tl_" not in name and ".temporal_" not in name:
            continue
        if name.endswith("var.last"):
            continue
        out[name] = device.nvm.cell(name).get()
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _checkpoint_extract(program_name: str):
    """Checkpoint outcomes live in the snapshot slots, not channels."""
    def extract(device, runtime) -> Dict[str, Any]:
        nvm = device.nvm
        slot = nvm.cell(f"ckpt.{program_name}.current").get()
        if slot not in (0, 1):
            return {"snapshot": None}
        snapshot = nvm.cell(f"ckpt.{program_name}.slot{slot}").get()
        return {"pc": snapshot["pc"],
                "state": mask_time_fields(snapshot["state"])}
    return extract


_BUILDS: Dict[Tuple[str, str], Callable[[], Tuple[Device, Any]]] = {
    ("health", "artemis"): _health_artemis,
    ("health", "mayfly"): _health_mayfly,
    ("health", "chain"): _health_chain,
    ("health", "checkpoint"): _health_checkpoint,
    ("camera", "artemis"): _camera_artemis,
    ("camera", "mayfly"): _camera_mayfly,
    ("camera", "chain"): _camera_chain,
    ("camera", "checkpoint"): _camera_checkpoint,
    ("synthetic", "artemis"): _synthetic_artemis,
    ("synthetic", "mayfly"): _synthetic_mayfly,
    ("synthetic", "chain"): _synthetic_chain,
    ("synthetic", "checkpoint"): _synthetic_checkpoint,
    ("temporal", "artemis"): _temporal_artemis,
}

#: OTA builds keep their server side between calls, so each scenario
#: makes its own (:func:`_ota_build`); the flag selects the delta wire.
_OTA_BUILDS: Dict[Tuple[str, str], bool] = {
    ("ota", "artemis"): False,
    ("ota-delta", "artemis"): True,
}

_CHECKPOINT_PROGRAMS = {"health": "health", "camera": "camera",
                        "synthetic": "synthetic"}


def get_scenario(workload: str, runtime: str) -> Scenario:
    """The scenario for one workload × runtime pair."""
    key = (workload, runtime)
    if key not in _BUILDS and key not in _OTA_BUILDS:
        raise ReproError(
            f"unknown scenario {workload!r} × {runtime!r}; workloads: "
            f"{WORKLOADS} (+ extras {EXTRA_SCENARIOS}), "
            f"runtimes: {RUNTIMES}")
    extract: Optional[Callable[[Any, Any], Dict[str, Any]]] = None
    run_kwargs: Dict[str, Any] = {}
    build = _BUILDS.get(key)
    if runtime == "checkpoint":
        extract = _checkpoint_extract(_CHECKPOINT_PROGRAMS[workload])
    elif workload == "temporal":
        extract = _temporal_extract
        # Two runs: the shared once/since facts survive the run
        # boundary, so the second run checks warm-state verdicts too.
        run_kwargs = {"runs": 2}
    elif key in _OTA_BUILDS:
        build = _ota_build(delta=_OTA_BUILDS[key])
        extract = _ota_extract
        # Enough application runs that the crash-free oracle finishes
        # fully installed: the transfer delivers one chunk per loop
        # iteration, and the queued swap lands at the next path
        # boundary. The delta wire (~1.5 KB: full spec + changed
        # machines + guard hashes) spans 6 chunks vs. the full bundle's
        # 3, so it needs one more run to drain.
        run_kwargs = {"runs": 2 if workload == "ota" else 3}
    return Scenario(
        name=f"{workload}-{runtime}",
        workload=workload,
        runtime=runtime,
        build=build,
        policy=EquivalencePolicy(),
        extract_extra=extract,
        run_kwargs=run_kwargs,
    )


def iter_scenarios(
    workloads: Optional[Iterable[str]] = None,
    runtimes: Optional[Iterable[str]] = None,
) -> List[Scenario]:
    """Scenarios for the given selections (defaults: the full matrix).

    The default matrix is the workload × runtime cross product plus
    :data:`EXTRA_SCENARIOS`. Selections are validated by *name* (an
    unknown workload or runtime raises), but pairs a selection spans
    that have no build — e.g. ``ota`` on a baseline runtime — are
    silently skipped; an empty result raises.
    """
    ws = tuple(workloads) if workloads is not None else None
    rs = tuple(runtimes) if runtimes is not None else None
    known_w = set(WORKLOADS) | {w for w, _ in EXTRA_SCENARIOS}
    known_r = set(RUNTIMES) | {r for _, r in EXTRA_SCENARIOS}
    for name in (ws or ()):
        if name not in known_w:
            raise ReproError(
                f"unknown workload {name!r}; known: {sorted(known_w)}")
    for name in (rs or ()):
        if name not in known_r:
            raise ReproError(
                f"unknown runtime {name!r}; known: {sorted(known_r)}")
    keys = [(w, r) for w in (ws or WORKLOADS) for r in (rs or RUNTIMES)]
    for extra in EXTRA_SCENARIOS:
        if extra in keys:
            continue
        if (ws is None or extra[0] in ws) and (rs is None or extra[1] in rs):
            keys.append(extra)
    out = [get_scenario(w, r) for w, r in keys
           if (w, r) in _BUILDS or (w, r) in _OTA_BUILDS]
    if not out:
        raise ReproError(
            f"no scenarios match workloads={ws} runtimes={rs}")
    return out
