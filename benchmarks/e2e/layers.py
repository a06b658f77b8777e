"""Benchmark-side layer tracing: span wrappers around each layer's public calls.

The program itself reads no host clock, so the benchmark installs
wrappers around the public entry points of every layer (the
:data:`SPAN_PROBES` and :data:`PARENT_PROBES` tables), runs one traced
iteration, and removes them again. A wrapper on a module-level function
is also rebound wherever a ``repro.*`` module imported it with
``from X import f`` — otherwise calls through that alias would escape.

Self time is CPU time (``time.thread_time``) minus the CPU time of the
child spans, kept on one span stack *per thread*: at ``jobs=1`` the
control plane runs the treatment and control arms on two executor
threads, and a shared stack would subtract one thread's work from the
other's spans. Per-call layers (NVM writes, monitor calls, energy
payments) are folded into per-bucket counters; individual spans are
kept only at coarse boundaries (rollout, wave, device, point,
schedule).

Coroutines and cross-process calls cannot sit on a CPU stack — a
coroutine suspends with its span open while others run on the same
thread — so the queue's ``put`` and the pool's ``run`` are timed as
wall-clock accumulators instead (:attr:`Probe.wall`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Attribute set on every wrapper, so tests can prove none survive.
MARKER = "__e2e_probe__"


@dataclass(frozen=True)
class Probe:
    """One wrapped call.

    Attributes:
        target: ``"module:function"`` or ``"module:Class.method"``.
        self_metric: per-layer metric that accumulates the span's self
            time (empty: the self time stays unattributed, in
            ``other.self_s``).
        count: per-layer metric incremented once per call.
        kind: coarse span kind; each call is recorded individually.
        inclusive: metric accumulating the span's inclusive CPU time.
        hook: ``hook(state, result, exc)`` run after the call, for
            counts read off the result or the exception.
        wall: time the call with the wall clock, off the CPU stack.
    """

    target: str
    self_metric: str = ""
    count: str = ""
    kind: str = ""
    inclusive: str = ""
    hook: Optional[Callable[["ThreadState", Any, Optional[BaseException]],
                            None]] = None
    wall: bool = False


class ThreadState:
    """One thread's span stack and accumulators (no locking needed)."""

    __slots__ = ("stack", "values", "spans", "last_source", "sources")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.values: Dict[str, float] = defaultdict(float)
        #: Coarse spans: (kind, wall start, wall end, depth on this stack).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.last_source: Optional[int] = None
        self.sources: set = set()


class Tracer:
    """Per-thread span stacks plus the merged view of all threads.

    ``clock`` is the per-thread CPU clock (a test substitutes a fake).
    """

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[ThreadState] = []

    def state(self) -> ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def values(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, value in state.values.items():
                merged[name] += value
        return merged

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return [span for state in self._states for span in state.spans]

    def compiled_sources(self) -> int:
        return len(set().union(*(s.sources for s in self._states)))

    # -- wrappers ----------------------------------------------------------
    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        if probe.wall:
            wrapper = (self._async_wall(probe, fn)
                       if inspect.iscoroutinefunction(fn)
                       else self._sync_wall(probe, fn))
        else:
            wrapper = self._span(probe, fn)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARKER, probe.target)
        return wrapper

    def _span(self, probe: Probe, fn: Callable) -> Callable:
        clock, perf = self.clock, time.perf_counter
        self_metric, count, kind = probe.self_metric, probe.count, probe.kind
        inclusive, hook = probe.inclusive, probe.hook
        state_of = self.state

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            wall0 = perf() if kind else 0.0
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                values = state.values
                if self_metric:
                    values[self_metric] += elapsed - frame[0]
                if count:
                    values[count] += 1
                if inclusive:
                    values[inclusive] += elapsed
                if kind:
                    state.spans.append((kind, wall0, perf(), len(stack)))
                if hook is not None:
                    hook(state, result, error)

        return wrapper

    def _sync_wall(self, probe: Probe, fn: Callable) -> Callable:
        perf, state_of = time.perf_counter, self.state

        def wrapper(*args, **kwargs):
            result = error = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                state = state_of()
                state.values[probe.self_metric] += perf() - t0
                if probe.count:
                    state.values[probe.count] += 1
                if probe.hook is not None:
                    probe.hook(state, result, error)

        return wrapper

    def _async_wall(self, probe: Probe, fn: Callable) -> Callable:
        perf, state_of = time.perf_counter, self.state

        async def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                state = state_of()
                state.values[probe.self_metric] += perf() - t0
                if probe.count:
                    state.values[probe.count] += 1

        return wrapper


# ---------------------------------------------------------------------------
# Installing and removing wrappers
# ---------------------------------------------------------------------------


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, raw attribute) for a probe target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = vars(owner)[name]  # KeyError: the target moved or was renamed
    return owner, name, raw


class Installation:
    """Wrappers installed by :func:`install`; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install(tracer: Tracer, probes: Sequence[Probe]) -> Installation:
    """Wrap every probe target; rebind module-function aliases."""
    done = Installation()
    try:
        for probe in probes:
            owner, name, raw = _resolve(probe.target)
            if inspect.isclass(owner):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(tracer.wrap(probe, raw.__func__))
                else:
                    wrapped = tracer.wrap(probe, raw)
                done._set(owner, name, wrapped)
                continue
            wrapper = tracer.wrap(probe, raw)
            for module_name, module in list(sys.modules.items()):
                if module is owner or module_name.split(".")[0] == "repro":
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            done._set(module, attr, wrapper)
    except BaseException:
        done.restore()
        raise
    return done


# ---------------------------------------------------------------------------
# The probe tables
# ---------------------------------------------------------------------------


def _remember_source(state: ThreadState, result: Any, error) -> None:
    if error is None:
        state.last_source = hash(result)


def _count_compiled_source(state: ThreadState, result: Any, error) -> None:
    if error is None and state.last_source is not None:
        state.sources.add(state.last_source)


def _count_power_failure(state: ThreadState, result: Any, error) -> None:
    if error is not None and type(error).__name__ == "PowerFailure":
        state.values["energy.power_failures"] += 1


def _count_batch(state: ThreadState, result: Any, error) -> None:
    if error is None:
        state.values["batch.cohorts"] += len(result.cohorts)
        state.values["batch.lanes"] += len(result.device_ids)
        state.values["batch.kernel_fallbacks"] += result.kernel_fallbacks


def _count_pool(state: ThreadState, result: Any, error) -> None:
    if error is None:
        state.values["pool.items"] += len(result)
        state.values["pool.item_errors"] += sum(
            1 for row in result if type(row).__name__ == "PoolItemError")
    else:
        state.values["pool.item_errors"] += 1


def _p(target: str, self_metric: str = "", count: str = "",
       **kw: Any) -> Probe:
    return Probe(target, self_metric, count, **kw)


#: Traced in-process at ``jobs=1``: every layer the simulation touches.
#: Self-time metrics partition the traced CPU; whatever no span claims is
#: ``other.self_s``.
SPAN_PROBES: Tuple[Probe, ...] = (
    _p("repro.spec.validator:load_properties", "spec.self_s", "spec.calls"),
    _p("repro.core.generator:generate_machines", "generator.self_s",
       "generator.calls"),
    _p("repro.core.generator:build_monitor_plan", "generator.self_s",
       "generator.calls"),
    _p("repro.statemachine.codegen_python:generate_python_source",
       "codegen.self_s", hook=_remember_source),
    _p("repro.statemachine.codegen_python:compile_machine", "codegen.self_s",
       "codegen.compiles", hook=_count_compiled_source),
    _p("repro.fleet.bundle:build_bundle", "bundle.self_s", "bundle.calls"),
    _p("repro.fleet.bundle:MonitorBundle.delta_to", "bundle.self_s",
       "bundle.calls"),
    _p("repro.fleet.bundle:MonitorBundle.to_wire", "bundle.self_s",
       "bundle.calls"),
    _p("repro.fleet.bundle:BundleDelta.to_wire", "bundle.self_s",
       "bundle.calls"),
    _p("repro.fleet.bundle:decode_wire", "bundle.self_s", "bundle.calls"),
    _p("repro.fleet.bundle:apply_delta", "bundle.self_s", "bundle.calls"),
    _p("repro.fleet.server:FleetServer.build_device", "provision.self_s"),
    _p("repro.workloads.health:build_artemis", "provision.self_s"),
    _p("repro.workloads.health:build_mayfly", "provision.self_s"),
    _p("repro.workloads.health:make_rf_device", "provision.self_s"),
    _p("repro.sim.device:Device.__init__", "provision.self_s",
       "provision.devices"),
    _p("repro.fleet.transport:OtaTransport.step", "ota.self_s", "ota.steps"),
    _p("repro.fleet.transport:OtaTransport.assemble", "ota.self_s"),
    _p("repro.fleet.install:BundleInstaller.stage", "ota.self_s"),
    _p("repro.fleet.install:BundleInstaller.activate", "ota.self_s"),
    _p("repro.fleet.install:BundleInstaller.finish_migration", "ota.self_s"),
    _p("repro.fleet.install:BundleInstaller.rollback", "ota.self_s"),
    _p("repro.sim.device:Device.run", "runtime.self_s"),
    _p("repro.core.runtime:ArtemisRuntime.boot", "runtime.self_s"),
    _p("repro.core.runtime:ArtemisRuntime.loop_iteration", "runtime.self_s",
       "runtime.iterations"),
    _p("repro.baselines.mayfly:MayflyRuntime.boot", "runtime.self_s"),
    _p("repro.baselines.mayfly:MayflyRuntime.loop_iteration",
       "runtime.self_s", "runtime.iterations"),
    _p("repro.fleet.device:UpdatableRuntime.boot", "runtime.self_s"),
    _p("repro.fleet.device:UpdatableRuntime.loop_iteration",
       "runtime.self_s"),
    _p("repro.core.monitor:ArtemisMonitor.call", "monitor.self_s",
       "monitor.events"),
    _p("repro.nvm.memory:PersistentCell.set", "nvm.write_s", "nvm.writes"),
    _p("repro.nvm.transaction:Transaction.commit", "nvm.commit_s",
       "nvm.commits"),
    _p("repro.nvm.memory:NonVolatileMemory.verify", "nvm.verify_s",
       "nvm.verifies"),
    _p("repro.nvm.memory:NonVolatileMemory.verify_all", "nvm.verify_s"),
    _p("repro.nvm.memory:NonVolatileMemory.state_fingerprint",
       "nvm.fingerprint_s", "nvm.fingerprints"),
    _p("repro.sim.device:Device.consume", "energy.self_s", "energy.consumes",
       hook=_count_power_failure),
    _p("repro.sim.device:Device.consume_energy", "energy.self_s",
       "energy.consumes", hook=_count_power_failure),
    _p("repro.sim.device:Device.reboot", "energy.self_s"),
    _p("repro.energy.environment:EnergyEnvironment.harvest",
       "energy.self_s"),
    _p("repro.energy.environment:EnergyEnvironment.consume",
       "energy.self_s"),
    _p("repro.energy.environment:EnergyEnvironment.recharge_to_boot",
       "energy.self_s"),
    _p("repro.fleet.telemetry:DeviceTelemetry.from_device",
       "telemetry.self_s", "telemetry.rows"),
    _p("repro.fleet.telemetry:DeviceTelemetry.from_row", "telemetry.self_s",
       "telemetry.rows"),
    _p("repro.fleet.telemetry:DeviceTelemetry.to_row", "telemetry.self_s"),
    _p("repro.fleet.telemetry:aggregate", "telemetry.self_s"),
    _p("repro.fleet.control:TelemetryGate.decide", "gate.self_s",
       "gate.decisions"),
    _p("repro.fleet.control:ShardedRegistry.record", "registry.self_s",
       "registry.records"),
    _p("repro.fleet.control:ShardedRegistry.merged_rollup",
       "registry.self_s"),
    _p("repro.sim.batch.core:BatchFleetCore.run", "batch.self_s",
       hook=_count_batch),
    _p("repro.sim.batch.core:run_with_boundaries", "batch.self_s",
       inclusive="batch.rep_s"),
    _p("repro.sim.batch.core:weighted_summary", "batch.self_s"),
    _p("repro.sim.batch.fsm:BatchMachineSet.step_machine", "batch.kernel_s",
       "batch.kernel_steps"),
    _p("repro.verify.explorer:CrashScheduleExplorer.explore",
       "verify.execute_s"),
    _p("repro.verify.explorer:CrashScheduleExplorer.execute",
       "verify.execute_s", "verify.schedules", kind="schedule"),
    _p("repro.verify.schedule:CrashScheduleRunner.before_consume",
       "verify.execute_s"),
    _p("repro.verify.schedule:FingerprintPolicy.fingerprint",
       "verify.fingerprint_s"),
    _p("repro.verify.oracle:extract_outcome", "verify.oracle_s"),
    _p("repro.verify.oracle:compare_outcomes", "verify.oracle_s"),
    # Coarse boundaries: recorded as individual spans, self time unclaimed.
    _p("repro.fleet.control:ControlPlane.run_rollout", kind="rollout"),
    _p("repro.fleet.control:WaveTask.__call__", kind="device"),
    _p("repro.sim.experiments:Sweep.run_point", kind="point"),
)

#: Traced in a second pass at the benchmark's worker count: parent-side
#: wrappers only, so pool workers run untraced code.
PARENT_PROBES: Tuple[Probe, ...] = (
    _p("repro.sim.pool:PersistentPool.run", "pool.run_s", wall=True,
       hook=_count_pool),
    _p("repro.fleet.control:TelemetryQueue.put", "queue.put_wait_s",
       "queue.puts", wall=True),
)

#: Every per-layer metric, in table order, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("spec.calls", "count"), ("spec.self_s", "s"),
    ("generator.calls", "count"), ("generator.self_s", "s"),
    ("codegen.compiles", "count"), ("codegen.unique_frac", "fraction"),
    ("codegen.self_s", "s"),
    ("bundle.calls", "count"), ("bundle.self_s", "s"),
    ("provision.devices", "count"), ("provision.self_s", "s"),
    ("ota.steps", "count"), ("ota.self_s", "s"),
    ("runtime.iterations", "count"), ("runtime.self_s", "s"),
    ("monitor.events", "count"), ("monitor.self_s", "s"),
    ("monitor.us_per_event", "us"),
    ("nvm.writes", "count"), ("nvm.write_s", "s"),
    ("nvm.commits", "count"), ("nvm.commit_s", "s"),
    ("nvm.verifies", "count"), ("nvm.verify_s", "s"),
    ("nvm.fingerprints", "count"), ("nvm.fingerprint_s", "s"),
    ("energy.consumes", "count"), ("energy.self_s", "s"),
    ("energy.power_failures", "count"),
    ("telemetry.rows", "count"), ("telemetry.self_s", "s"),
    ("pool.items", "count"), ("pool.run_s", "s"), ("pool.busy_frac", "fraction"),
    ("pool.item_errors", "count"),
    ("queue.puts", "count"), ("queue.high_watermark", "count"),
    ("queue.blocked_puts", "count"), ("queue.dropped", "count"),
    ("queue.put_wait_s", "s"),
    ("gate.decisions", "count"), ("gate.self_s", "s"),
    ("registry.records", "count"), ("registry.self_s", "s"),
    ("wave.elapsed_s", "s"),
    ("batch.cohorts", "count"), ("batch.lanes", "count"),
    ("batch.self_s", "s"), ("batch.rep_s", "s"),
    ("batch.kernel_steps", "count"), ("batch.kernel_s", "s"),
    ("batch.kernel_fallbacks", "count"),
    ("verify.schedules", "count"), ("verify.execute_s", "s"),
    ("verify.fingerprint_s", "s"), ("verify.oracle_s", "s"),
    ("other.self_s", "s"), ("trace.cpu_s", "s"), ("trace.overhead", "ratio"),
)

#: Metrics that partition the traced CPU time (``other.self_s`` is the rest).
SELF_METRICS: Tuple[str, ...] = tuple(sorted(
    {p.self_metric for p in SPAN_PROBES if p.self_metric}))


@dataclass
class TracedPass:
    """What one traced iteration measured."""

    values: Dict[str, float]
    spans: List[Tuple[str, float, float, int]]
    compiled_sources: int
    cpu_s: float
    wall_s: float


def traced(probes: Sequence[Probe], body: Callable[[], Any],
           clock: Callable[[], float] = time.thread_time
           ) -> Tuple[Any, TracedPass]:
    """Run ``body`` with ``probes`` installed; always restores them."""
    tracer = Tracer(clock)
    installation = install(tracer, probes)
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = body()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    finally:
        installation.restore()
    return result, TracedPass(dict(tracer.values()), tracer.spans(),
                              tracer.compiled_sources(), cpu, wall)


def layer_table(span_pass: TracedPass, parent_pass: TracedPass,
                untraced_wall_s: float, worker_cpu_s: float, jobs: int,
                ledger: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from the two traced passes.

    ``ledger`` holds the wave-ledger entries (``WaveLedgerEntry.to_dict``)
    of the parent-side pass; ``worker_cpu_s`` is the pool workers' CPU
    during that pass.
    """
    a, b = span_pass.values, parent_pass.values
    table = {name: float(a.get(name, 0.0)) for name, _ in LAYER_METRICS}
    compiles = a.get("codegen.compiles", 0.0)
    table["codegen.unique_frac"] = (span_pass.compiled_sources / compiles
                                    if compiles else 0.0)
    events = a.get("monitor.events", 0.0)
    table["monitor.us_per_event"] = (a.get("monitor.self_s", 0.0) / events
                                     * 1e6 if events else 0.0)
    for name in ("pool.items", "pool.run_s", "pool.item_errors", "queue.puts",
                 "queue.put_wait_s"):
        table[name] = float(b.get(name, 0.0))
    run_s = table["pool.run_s"]
    table["pool.busy_frac"] = worker_cpu_s / (run_s * jobs) if run_s else 0.0
    queues = [entry.get("queue") or {} for entry in ledger]
    table["queue.high_watermark"] = float(max(
        (q.get("high_watermark", 0) for q in queues), default=0))
    table["queue.blocked_puts"] = float(sum(q.get("blocked_puts", 0)
                                            for q in queues))
    table["queue.dropped"] = float(sum(q.get("dropped", 0) for q in queues))
    table["wave.elapsed_s"] = float(sum(e.get("elapsed_s", 0.0)
                                        for e in ledger))
    table["other.self_s"] = span_pass.cpu_s - sum(
        a.get(name, 0.0) for name in SELF_METRICS)
    table["trace.cpu_s"] = span_pass.cpu_s
    table["trace.overhead"] = (span_pass.wall_s / untraced_wall_s
                               if untraced_wall_s else 0.0)
    return table


def span_summary(spans: Sequence[Tuple[str, float, float, int]]
                 ) -> Dict[str, Dict[str, float]]:
    """Count, total, median and max wall time per coarse span kind."""
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for kind, start, end, _depth in spans:
        by_kind[kind].append(end - start)
    return {kind: {"count": len(d), "total_s": sum(d),
                   "p50_s": statistics.median(d), "max_s": max(d)}
            for kind, d in sorted(by_kind.items())}
