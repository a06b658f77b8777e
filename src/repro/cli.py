"""Command-line interface to the ARTEMIS toolchain.

Three subcommands mirror the paper's development flow (Figure 3):

``artemis-repro check``
    Parse a property specification against an application description,
    run semantic validation and the static consistency checker.

``artemis-repro compile``
    Run the full generation pipeline: specification → intermediate
    state machines (textual form) → Python monitor source and MSP430 C
    translation unit. Writes one file per artifact.

``artemis-repro simulate``
    Execute the application under the ARTEMIS runtime on a simulated
    intermittent device and report the run summary, monitor actions,
    and an ASCII timeline. ``--predictive-degradation`` swaps the
    reactive shedding controller for the forecast-driven anticipatory
    one (see ``docs/robustness.md``).

``artemis-repro analyze energy``
    Static worst-case energy/latency analysis of the compiled monitors
    (no simulation): per-monitor bounds per dispatched event, per-path
    energy budgets, and the predicted non-termination charging-delay
    threshold per path. Exits 3 when a path is statically
    non-terminating under the given power model.

``artemis-repro verify``
    Run the intermittence conformance checker: enumerate crash
    schedules up to a bound over the built-in workload × runtime
    scenario matrix and check every intermittent execution against its
    continuous-power oracle (see ``docs/verification.md``). Partial-
    order reduction is on by default (``--no-por`` disables);
    ``--memmodel`` adds the WAR/idempotence single-run oracles. Exits 3
    when a counterexample is found, 4 when the run budget cut a search
    short of the bound; ``--self-test`` instead proves the checkers
    catch deliberately injected recovery and privatization bugs.

``artemis-repro fleet``
    Drive the fleet OTA subsystem (see ``docs/fleet.md``): ``status``
    describes the update a rollout would ship (versions, hashes, wire
    sizes, spec-compatibility diff), ``rollout`` pushes it to N
    simulated devices in staged waves with halt-on-regression (exits 3
    when the rollout halts), ``telemetry`` dumps the per-device
    reports of a single-wave rollout, and ``serve`` runs the always-on
    control plane (staged rollout, then ``--cycles`` monitoring passes
    with windowed percentile rollups); ``--stream`` emits live NDJSON
    control-plane events for any of the rollout-driving actions.

Applications are described in JSON (general Python task bodies require
the library API)::

    {
      "name": "demo",
      "tasks": [{"name": "sense", "sense": "adc"}, {"name": "send"}],
      "paths": {"1": ["sense", "send"]},
      "costs": {"sense": {"duration_s": 0.05, "power_w": 0.001},
                "send":  {"duration_s": 0.5,  "power_w": 0.006}},
      "sensors": {"adc": 21.5}
    }

``sensors`` maps names to constant readings. A task with a ``"sense"``
field reads that sensor and commits the value to a channel named after
the task — the access goes through any ``--sensor-faults`` fault models,
so retries and watchdog trips are reproducible from the CLI alone;
tasks without one are cost-model-only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from repro.core.generator import build_monitor_plan
from repro.core.runtime import ArtemisRuntime
from repro.energy.environment import EnergyEnvironment, default_capacitor
from repro.energy.power import MCU_ACTIVE_POWER_W, PowerModel, TaskCost
from repro.errors import ReproError, RuntimeConfigError, SpecError
from repro.fleet import FleetServer, RolloutPlan, build_bundle, compat_diff
from repro.fleet.control import ControlConfig, ControlPlane
from repro.fleet.server import FLEET_SPEC_REGRESSING, FLEET_SPEC_V2
from repro.peripherals import PeripheralSet, parse_fault_spec
from repro.sim.analysis import action_summary, render_timeline
from repro.sim.device import Device
from repro.sim.experiments import (
    Sweep,
    format_rows,
    metric_completed,
    metric_reboots,
    metric_total_energy_mj,
    metric_total_time,
)
from repro.sim.pool import ResultCache
from repro.spec.consistency import check as consistency_check
from repro.spec.mayfly_frontend import load_mayfly_properties
from repro.spec.validator import load_properties
from repro.statemachine.codegen_c import generate_c_bundle, generate_c_header
from repro.verify import (
    EXTRA_SCENARIOS,
    RUNTIMES,
    WORKLOADS,
    CounterexampleShrinker,
    iter_scenarios,
    run_memory_model,
    run_self_test,
    run_war_self_test,
)
from repro.statemachine.codegen_python import generate_python_source
from repro.workloads.health import build_health_app
from repro.statemachine.textual import print_machine
from repro.taskgraph.app import Application
from repro.taskgraph.path import Path as TaskPath
from repro.taskgraph.task import Task


def load_app(path: str) -> Application:
    """Build an :class:`Application` from a JSON description file."""
    with open(path) as handle:
        return app_from_desc(json.load(handle), Path(path).stem)


def app_from_desc(desc: dict, default_name: str) -> Application:
    """Build an :class:`Application` from a parsed JSON description;
    ``default_name`` names it when the description does not."""
    declared_sensors = desc.get("sensors", {})

    def _sensing_body(sensor, channel):
        return lambda ctx: ctx.write(channel, ctx.sample(sensor))

    tasks = []
    for t in desc["tasks"]:
        body = None
        if "sense" in t:
            if t["sense"] not in declared_sensors:
                raise RuntimeConfigError(
                    f"task {t['name']!r} senses unknown sensor "
                    f"{t['sense']!r} (declare it in the \"sensors\" table)"
                )
            body = _sensing_body(t["sense"], t["name"])
        tasks.append(Task(t["name"], body=body,
                          monitored_vars=t.get("monitored_vars", ())))
    paths = [
        TaskPath(int(number), names) for number, names in desc["paths"].items()
    ]
    sensors = {
        name: (lambda t, _v=value: _v)
        for name, value in desc.get("sensors", {}).items()
    }
    return Application(desc.get("name", default_name), tasks, paths,
                       sensors=sensors)


def load_power(path: str) -> PowerModel:
    """Per-task costs from the app JSON's ``costs`` table."""
    with open(path) as handle:
        return power_from_desc(json.load(handle))


def power_from_desc(desc: dict) -> PowerModel:
    """Per-task costs from a parsed app description's ``costs`` table."""
    costs = {
        name: TaskCost(
            entry["duration_s"],
            entry.get("power_w", MCU_ACTIVE_POWER_W),
            entry.get("fixed_energy_j", 0.0),
        )
        for name, entry in desc.get("costs", {}).items()
    }
    return PowerModel(costs, default_cost=TaskCost(0.05, MCU_ACTIVE_POWER_W))


def _read_spec(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_props(args: argparse.Namespace, app: Application):
    """Load properties through the selected language frontend."""
    source = _read_spec(args.spec)
    if getattr(args, "frontend", "artemis") == "mayfly":
        return load_mayfly_properties(source, app)
    return load_properties(source, app)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def spec_diagnostic(source: str, path: str, exc: SpecError) -> str:
    """Render a sourced compiler-style diagnostic for a spec error.

    When the exception carries a position (``line``/``column``, both
    1-based), the offending source line is echoed with a caret span of
    ``width`` columns underneath; a ``hint`` attribute becomes a
    trailing ``= hint:`` note. Errors without a position degrade to the
    bare message.
    """
    lines = [f"error: {exc}"]
    line = getattr(exc, "line", None)
    column = getattr(exc, "column", None)
    if line is not None and column is not None:
        source_lines = source.splitlines()
        if 1 <= line <= len(source_lines):
            text = source_lines[line - 1]
            width = max(1, int(getattr(exc, "width", None) or 1))
            gutter = len(str(line))
            lines.append(f"{'':>{gutter}}--> {path}:{line}:{column}")
            lines.append(f"{'':>{gutter}} |")
            lines.append(f"{line} | {text}")
            lines.append(f"{'':>{gutter}} | {'':>{column - 1}}{'^' * width}")
    hint = getattr(exc, "hint", None)
    if hint:
        lines.append(f"  = hint: {hint}")
    return "\n".join(lines)


def cmd_check(args: argparse.Namespace) -> int:
    """Run the ``check`` subcommand; returns the process exit code."""
    app = load_app(args.app)
    try:
        props = _load_props(args, app)
    except SpecError as exc:
        print(spec_diagnostic(_read_spec(args.spec), args.spec, exc),
              file=sys.stderr)
        return 1
    print(f"specification OK: {len(props)} properties on "
          f"{len(props.tasks())} tasks")
    power = load_power(args.app) if args.with_power else None
    capacitor = default_capacitor() if args.with_power else None
    report = consistency_check(props, app, power=power, capacitor=capacitor)
    print(report)
    return 0 if report.consistent else 1


def cmd_compile(args: argparse.Namespace) -> int:
    """Run the ``compile`` subcommand; returns the process exit code."""
    app = load_app(args.app)
    props = _load_props(args, app)
    if args.auto_priorities:
        from repro.analysis import with_derived_priorities

        ranked = with_derived_priorities(props, app, load_power(args.app))
        if ranked is props:
            print("auto-priorities: spec has hand-written priorities; "
                  "keeping them")
        else:
            for prop in ranked:
                if type(prop).SUPPORTS_PRIORITY:
                    print(f"auto-priority {prop.priority}: "
                          f"{prop.machine_name()}")
        props = ranked
    plan = build_monitor_plan(props, share_subformulas=args.share_subformulas)
    machines = plan.machines
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sm_path = out_dir / "monitors.sm"
    sm_path.write_text("".join(print_machine(m) + "\n" for m in machines))
    py_path = out_dir / "monitors.py"
    py_source = (
        '"""Generated ARTEMIS monitors. DO NOT EDIT."""\n\n'
        "from repro.statemachine.interpreter import Verdict\n"
        "from repro.errors import StateMachineError\n\n\n"
        + "\n\n".join(generate_python_source(m) for m in machines)
    )
    py_path.write_text(py_source)
    c_path = out_dir / "monitors.c"
    c_path.write_text(generate_c_bundle(machines))
    h_path = out_dir / "monitor.h"
    h_path.write_text(generate_c_header())

    if plan.naive_monitors != plan.shared_monitors:
        ratio = plan.shared_monitors / plan.naive_monitors
        print(f"{len(props)} properties -> {plan.shared_monitors} monitors "
              f"(naive {plan.naive_monitors}, sharing ratio {ratio:.2f})")
    else:
        print(f"{len(props)} properties -> {len(machines)} monitors")
    for path in (sm_path, py_path, c_path, h_path):
        print(f"  wrote {path}")
    return 0


def _build_peripherals(app: Application, specs) -> Optional[PeripheralSet]:
    """PeripheralSet from repeated ``--sensor-faults`` values, or None."""
    if not specs:
        return None
    peripherals = PeripheralSet(app.sensors)
    for text in specs:
        sensor, fault = parse_fault_spec(text)
        if sensor not in peripherals:
            raise RuntimeConfigError(
                f"--sensor-faults names unknown sensor {sensor!r} "
                f"(declare it in the app JSON's \"sensors\" table)"
            )
        peripherals.attach(sensor, fault)
    return peripherals


def _parse_degradation(text: Optional[str]):
    """``LOW:HIGH`` watermark fractions of one capacitor charge cycle."""
    if text is None:
        return None
    try:
        low_s, high_s = text.split(":", 1)
        low, high = float(low_s), float(high_s)
    except ValueError:
        raise RuntimeConfigError(
            f"--degradation must be LOW:HIGH fractions, got {text!r}"
        ) from None
    usable = default_capacitor().usable_energy_per_cycle
    return (low * usable, high * usable)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the ``analyze`` subcommand; returns the process exit code.

    Exit codes: 0 = every path statically terminates, 1 = usage error,
    3 = at least one path is statically non-terminating under the given
    power model — at ``--charging-delay`` when one is given, at *some*
    finite charging delay otherwise.
    """
    from repro.analysis import analyze, derive_priorities

    app = load_app(args.app)
    props = _load_props(args, app)
    power = load_power(args.app)
    report = analyze(app, props, power)
    delay = args.charging_delay
    flagged = (report.nonterminating_paths(delay) if delay is not None
               else [p.number for p in report.paths
                     if p.threshold_s is not None])
    if args.json:
        payload = report.to_dict()
        payload["auto_priorities"] = derive_priorities(report)
        if delay is not None:
            payload["charging_delay_s"] = delay
            payload["nonterminating_paths"] = flagged
        print(json.dumps(payload, indent=2))
    else:
        print(report.describe())
        ranks = derive_priorities(report)
        if ranks:
            print()
            print("auto-derived degradation priorities (0 sheds first):")
            for name, rank in sorted(ranks.items(), key=lambda kv: kv[1]):
                print(f"  {rank}: {name}")
        if delay is not None:
            print()
            verdict = (f"non-terminating paths: {flagged}" if flagged
                       else "all paths terminate")
            print(f"at charging delay {delay:g}s: {verdict}")
    return 3 if flagged else 0


def _predictive_factory(app, props, power, watermarks, env):
    """Degradation factory wiring the predictive controller to the
    runtime's own monitor/audit (the callable form ArtemisRuntime
    accepts)."""
    from repro.analysis import HarvestForecaster, analyze
    from repro.core.degradation import PredictiveDegradationController

    report = analyze(app, props, power)
    low_j, high_j = watermarks

    def build(monitor, audit):
        # The CLI simulation knows its own harvester, so the forecaster
        # gets exact trace lookahead; a blind deployment would pass
        # trace=None and rely on the windowed EWMA.
        forecaster = HarvestForecaster(trace=env.harvester)
        return PredictiveDegradationController(
            monitor, low_j, high_j, report,
            forecaster=forecaster, audit=audit)

    return build


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the ``simulate`` subcommand; returns the process exit code."""
    app = load_app(args.app)
    props = _load_props(args, app)
    power = load_power(args.app)
    if args.charging_delay > 0:
        env = EnergyEnvironment.for_charging_delay(
            args.charging_delay, default_capacitor())
    else:
        env = EnergyEnvironment.continuous()
    device = Device(env, clock_error=args.clock_error, seed=args.seed)
    degradation = _parse_degradation(args.degradation)
    if args.predictive_degradation:
        if degradation is None:
            # Default watermarks for the reactive fallback leg.
            degradation = _parse_degradation("0.35:0.85")
        degradation = _predictive_factory(app, props, power, degradation,
                                          env)
    runtime = ArtemisRuntime(app, props, device, power,
                             audit_capacity=args.audit,
                             peripherals=_build_peripherals(
                                 app, args.sensor_faults),
                             degradation=degradation)
    result = device.run(runtime, runs=args.runs, max_time_s=args.max_time)

    print(result.summary())
    actions = action_summary(device.trace)
    if actions:
        print("monitor actions:",
              ", ".join(f"{k}x{v}" for k, v in sorted(actions.items())))
    if args.timeline:
        print()
        print(render_timeline(device.trace))
    if runtime.audit is not None:
        print()
        print("audit log (persistent ring buffer):")
        print(runtime.audit.dump())
    return 0 if result.completed else 2


def _sweep_point(app_desc: dict, app_name: str, spec: str, frontend: str,
                 point: dict):
    """The ``sweep`` subcommand's per-point build. ``cmd_sweep`` binds
    the app description and spec *text*, not paths, in a partial: it
    pickles for the pool, and editing either file changes the cache key."""
    app = app_from_desc(app_desc, app_name)
    if frontend == "mayfly":
        props = load_mayfly_properties(spec, app)
    else:
        props = load_properties(spec, app)
    power = power_from_desc(app_desc)
    if point["delay_s"] > 0:
        env = EnergyEnvironment.for_charging_delay(
            point["delay_s"], default_capacitor())
    else:
        env = EnergyEnvironment.continuous()
    device = Device(env, seed=point["seed"])
    runtime = ArtemisRuntime(app, props, device, power)
    return device, runtime


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the ``sweep`` subcommand; returns the process exit code.

    Executes the application over a charging-delay × seed grid —
    the Figure 12/14-style experiment — optionally sharded across
    ``--jobs`` worker processes and served from a result cache.
    """
    delays = [float(x) for x in args.delays.split(",") if x.strip()]
    seeds = [int(x) for x in args.seeds.split(",") if x.strip()]
    if not delays or not seeds:
        raise RuntimeConfigError("--delays and --seeds need at least one value")
    with open(args.app) as handle:
        app_desc = json.load(handle)
    build = functools.partial(_sweep_point, app_desc, Path(args.app).stem,
                              _read_spec(args.spec), args.frontend)
    sweep = Sweep(
        factors={"delay_s": delays, "seed": seeds},
        build=build,
        metrics={
            "completed": metric_completed,
            "time_s": metric_total_time,
            "energy_mJ": metric_total_energy_mj,
            "reboots": metric_reboots,
        },
        runs=args.runs,
        max_time_s=args.max_time,
    )
    cache = ResultCache(args.cache) if args.cache else None
    rows = sweep.run(parallel=args.jobs, cache=cache)
    print(format_rows(rows))
    if cache is not None:
        print(f"cache: {cache.hits} hits / {cache.misses} misses "
              f"({cache.hit_rate:.0%} hit rate) in {cache.root}")
    return 0 if all(row["completed"] for row in rows) else 2


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the ``verify`` subcommand; returns the process exit code.

    Exit codes: 0 = every checked schedule conforms and every search
    was exhaustive to its bound, 1 = usage or scenario error, 3 = at
    least one counterexample found, 4 = no counterexample but at least
    one search was cut short of the bound by the run budget (the result
    is NOT an exhaustiveness proof — raise ``--budget``).
    """
    if args.self_test:
        report, witness = run_self_test(bound=max(args.bound, 1),
                                        budget=args.budget,
                                        shrink_runs=args.shrink_runs)
        print("mutation self-test: injected commit-ordering bug caught")
        print(report.summary())
        print(witness.describe())
        schedule, mm_report = run_war_self_test()
        print("mutation self-test: injected write-privatization bug "
              f"caught from the single run {schedule}")
        print(mm_report.describe())
        return 0

    workloads = None if args.workload == "all" else (args.workload,)
    runtimes = None if args.runtime == "all" else (args.runtime,)
    failed = 0
    truncated = 0
    for scenario in iter_scenarios(workloads, runtimes):
        explorer = scenario.explorer()
        # POR is verdict-preserving but keyed on time-masked state, so
        # time-sensitive scenarios fall back to the unpruned search.
        por = args.por and not scenario.time_sensitive
        report = explorer.explore(bound=args.bound, budget=args.budget,
                                  strategy=args.strategy, por=por)
        print(report.summary())
        if report.truncated:
            truncated += 1
            print(f"  WARNING: search cut short of bound {args.bound} by "
                  f"the run budget ({args.budget}); schedules beyond the "
                  f"first {report.schedules_checked} are UNCHECKED — "
                  f"raise --budget for an exhaustive result")
        if not report.ok:
            failed += 1
            shrinker = CounterexampleShrinker(explorer,
                                              max_runs=args.shrink_runs)
            witness = shrinker.shrink(report.counterexamples[0])
            print(witness.describe())
            if args.memmodel:
                mm = run_memory_model(scenario.build,
                                      schedule=witness.schedule,
                                      run_kwargs=scenario.run_kwargs)
                print(mm.describe())
        elif args.memmodel:
            mm = run_memory_model(scenario.build, schedule=(),
                                  run_kwargs=scenario.run_kwargs,
                                  latent=True)
            print(f"  {mm.describe()}")
    if failed:
        return 3
    return 4 if truncated else 0


#: Named update specs a fleet rollout can ship from the CLI. ``v2`` is
#: the benign benchmark update; ``regressing`` carries an unsatisfiable
#: range check, so a staged rollout must halt at the canary wave.
_FLEET_UPDATES = {
    "v2": FLEET_SPEC_V2,
    "regressing": FLEET_SPEC_REGRESSING,
}


def _fleet_plan(args: argparse.Namespace) -> RolloutPlan:
    try:
        waves = tuple(float(x) for x in args.waves.split(",") if x.strip())
    except ValueError:
        raise RuntimeConfigError(
            f"--waves must be comma-separated fractions, got {args.waves!r}"
        ) from None
    return RolloutPlan(
        waves=waves,
        runs=args.runs,
        halt_threshold=args.halt_threshold,
        loss_rate=args.loss,
        use_delta=not args.full_bundle,
        seed=args.seed,
        lockstep=getattr(args, "lockstep", False),
        seed_mode=getattr(args, "seed_mode", "per_device"),
        expand_limit=getattr(args, "expand_limit", 100_000),
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the ``fleet`` subcommand; returns the process exit code.

    Exit codes: 0 = success, 1 = usage error, 3 = rollout halted by the
    regression gate.
    """
    new_spec = (_read_spec(args.spec_file) if args.spec_file
                else _FLEET_UPDATES[args.update])
    server = FleetServer()

    if args.action == "status":
        base = server.base_bundle
        target = build_bundle(new_spec, build_health_app(), version=2)
        diff = compat_diff(base, target)
        status = {
            "base": {"version": base.version, "hash": base.content_hash,
                     "machines": [name for name, _ in base.machines]},
            "update": {"version": target.version,
                       "hash": target.content_hash,
                       "machines": [name for name, _ in target.machines],
                       "wire_bytes_full": len(target.to_wire()),
                       "wire_bytes_delta": len(base.delta_to(target).to_wire())},
            "compat_diff": {"kept": list(diff.kept),
                            "changed": list(diff.changed),
                            "added": list(diff.added),
                            "removed": list(diff.removed)},
        }
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            base_i, update_i = status["base"], status["update"]
            print(f"base v{base_i['version']} ({base_i['hash'][:12]}): "
                  + ", ".join(base_i["machines"]))
            print(f"update v{update_i['version']} ({update_i['hash'][:12]}): "
                  + ", ".join(update_i["machines"]))
            print(f"wire: {update_i['wire_bytes_full']} B full, "
                  f"{update_i['wire_bytes_delta']} B delta")
            print("migration: "
                  + "; ".join(f"{k}={v}" for k, v
                              in status["compat_diff"].items()))
        return 0

    plan = _fleet_plan(args)
    on_event = None
    if getattr(args, "stream", False):
        def on_event(event: dict) -> None:
            # NDJSON event stream: one JSON object per line, flushed so
            # a piped consumer sees telemetry live, not at exit.
            print(json.dumps(event, default=str), flush=True)
    config = ControlConfig(
        queue_capacity=getattr(args, "queue_capacity", 256),
        policy=getattr(args, "policy", "block"),
    )

    if args.action == "serve":
        cache = ResultCache(args.cache) if args.cache else None
        plane = ControlPlane(server, plan=plan, jobs=args.jobs, cache=cache,
                             config=config, on_event=on_event)
        serve_report = plane.serve(args.devices, new_spec=new_spec,
                                   cycles=getattr(args, "cycles", 1))
        if args.json:
            print(json.dumps(serve_report.to_dict(), indent=2))
        elif not getattr(args, "stream", False):
            print(serve_report.describe())
        rollout = serve_report.rollout
        return 3 if rollout is not None and rollout.halted else 0

    if args.action == "telemetry":
        # One wave over the whole fleet: telemetry is about the reports,
        # not the staging policy.
        plan = RolloutPlan(
            waves=(1.0,), runs=plan.runs, halt_threshold=plan.halt_threshold,
            loss_rate=plan.loss_rate, use_delta=plan.use_delta,
            seed=plan.seed, lockstep=plan.lockstep, seed_mode=plan.seed_mode,
            expand_limit=plan.expand_limit,
        )
    cache = ResultCache(args.cache) if args.cache else None
    report = server.rollout(new_spec, args.devices, plan=plan,
                            jobs=args.jobs, cache=cache, config=config,
                            on_event=on_event)
    if args.action == "telemetry":
        rows = [t.to_row() for t in report.all_telemetry()]
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(format_rows(rows))
        return 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 3 if report.halted else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="artemis-repro",
        description="ARTEMIS toolchain: check, compile, and simulate "
                    "property-monitored intermittent applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a specification")
    p_check.add_argument("spec", help="property specification file")
    p_check.add_argument("--app", required=True, help="application JSON")
    p_check.add_argument("--frontend", choices=["artemis", "mayfly"],
                         default="artemis",
                         help="specification language of the input file")
    p_check.add_argument("--with-power", action="store_true",
                         help="also run timing/energy consistency checks")
    p_check.set_defaults(fn=cmd_check)

    p_compile = sub.add_parser("compile", help="generate monitor code")
    p_compile.add_argument("spec", help="property specification file")
    p_compile.add_argument("--app", required=True, help="application JSON")
    p_compile.add_argument("--frontend", choices=["artemis", "mayfly"],
                           default="artemis",
                           help="specification language of the input file")
    p_compile.add_argument("-o", "--out", default="generated",
                           help="output directory (default: ./generated)")
    p_compile.add_argument("--share-subformulas", dest="share_subformulas",
                           action="store_true", default=True,
                           help="hash-cons structurally equal temporal "
                                "subformulas into shared sub-monitors "
                                "(default)")
    p_compile.add_argument("--no-share-subformulas", dest="share_subformulas",
                           action="store_false",
                           help="compile every temporal property to its own "
                                "private sub-monitors (measures the sharing "
                                "win)")
    p_compile.add_argument("--auto-priorities", action="store_true",
                           help="derive degradation priorities from the "
                                "static cost-per-coverage ranking when the "
                                "spec carries no hand-written priority "
                                "modifiers")
    p_compile.set_defaults(fn=cmd_compile)

    p_sim = sub.add_parser("simulate", help="run on the simulated device")
    p_sim.add_argument("spec", help="property specification file")
    p_sim.add_argument("--app", required=True, help="application JSON")
    p_sim.add_argument("--frontend", choices=["artemis", "mayfly"],
                       default="artemis",
                       help="specification language of the input file")
    p_sim.add_argument("--charging-delay", type=float, default=0.0,
                       help="seconds of charging per brown-out "
                            "(0 = continuous power)")
    p_sim.add_argument("--runs", type=int, default=1)
    p_sim.add_argument("--max-time", type=float, default=4 * 3600.0,
                       help="simulated-time cap (non-termination cutoff)")
    p_sim.add_argument("--clock-error", type=float, default=0.0,
                       help="persistent-timekeeper relative error bound")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--timeline", action="store_true",
                       help="print an ASCII path timeline")
    p_sim.add_argument("--audit", type=int, default=0, metavar="N",
                       help="keep and print the last N corrective actions "
                            "from the persistent audit log")
    p_sim.add_argument("--sensor-faults", action="append", default=[],
                       metavar="SPEC",
                       help="inject a sensor fault: "
                            "SENSOR:KIND[:RATE][:opt=val...], e.g. "
                            "ppg:dropout:0.1:seed=7 (repeatable; kinds: "
                            "timeout, stuck, glitch, dropout)")
    p_sim.add_argument("--degradation", metavar="LOW:HIGH", default=None,
                       help="shed/restore monitors at these stored-energy "
                            "watermarks, as fractions of one capacitor "
                            "charge cycle (e.g. 0.35:0.85)")
    p_sim.add_argument("--predictive-degradation", action="store_true",
                       help="anticipatory shedding: consult the static "
                            "energy analysis and a harvest forecast at "
                            "each path boundary and shed the "
                            "unaffordable monitor set before the "
                            "brownout (falls back to the --degradation "
                            "watermarks reactively; default watermarks "
                            "0.35:0.85 when none are given)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_analyze = sub.add_parser(
        "analyze", help="static worst-case energy/latency analysis")
    p_analyze.add_argument("what", choices=("energy",),
                           help="analysis to run (currently: energy)")
    p_analyze.add_argument("spec", help="property specification file")
    p_analyze.add_argument("--app", required=True, help="application JSON")
    p_analyze.add_argument("--frontend", choices=["artemis", "mayfly"],
                           default="artemis",
                           help="specification language of the input file")
    p_analyze.add_argument("--charging-delay", type=float, default=None,
                           help="evaluate the non-termination predicate at "
                                "this charging delay (seconds); without it, "
                                "exit 3 when any path is non-terminating at "
                                "some finite delay")
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_sweep = sub.add_parser(
        "sweep", help="run a charging-delay x seed experiment grid")
    p_sweep.add_argument("spec", help="property specification file")
    p_sweep.add_argument("--app", required=True, help="application JSON")
    p_sweep.add_argument("--frontend", choices=["artemis", "mayfly"],
                         default="artemis",
                         help="specification language of the input file")
    p_sweep.add_argument("--delays", default="0",
                         help="comma-separated charging delays in seconds "
                              "(0 = continuous power)")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma-separated device seeds (replications)")
    p_sweep.add_argument("--runs", type=int, default=1)
    p_sweep.add_argument("--max-time", type=float, default=4 * 3600.0,
                         help="simulated-time cap per grid point")
    p_sweep.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes to shard the grid across")
    p_sweep.add_argument("--cache", nargs="?", const=".repro_cache",
                         default=None, metavar="DIR",
                         help="serve unchanged points from a result cache "
                              "(default dir: .repro_cache)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="crash-schedule conformance checking")
    p_verify.add_argument("--workload", default="all",
                          choices=("all",) + WORKLOADS + tuple(sorted(
                              {w for w, _ in EXTRA_SCENARIOS})),
                          help="workload to check (default: all; 'ota' "
                               "checks the fleet update pipeline)")
    p_verify.add_argument("--runtime", default="all",
                          choices=("all",) + RUNTIMES,
                          help="runtime to check (default: all)")
    p_verify.add_argument("--bound", type=int, default=2,
                          help="maximum crashes per schedule (default: 2)")
    p_verify.add_argument("--budget", type=int, default=1000,
                          help="simulated executions per scenario "
                               "(default: 1000). A search that hits the "
                               "budget before reaching --bound is reported "
                               "truncated, warned about, and exits 4 — it "
                               "is not an exhaustiveness proof")
    p_verify.add_argument("--strategy", choices=("bfs", "dfs"),
                          default="bfs",
                          help="frontier order: bfs exhausts k crashes "
                               "before k+1 (default), dfs drills deep first")
    p_verify.add_argument("--no-por", dest="por", action="store_false",
                          help="disable partial-order reduction (POR "
                               "collapses crash points with identical "
                               "recovery-projected signatures; on by "
                               "default, auto-skipped for time-sensitive "
                               "scenarios)")
    p_verify.add_argument("--memmodel", action="store_true",
                          help="also run the WAR/idempotence memory-model "
                               "oracles: a latent-hazard survey on passing "
                               "scenarios, a single-run diagnosis on each "
                               "shrunk counterexample")
    p_verify.add_argument("--shrink-runs", type=int, default=150,
                          help="execution budget for counterexample "
                               "minimization (default: 150)")
    p_verify.add_argument("--self-test", action="store_true",
                          help="inject known recovery and privatization "
                               "bugs and prove the checkers find them")
    p_verify.set_defaults(fn=cmd_verify)

    p_fleet = sub.add_parser(
        "fleet", help="fleet OTA: staged rollouts, status, telemetry")
    p_fleet.add_argument("action",
                         choices=("rollout", "status", "telemetry", "serve"),
                         help="rollout = staged waves with "
                              "halt-on-regression (exit 3 on halt); "
                              "status = describe the update bundle; "
                              "telemetry = per-device reports; "
                              "serve = always-on control plane (rollout "
                              "then --cycles monitoring passes)")
    p_fleet.add_argument("--update", default="v2",
                         choices=tuple(sorted(_FLEET_UPDATES)),
                         help="named update spec to ship (default: v2)")
    p_fleet.add_argument("--spec-file", default=None, metavar="FILE",
                         help="ship this spec file instead of --update")
    p_fleet.add_argument("--devices", type=int, default=20,
                         help="fleet size (default: 20)")
    p_fleet.add_argument("--waves", default="0.1,0.5,1.0",
                         help="cumulative wave fractions "
                              "(default: 0.1,0.5,1.0)")
    p_fleet.add_argument("--runs", type=int, default=3,
                         help="application runs each device simulates")
    p_fleet.add_argument("--halt-threshold", type=float, default=0.5,
                         help="halt when the paired-control violation "
                              "delta per run exceeds this (default: 0.5)")
    p_fleet.add_argument("--loss", type=float, default=0.05,
                         help="chunk-loss probability of the OTA link "
                              "(default: 0.05)")
    p_fleet.add_argument("--full-bundle", action="store_true",
                         help="ship a full bundle instead of a delta")
    p_fleet.add_argument("--seed", type=int, default=0,
                         help="perturbs per-device chunk-loss streams")
    p_fleet.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes per wave (streamed "
                              "devices, or lockstep cohort "
                              "representatives)")
    p_fleet.add_argument("--lockstep", action="store_true",
                         help="run waves through the lockstep cohort "
                              "core (repro.sim.batch)")
    p_fleet.add_argument("--seed-mode", dest="seed_mode",
                         choices=("per_device", "per_cohort"),
                         default="per_device",
                         help="per_cohort seeds RF/loss streams by energy "
                              "class (homogeneous cohorts, what --lockstep "
                              "amortizes over)")
    p_fleet.add_argument("--expand-limit", dest="expand_limit", type=int,
                         default=100_000,
                         help="largest lockstep wave expanded to per-device "
                              "telemetry; bigger waves use the compact "
                              "per-cohort rollup (default: 100000)")
    p_fleet.add_argument("--cache", nargs="?", const=".repro_cache",
                         default=None, metavar="DIR",
                         help="serve unchanged devices from a result "
                              "cache (default dir: .repro_cache)")
    p_fleet.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_fleet.add_argument("--stream", action="store_true",
                         help="emit control-plane events as NDJSON "
                              "(wave_start, telemetry, wave_decision, "
                              "cycle) while the rollout/serve runs")
    p_fleet.add_argument("--cycles", type=int, default=1,
                         help="monitoring passes after the rollout in "
                              "serve mode (default: 1)")
    p_fleet.add_argument("--policy", choices=("block", "shed_oldest"),
                         default="block",
                         help="ingestion backpressure policy: block = "
                              "lossless (producers wait), shed_oldest = "
                              "bounded latency (oldest report dropped "
                              "and counted)")
    p_fleet.add_argument("--queue-capacity", dest="queue_capacity",
                         type=int, default=256,
                         help="bounded telemetry queue depth "
                              "(default: 256)")
    p_fleet.set_defaults(fn=cmd_fleet)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
