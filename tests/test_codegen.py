"""Tests for the Python and C monitor code generators, including
differential testing of generated Python monitors against the reference
interpreter."""

import copy
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionType
from repro.core.events import MonitorEvent, end_event, start_event
from repro.core.generator import generate_machine
from repro.core.monitor import ArtemisMonitor
from repro.core.properties import (
    MITD,
    Collect,
    DpData,
    MaxDuration,
    MaxTries,
    Period,
    PropertySet,
)
from repro.nvm.memory import NonVolatileMemory
from repro.spec.validator import load_properties
from repro.statemachine.codegen_c import (
    generate_c_bundle,
    generate_c_source,
    nv_struct_bytes,
)
from repro.statemachine.codegen_python import (
    class_name,
    compile_machine,
    generate_python_source,
    instantiate,
)
from repro.statemachine.interpreter import MachineInstance
from repro.statemachine.model import (
    Assign,
    BinOp,
    Const,
    EventPattern,
    Fail,
    StateMachine,
    Transition,
    Var,
    Variable,
)
from repro.verify.workloads import VERIFY_TEMPORAL_SPEC, _temporal_app


def sample_properties():
    return [
        MaxTries(task="A", on_fail=ActionType.SKIP_PATH, limit=3),
        MaxDuration(task="A", on_fail=ActionType.SKIP_TASK, limit_s=5.0),
        Collect(task="A", on_fail=ActionType.RESTART_PATH, dep_task="B", count=2),
        MITD(task="A", on_fail=ActionType.RESTART_PATH, dep_task="B", limit_s=4.0),
        MITD(task="A", on_fail=ActionType.RESTART_PATH, dep_task="B", limit_s=4.0,
             max_attempt=2, max_attempt_action=ActionType.SKIP_PATH),
        Period(task="A", on_fail=ActionType.RESTART_TASK, period_s=10.0, jitter_s=1.0),
        DpData(task="A", on_fail=ActionType.COMPLETE_PATH, var="v", low=0.0, high=1.0),
    ]


class TestPythonCodegen:
    def test_source_is_valid_python(self):
        for prop in sample_properties():
            machine = generate_machine(prop)
            source = generate_python_source(machine)
            compile(source, "<test>", "exec")  # must not raise

    def test_class_name_convention(self):
        machine = generate_machine(sample_properties()[0])
        assert class_name(machine) == f"Monitor_{machine.name}"

    def test_compiled_class_interface(self):
        machine = generate_machine(sample_properties()[0])
        monitor = instantiate(machine)
        assert monitor.state == machine.initial
        assert monitor.get("i") == 0
        monitor.reset()
        assert monitor.state == machine.initial

    def test_generated_monitor_reports_failure(self):
        prop = MaxTries(task="A", on_fail=ActionType.SKIP_PATH, limit=2)
        monitor = instantiate(generate_machine(prop))
        monitor.on_event(start_event("A", 0.0))
        monitor.on_event(start_event("A", 1.0))
        verdicts = monitor.on_event(start_event("A", 2.0))
        assert [v.action for v in verdicts] == ["skipPath"]

    def test_store_backed_persistence(self):
        machine = generate_machine(sample_properties()[0])
        store = {}
        monitor = compile_machine(machine)(store)
        monitor.on_event(start_event("A", 0.0))
        revived = compile_machine(machine)(store)
        assert revived.state == monitor.state

    def test_missing_data_raises(self):
        prop = DpData(task="A", on_fail=ActionType.SKIP_TASK, var="v",
                      low=0.0, high=1.0)
        monitor = instantiate(generate_machine(prop))
        from repro.errors import StateMachineError

        with pytest.raises(StateMachineError):
            monitor.on_event(end_event("A", 0.0, {}))


class TestCompiledClassSharing:
    """Plans are shared process-wide by property set and generated
    classes by source text; the state behind them is not."""

    @staticmethod
    def _tries(limit, priority=0):
        return MaxTries(task="A", on_fail=ActionType.SKIP_PATH, limit=limit,
                        priority=priority)

    def _monitor(self, limit, priority=0, nvm=None, backend="generated"):
        props = PropertySet()
        props.add(self._tries(limit, priority))
        props.add(Collect(task="A", on_fail=ActionType.RESTART_PATH,
                          dep_task="B", count=2))
        return ArtemisMonitor(props, nvm if nvm is not None
                              else NonVolatileMemory(), backend=backend)

    @staticmethod
    def _classes(monitor):
        return {m.name: type(inst)
                for m, inst in zip(monitor.machines, monitor.instances)}

    @staticmethod
    def _state(monitor):
        return [(inst.state, [inst.get(v.name) for v in m.variables])
                for m, inst in zip(monitor.machines, monitor.instances)]

    def test_one_spec_shares_classes_but_not_state(self):
        a_nvm, b_nvm = NonVolatileMemory(), NonVolatileMemory()
        a, b = self._monitor(3, nvm=a_nvm), self._monitor(3, nvm=b_nvm)
        assert a.plan is b.plan
        for x, y in zip(a.instances, b.instances):
            assert type(x) is type(y)
            assert x is not y
        untouched = self._state(b)
        cells = copy.deepcopy(dict(b_nvm.raw_items()))
        writes = b_nvm.write_count
        for t in range(3):
            a.call(start_event("A", float(t)))
        assert self._state(a) != untouched
        assert self._state(b) == untouched
        assert dict(b_nvm.raw_items()) == cells
        assert b_nvm.write_count == writes

    def test_changed_machine_alone_gets_a_new_class(self):
        base = self._classes(self._monitor(3))
        changed = self._classes(self._monitor(5))
        assert base.keys() == changed.keys()
        tries = self._tries(3).machine_name()
        for name, cls in base.items():
            assert (changed[name] is cls) == (name != tries)

    def test_one_field_apart_gets_its_own_plan(self):
        base, later = self._monitor(3), self._monitor(3, priority=2)
        assert base.plan is not later.plan
        tries = self._tries(3).machine_name()
        assert base.machine_priority(tries) == 0
        assert later.machine_priority(tries) == 2
        assert self._monitor(3, priority=2).plan is later.plan

    def test_interpreted_backend_runs_the_shared_machines(self):
        generated = self._monitor(3)
        interpreted = self._monitor(3, backend="interpreted")
        assert interpreted.plan is generated.plan
        for machine, instance in zip(interpreted.machines,
                                     interpreted.instances):
            assert isinstance(instance, MachineInstance)
            assert instance.machine is machine
        for t in range(4):
            event = start_event("A", float(t))
            assert generated.call(event) == interpreted.call(event)
        assert self._state(generated) == self._state(interpreted)

    def test_temporal_sets_share_plans_not_sub_monitor_state(self):
        app = _temporal_app()
        loads = [load_properties(VERIFY_TEMPORAL_SPEC, app) for _ in range(2)]
        assert loads[0] is not loads[1]
        assert hash(tuple(loads[0])) == hash(tuple(loads[1]))
        monitors = {backend: [ArtemisMonitor(props, NonVolatileMemory(),
                                             backend=backend)
                              for props in loads]
                    for backend in ("generated", "interpreted")}
        plan = monitors["generated"][0].plan
        assert plan.sub_owners
        assert all(m.plan is plan for pair in monitors.values() for m in pair)
        events = [make(task, t, path=1) for t, (make, task) in enumerate([
            (start_event, "send"), (end_event, "send"),
            (start_event, "sense"), (end_event, "sense"),
            (start_event, "process"), (end_event, "process"),
            (start_event, "send"), (end_event, "send")])]
        verdicts = {}
        for backend, (first, second) in monitors.items():
            got = [first.call(event) for event in events]
            assert [second.call(event) for event in events] == got
            verdicts[backend] = got
        assert any(verdicts["generated"])
        assert verdicts["generated"] == verdicts["interpreted"]


class TestSharedPlansUnderThreads:
    """The streamed control plane builds both arms' devices on executor
    threads at once. A race may build a memo entry twice but must never
    hand a monitor another property set's plan or classes."""

    SPECS = [VERIFY_TEMPORAL_SPEC] + [
        f"sense {{ maxTries: {n} onFail: skipPath; }}" for n in range(2, 7)]

    def test_concurrent_builds_match_their_own_properties(self):
        import repro.core.monitor as monitor_module
        import repro.spec.validator as validator

        validator._parsed.cache_clear()
        monitor_module._monitor_plan.cache_clear()
        monitor_module._generated_classes.cache_clear()
        app = _temporal_app()
        errors = []

        def build(worker):
            try:
                for i in range(24):
                    spec = self.SPECS[(worker + i) % len(self.SPECS)]
                    props = load_properties(spec, app)
                    monitor = ArtemisMonitor(props, NonVolatileMemory())
                    assert (list(monitor.plan.prop_for_machine.values())
                            == list(props)), spec
                    for machine, instance in zip(monitor.machines,
                                                 monitor.instances):
                        assert type(instance) is compile_machine(machine)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors


def _event_stream_strategy():
    """Random plausible event streams over tasks A and B."""
    event = st.tuples(
        st.sampled_from(["startTask", "endTask"]),
        st.sampled_from(["A", "B", "C"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
    )
    return st.lists(event, min_size=0, max_size=40)


class TestDifferentialGeneratedVsInterpreted:
    """The generated Python monitor must agree with the reference
    interpreter on every event stream (same verdicts, same state)."""

    @pytest.mark.parametrize("prop", sample_properties(),
                             ids=lambda p: p.machine_name())
    @given(stream=_event_stream_strategy())
    @settings(max_examples=60, deadline=None)
    def test_agreement(self, prop, stream):
        machine = generate_machine(prop)
        interpreted = MachineInstance(machine)
        generated = compile_machine(machine)()
        t = 0.0
        for kind, task, dt, value, path in stream:
            t += dt if dt > 0 else 0.0
            event = MonitorEvent(kind, task, t, {"v": value}, path=path)
            v1 = interpreted.on_event(event)
            v2 = generated.on_event(event)
            assert [(v.action, v.path) for v in v1] == [
                (v.action, v.path) for v in v2
            ]
            assert interpreted.state == generated.state
        for var in machine.variables:
            assert interpreted.get(var.name) == generated.get(var.name)


class TestCCodegen:
    def test_emits_all_sections(self):
        machine = generate_machine(sample_properties()[0])
        c_src = generate_c_source(machine)
        assert f"typedef enum" in c_src
        assert f"{machine.name}_nv_t" in c_src
        assert "__nv" in c_src  # FRAM placement attribute
        assert f"void {machine.name}_reset(void)" in c_src
        assert f"void {machine.name}_step(" in c_src
        assert "_begin(monitor);" in c_src and "_end(monitor);" in c_src

    def test_bundle_has_dispatch_and_lifecycle(self):
        machines = [generate_machine(p) for p in sample_properties()[:3]]
        bundle = generate_c_bundle(machines)
        assert "MonitorResult_t callMonitor(const MonitorEvent_t *e)" in bundle
        assert "void resetMonitor(void)" in bundle
        assert "void monitorFinalize(void)" in bundle
        for machine in machines:
            assert f"{machine.name}_step(e, &r);" in bundle
            assert f"{machine.name}_reset();" in bundle

    def test_actions_upper_cased(self):
        prop = MaxTries(task="A", on_fail=ActionType.SKIP_PATH, limit=2)
        c_src = generate_c_source(generate_machine(prop))
        assert "ACTION_SKIPPATH" in c_src

    def test_guards_translated(self):
        prop = MITD(task="A", on_fail=ActionType.RESTART_PATH, dep_task="B",
                    limit_s=2.0)
        c_src = generate_c_source(generate_machine(prop))
        assert "e->timestamp" in c_src
        assert "&&" in c_src

    def test_nv_struct_bytes_alignment(self):
        machine = StateMachine(
            "m", ["S"], "S",
            variables=[Variable("a", "bool"), Variable("b", "int"),
                       Variable("c", "time")],
        )
        # state(2) + bool(1)+pad(1) + int32(4) + time/uint64(8) = 16
        assert nv_struct_bytes(machine) == 16

    def test_nv_struct_bytes_empty_machine(self):
        machine = StateMachine("m", ["S"], "S")
        assert nv_struct_bytes(machine) == 2

    def test_c_source_deterministic(self):
        machine = generate_machine(sample_properties()[3])
        assert generate_c_source(machine) == generate_c_source(machine)
