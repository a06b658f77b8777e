"""Model-to-text backend: generate Python monitor classes.

This is the executable leg of the paper's generation pipeline. Rather
than interpreting the machine at runtime, we *emit source code* for a
monitor class and compile it with :func:`compile`/``exec`` — the Python
analogue of the paper's generated C monitors. The generated class has the
same interface as :class:`~repro.statemachine.interpreter.MachineInstance`
(``reset``, ``on_event``, ``state``, ``get``) so the two are
differential-testable.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Dict, MutableMapping, Optional, Type

from repro.errors import GenerationError, StateMachineError
from repro.statemachine.interpreter import Verdict
from repro.statemachine.model import (
    ANY_EVENT,
    Assign,
    BinOp,
    Const,
    EventField,
    EventIs,
    EventPattern,
    Expr,
    ExternRef,
    Fail,
    HasData,
    If,
    Not,
    StateMachine,
    Stmt,
    Var,
)


def _gen_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return f"self._store['var.{expr.name}']"
    if isinstance(expr, EventField):
        if expr.field == "timestamp":
            return "event.timestamp"
        if expr.field == "task":
            return "event.task"
        if expr.field == "path":
            return "getattr(event, 'path', 0)"
        if expr.field.startswith("data."):
            key = expr.field[len("data."):]
            return f"self._data(event, {key!r})"
        raise GenerationError(f"unknown event field {expr.field!r}")
    if isinstance(expr, EventIs):
        cond = f"event.kind == {expr.kind!r}"
        if expr.task is not None:
            cond += f" and event.task == {expr.task!r}"
        return f"({cond})"
    if isinstance(expr, HasData):
        return f"({expr.key!r} in (getattr(event, 'data', None) or {{}}))"
    if isinstance(expr, ExternRef):
        return f"self._extern({expr.machine!r}, {expr.var!r})"
    if isinstance(expr, Not):
        return f"(not {_gen_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        py_op = {"and": "and", "or": "or"}.get(expr.op, expr.op)
        return f"({_gen_expr(expr.left)} {py_op} {_gen_expr(expr.right)})"
    raise GenerationError(f"cannot generate expression {expr!r}")


def _gen_stmt(stmt: Stmt, indent: str) -> list:
    if isinstance(stmt, Assign):
        return [f"{indent}self._store['var.{stmt.var}'] = {_gen_expr(stmt.expr)}"]
    if isinstance(stmt, Fail):
        return [
            f"{indent}verdicts.append(Verdict(self.MACHINE_NAME, "
            f"{stmt.action!r}, {stmt.path!r}))"
        ]
    if isinstance(stmt, If):
        lines = [f"{indent}if {_gen_expr(stmt.cond)}:"]
        body = [ln for s in stmt.then for ln in _gen_stmt(s, indent + "    ")]
        lines.extend(body or [f"{indent}    pass"])
        if stmt.orelse:
            lines.append(f"{indent}else:")
            lines.extend(ln for s in stmt.orelse for ln in _gen_stmt(s, indent + "    "))
        return lines
    raise GenerationError(f"cannot generate statement {stmt!r}")


def _gen_trigger_cond(trigger: EventPattern) -> str:
    conds = []
    if trigger.kind != ANY_EVENT:
        conds.append(f"event.kind == {trigger.kind!r}")
    if trigger.task is not None:
        conds.append(f"event.task == {trigger.task!r}")
    return " and ".join(conds) if conds else "True"


def generate_python_source(machine: StateMachine) -> str:
    """Emit Python source text for a monitor class for ``machine``."""
    cls = class_name(machine)
    lines = [
        f"class {cls}:",
        f"    '''Generated monitor for state machine {machine.name!r}.'''",
        "",
        f"    MACHINE_NAME = {machine.name!r}",
        f"    STATES = {tuple(machine.states)!r}",
        f"    PRIORITY = {machine.priority!r}",
        "",
        "    def __init__(self, store=None, extern=None):",
        "        self._store = store if store is not None else {}",
        "        self._extern_resolver = extern",
        "        if 'state' not in self._store:",
        "            self.reset()",
        "",
        "    def reset(self):",
        f"        self._store['state'] = {machine.initial!r}",
    ]
    for v in machine.variables:
        lines.append(f"        self._store['var.{v.name}'] = {v.initial_value!r}")
    lines.extend(
        [
            "",
            "    @property",
            "    def state(self):",
            "        return self._store['state']",
            "",
            "    def get(self, name):",
            "        return self._store['var.' + name]",
            "",
            "    def _extern(self, machine, var):",
            "        if self._extern_resolver is None:",
            "            raise StateMachineError(",
            "                'extern read %s.%s without a resolver'",
            "                % (machine, var))",
            "        return self._extern_resolver(machine, var)",
            "",
            "    @staticmethod",
            "    def _data(event, key):",
            "        data = getattr(event, 'data', None) or {}",
            "        if key not in data:",
            "            raise StateMachineError(",
            "                'event carries no dependent data %r' % (key,))",
            "        return data[key]",
            "",
            "    def on_event(self, event):",
            "        verdicts = []",
            "        state = self._store['state']",
        ]
    )
    first = True
    for state in machine.states:
        kw = "if" if first else "elif"
        first = False
        lines.append(f"        {kw} state == {state!r}:")
        transitions = machine.transitions_from(state)
        if not transitions:
            lines.append("            pass")
            continue
        for t in transitions:
            cond = _gen_trigger_cond(t.trigger)
            if t.guard is not None:
                cond = f"({cond}) and ({_gen_expr(t.guard)})"
            lines.append(f"            if {cond}:")
            for stmt in t.body:
                lines.extend(_gen_stmt(stmt, "                "))
            lines.append(f"                self._store['state'] = {t.target!r}")
            lines.append("                return verdicts")
    lines.append("        return verdicts")
    lines.append("")
    return "\n".join(lines) + "\n"


def class_name(machine: StateMachine) -> str:
    """Name of the generated monitor class for a machine."""
    return f"Monitor_{machine.name}"


def compile_machine(machine: StateMachine) -> Type:
    """Generate, compile, and return the monitor class for ``machine``.

    Classes are shared process-wide by generated source text, so a fleet
    provisioned from one spec compiles each machine once per process;
    each instance still keeps its own store and extern resolver.
    """
    source = generate_python_source(machine)
    # Two threads that miss on one source would each compile a class,
    # and one caller would keep a class the cache no longer returns.
    with _compile_lock:
        return _compile(source, class_name(machine))


#: Distinct generated classes kept per process (far above any one
#: spec's machine count; bounded so distinct specs cannot grow memory).
_COMPILED_CLASSES = 256

#: Serializes :func:`_compile` misses. Re-created in a forked child, so
#: a pool worker forked while another thread compiles does not inherit
#: it held (as :mod:`logging` does for its module lock).
_compile_lock = threading.Lock()


def _reset_compile_lock() -> None:
    global _compile_lock
    _compile_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_compile_lock)


@functools.lru_cache(maxsize=_COMPILED_CLASSES)
def _compile(source: str, name: str) -> Type:
    namespace: Dict[str, Any] = {
        "Verdict": Verdict,
        "StateMachineError": StateMachineError,
    }
    code = compile(source, filename=f"<generated {name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    return namespace[name]


def instantiate(machine: StateMachine,
                store: Optional[MutableMapping[str, Any]] = None,
                extern: Optional[Any] = None):
    """Convenience: compile and construct a monitor in one call."""
    return compile_machine(machine)(store, extern)
