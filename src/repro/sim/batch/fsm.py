"""Vectorized, table-driven FSM evaluation across a device axis.

A :class:`BatchMachineSet` holds the monitor FSM state of *every lane*
(device) in a batch as struct-of-arrays columns — one int64
state column and one typed column per machine variable — and evaluates
transitions across the whole lane axis at once:

* machine dispatch reuses the **existing precompiled subscription
  tables** (:func:`repro.core.monitor.subscription_tables`), so the
  batched kernel inspects exactly the machines the scalar monitor
  charges for;
* per machine, transitions are compiled into dense per-source-state
  candidate lists evaluated with "not yet matched" lane masks, so the
  scalar semantics — *first* declared matching transition wins, one
  transition per event — hold lane-wise;
* guards and bodies evaluate as masked array programs on the numpy
  backend, with proper short-circuit masking (the right operand of
  ``and``/``or`` is only "evaluated" for lanes where it matters, so a
  division guarded by a zero check never raises spuriously). The pure
  Python backend steps lanes through the same compiled tables with the
  reference interpreter's exact evaluation order.

Semantics are differential-tested against
:class:`~repro.statemachine.interpreter.MachineInstance` (the repo's
semantic ground truth) in ``tests/test_batch_differential.py`` and
``tests/test_tl_differential.py``.

No production path calls this kernel: the lockstep fleet core
(:mod:`repro.sim.batch.core`) reads every output of a cohort off its
scalar representative, whose lanes are byte-identical by construction.
The kernel stays as one side of the interpreter / generated code /
batch kernel byte-identity contract, which those suites execute.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import subscription_tables
from repro.errors import StateMachineError
from repro.sim.batch.layout import BatchArrays, resolve_backend
from repro.statemachine.interpreter import Verdict
from repro.statemachine.model import (
    ANY_EVENT,
    Assign,
    BinOp,
    Const,
    EventField,
    EventIs,
    ExternRef,
    Fail,
    HasData,
    If,
    Not,
    StateMachine,
    Var,
)

try:  # pragma: no cover - both backends are exercised in tests
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

_VAR_DTYPES = {"int": "int64", "float": "float64", "bool": "bool",
               "time": "float64"}

_DIV_ZERO_MSG = "division by zero in guard/body expression"


class CompiledMachineTable:
    """Dense transition tables for one machine.

    ``by_state`` maps each state index to its transitions in declaration
    order as ``(target_idx, trigger_kind, trigger_task, guard, body)``
    tuples — the representation both backends step from.
    """

    def __init__(self, machine: StateMachine):
        self.machine = machine
        self.states = list(machine.states)
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.initial_idx = self.state_index[machine.initial]
        self.variables = list(machine.variables)
        self.var_dtypes = {v.name: _VAR_DTYPES[v.type] for v in self.variables}
        self.by_state: Dict[int, List[Tuple[int, str, Optional[str], Any, tuple]]] = {}
        for state in self.states:
            rows = [
                (self.state_index[t.target], t.trigger.kind, t.trigger.task,
                 t.guard, t.body)
                for t in machine.transitions_from(state)
            ]
            if rows:
                self.by_state[self.state_index[state]] = rows


def _event_field(event: Any, field: str) -> Any:
    """Mirror of the interpreter's event-field access."""
    if field == "timestamp":
        return event.timestamp
    if field == "task":
        return event.task
    if field == "path":
        return getattr(event, "path", 0)
    if field.startswith("data."):
        key = field[len("data."):]
        data = getattr(event, "data", None) or {}
        if key not in data:
            raise StateMachineError(f"event carries no dependent data {key!r}")
        return data[key]
    raise StateMachineError(f"unknown event field {field!r}")


class BatchMachineSet:
    """SoA monitor FSM state for ``n_lanes`` devices, stepped in bulk.

    Args:
        machines: the monitor's state machines (one per property).
        n_lanes: devices in the batch.
        backend: ``"numpy"`` / ``"python"`` / ``"auto"``.
    """

    def __init__(self, machines: Sequence[StateMachine], n_lanes: int,
                 backend: str = "auto"):
        self.machines = list(machines)
        self.n_lanes = n_lanes
        self.backend = resolve_backend(backend)
        self.tables = [CompiledMachineTable(m) for m in self.machines]
        self._by_name = {m.name: i for i, m in enumerate(self.machines)}
        # The same frozen dispatch tables the scalar monitor and the
        # static energy analyzer share.
        self.wildcard_set, self.dispatch = subscription_tables(self.machines)
        #: Amortized emission rollup: (machine, action, path) → number of
        #: lane-verdicts fired, maintained per batch-step without ever
        #: materializing per-lane Verdict objects.
        self.emitted: Dict[Tuple[str, str, Optional[int]], int] = {}
        self.arrays = BatchArrays(n_lanes, backend=self.backend)
        for machine, table in zip(self.machines, self.tables):
            self.arrays.add_column(f"{machine.name}.state", "int64",
                                   fill=table.initial_idx)
            for var in table.variables:
                self.arrays.add_column(
                    f"{machine.name}.var.{var.name}",
                    table.var_dtypes[var.name],
                    fill=var.initial_value,
                )

    # ------------------------------------------------------------------
    # Lane state access
    # ------------------------------------------------------------------
    def reset_machine(self, machine_name: str,
                      lanes: Optional[List[int]] = None) -> None:
        idx = self._machine_idx(machine_name)
        table = self.tables[idx]
        self.arrays.fill(f"{machine_name}.state", table.initial_idx, lanes)
        for var in table.variables:
            self.arrays.fill(f"{machine_name}.var.{var.name}",
                             var.initial_value, lanes)

    def reset(self, lanes: Optional[List[int]] = None) -> None:
        for machine in self.machines:
            self.reset_machine(machine.name, lanes)

    def lane_store(self, machine_name: str, lane: int) -> Dict[str, Any]:
        """One lane's machine state in the scalar store's key shape
        (``state`` + ``var.<name>``) with native Python values, directly
        comparable with a scalar machine's NVM-backed store."""
        idx = self._machine_idx(machine_name)
        table = self.tables[idx]
        out: Dict[str, Any] = {
            "state": table.states[self.arrays.get(f"{machine_name}.state", lane)]
        }
        for var in table.variables:
            out[f"var.{var.name}"] = self.arrays.get(
                f"{machine_name}.var.{var.name}", lane)
        return out

    def load_lane(self, machine_name: str, lane: int,
                  store: Dict[str, Any]) -> None:
        """Overwrite one lane's machine state from a scalar store
        snapshot."""
        idx = self._machine_idx(machine_name)
        table = self.tables[idx]
        state = store["state"]
        if state not in table.state_index:
            raise StateMachineError(
                f"{machine_name}: cannot load illegal state {state!r}")
        self.arrays.set(f"{machine_name}.state", lane,
                        table.state_index[state])
        for var in table.variables:
            self.arrays.set(f"{machine_name}.var.{var.name}", lane,
                            store[f"var.{var.name}"])

    def _machine_idx(self, machine_name: str) -> int:
        try:
            return self._by_name[machine_name]
        except KeyError:
            raise StateMachineError(f"no machine {machine_name!r}") from None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, event: Any) -> Dict[int, List[Verdict]]:
        """Feed one event to every *subscribed* machine across all lanes.

        Machine relevance comes from the precompiled subscription
        tables, exactly as in ``ArtemisMonitor._steps``; machines are
        stepped in declaration order so multi-machine verdict order
        matches the scalar monitor. Returns ``{lane: [verdicts...]}``
        (lanes with no verdicts are absent).
        """
        relevant = self.dispatch.get(event.task, self.wildcard_set)
        verdicts: Dict[int, List[Verdict]] = {}
        for idx in range(len(self.machines)):
            if idx in relevant:
                self.step_machine(self.machines[idx].name, event,
                                  _out=verdicts)
        return verdicts

    def step_machine(self, machine_name: str, event: Any,
                     _out: Optional[Dict[int, List[Verdict]]] = None,
                     collect: bool = True) -> Dict[int, List[Verdict]]:
        """Feed one event to one machine across all lanes, whatever the
        dispatch tables say (the caller has already decided that this
        machine inspects the event).

        ``collect=False`` skips per-lane ``Verdict`` materialization and
        only maintains the amortized :attr:`emitted` rollup — for wide
        batches, where per-lane verdict lists would dominate the step
        cost.
        """
        idx = self._machine_idx(machine_name)
        out = _out if _out is not None else {}
        if self.backend == "numpy":
            self._step_numpy(idx, event, out, collect)
        else:
            self._step_python(idx, event, out)
        return out

    # ------------------------------------------------------------------
    # numpy backend
    # ------------------------------------------------------------------
    def _step_numpy(self, idx: int, event: Any,
                    out: Dict[int, List[Verdict]],
                    collect: bool = True) -> None:
        table = self.tables[idx]
        name = table.machine.name
        state_col = self.arrays.column(f"{name}.state")
        unmatched = _np.ones(self.n_lanes, dtype=bool)
        fired: List[Tuple[Any, str, Optional[int]]] = []
        for s_idx, rows in table.by_state.items():
            in_state = state_col == s_idx
            if not in_state.any():
                continue
            for target_idx, kind, task, guard, body in rows:
                if kind != ANY_EVENT and kind != event.kind:
                    continue
                if task is not None and task != event.task:
                    continue
                active = in_state & unmatched
                if not active.any():
                    break
                if guard is not None:
                    gval = self._eval_numpy(guard, event, name, active)
                    chosen = active & self._truthy(gval)
                else:
                    chosen = active
                if not chosen.any():
                    continue
                self._exec_numpy(body, chosen, event, name, fired)
                state_col[chosen] = target_idx
                unmatched &= ~chosen
        for mask, action, path in fired:
            key = (name, action, path)
            self.emitted[key] = self.emitted.get(key, 0) + int(mask.sum())
            if collect:
                for lane in _np.flatnonzero(mask):
                    out.setdefault(int(lane), []).append(
                        Verdict(name, action, path))

    def _truthy(self, value: Any) -> Any:
        if isinstance(value, _np.ndarray):
            return value.astype(bool)
        return _np.full(self.n_lanes, bool(value), dtype=bool)

    def _eval_numpy(self, expr: Any, event: Any, machine_name: str,
                    mask: Any) -> Any:
        """Evaluate an expression over the lane axis.

        ``mask`` marks the lanes whose value will actually be consumed;
        a division by zero only raises if it lands on one of them (the
        scalar interpreter's behaviour, lane-wise), and the right-hand
        side of ``and``/``or`` is checked only on lanes the left side
        does not already decide (short-circuit, masked).
        """
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return self.arrays.column(f"{machine_name}.var.{expr.name}")
        if isinstance(expr, EventField):
            return _event_field(event, expr.field)
        if isinstance(expr, EventIs):
            return expr.kind == event.kind and (
                expr.task is None or expr.task == event.task)
        if isinstance(expr, HasData):
            return expr.key in (getattr(event, "data", None) or {})
        if isinstance(expr, ExternRef):
            # Peer machine columns live in the same SoA table; the
            # dispatch loop steps machines in the monitor's dependency
            # order, so the column already reflects this event for
            # upstream machines.
            return self.arrays.column(f"{expr.machine}.var.{expr.var}")
        if isinstance(expr, Not):
            return ~self._truthy(
                self._eval_numpy(expr.operand, event, machine_name, mask))
        if isinstance(expr, BinOp):
            op = expr.op
            if op in ("and", "or"):
                left = self._truthy(
                    self._eval_numpy(expr.left, event, machine_name, mask))
                rmask = mask & (left if op == "and" else ~left)
                if not rmask.any():
                    # The left side already decides every consumed lane:
                    # skip the right side entirely, so guarded reads like
                    # ``hasData(k) and data.k < v`` never touch missing
                    # event data (the scalar interpreter's behaviour).
                    return left
                right = self._truthy(
                    self._eval_numpy(expr.right, event, machine_name, rmask))
                return left & right if op == "and" else left | right
            left = self._eval_numpy(expr.left, event, machine_name, mask)
            right = self._eval_numpy(expr.right, event, machine_name, mask)
            return self._apply_numpy(op, left, right, mask)
        raise StateMachineError(f"unknown expression node {expr!r}")

    def _apply_numpy(self, op: str, left: Any, right: Any, mask: Any) -> Any:
        if op == "/":
            if isinstance(right, _np.ndarray):
                zero = right == 0
                if bool((zero & mask).any()):
                    raise StateMachineError(_DIV_ZERO_MSG)
                safe = _np.where(zero, 1, right)
                return left / safe
            if right == 0:
                if bool(_np.asarray(mask).any()):
                    raise StateMachineError(_DIV_ZERO_MSG)
                return _np.zeros(self.n_lanes)
            return left / right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        raise StateMachineError(f"unknown operator {op!r}")

    def _exec_numpy(self, body: tuple, mask: Any, event: Any,
                    machine_name: str,
                    fired: List[Tuple[Any, str, Optional[int]]]) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                value = self._eval_numpy(stmt.expr, event, machine_name, mask)
                col = self.arrays.column(f"{machine_name}.var.{stmt.var}")
                if isinstance(value, _np.ndarray):
                    col[mask] = value[mask].astype(col.dtype)
                else:
                    col[mask] = value
            elif isinstance(stmt, Fail):
                fired.append((mask.copy(), stmt.action, stmt.path))
            elif isinstance(stmt, If):
                cond = self._truthy(
                    self._eval_numpy(stmt.cond, event, machine_name, mask))
                then_mask = mask & cond
                else_mask = mask & ~cond
                if then_mask.any():
                    self._exec_numpy(stmt.then, then_mask, event,
                                     machine_name, fired)
                if stmt.orelse and else_mask.any():
                    self._exec_numpy(stmt.orelse, else_mask, event,
                                     machine_name, fired)
            else:
                raise StateMachineError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # pure-Python backend (lane loop over the same compiled tables)
    # ------------------------------------------------------------------
    def _step_python(self, idx: int, event: Any,
                     out: Dict[int, List[Verdict]]) -> None:
        table = self.tables[idx]
        name = table.machine.name
        state_col = self.arrays.column(f"{name}.state")
        for lane in range(self.n_lanes):
            rows = table.by_state.get(state_col[lane])
            if not rows:
                continue
            for target_idx, kind, task, guard, body in rows:
                if kind != ANY_EVENT and kind != event.kind:
                    continue
                if task is not None and task != event.task:
                    continue
                if guard is not None and not self._eval_lane(
                        guard, event, name, lane):
                    continue
                self._exec_lane(body, event, name, lane, out)
                state_col[lane] = target_idx
                break

    def _eval_lane(self, expr: Any, event: Any, machine_name: str,
                   lane: int) -> Any:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return self.arrays.get(f"{machine_name}.var.{expr.name}", lane)
        if isinstance(expr, EventField):
            value = _event_field(event, expr.field)
            return value[lane] if isinstance(value, (list, tuple)) else value
        if isinstance(expr, EventIs):
            return expr.kind == event.kind and (
                expr.task is None or expr.task == event.task)
        if isinstance(expr, HasData):
            return expr.key in (getattr(event, "data", None) or {})
        if isinstance(expr, ExternRef):
            return self.arrays.get(f"{expr.machine}.var.{expr.var}", lane)
        if isinstance(expr, Not):
            return not self._eval_lane(expr.operand, event, machine_name, lane)
        if isinstance(expr, BinOp):
            op = expr.op
            if op == "and":
                return bool(self._eval_lane(expr.left, event, machine_name,
                                            lane)) and bool(
                    self._eval_lane(expr.right, event, machine_name, lane))
            if op == "or":
                return bool(self._eval_lane(expr.left, event, machine_name,
                                            lane)) or bool(
                    self._eval_lane(expr.right, event, machine_name, lane))
            left = self._eval_lane(expr.left, event, machine_name, lane)
            right = self._eval_lane(expr.right, event, machine_name, lane)
            if op == "/" and right == 0:
                raise StateMachineError(_DIV_ZERO_MSG)
            return {"+": lambda: left + right, "-": lambda: left - right,
                    "*": lambda: left * right, "/": lambda: left / right,
                    "<": lambda: left < right, "<=": lambda: left <= right,
                    ">": lambda: left > right, ">=": lambda: left >= right,
                    "==": lambda: left == right,
                    "!=": lambda: left != right}[op]()
        raise StateMachineError(f"unknown expression node {expr!r}")

    def _exec_lane(self, body: tuple, event: Any, machine_name: str,
                   lane: int, out: Dict[int, List[Verdict]]) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                self.arrays.set(
                    f"{machine_name}.var.{stmt.var}", lane,
                    self._eval_lane(stmt.expr, event, machine_name, lane))
            elif isinstance(stmt, Fail):
                key = (machine_name, stmt.action, stmt.path)
                self.emitted[key] = self.emitted.get(key, 0) + 1
                out.setdefault(lane, []).append(
                    Verdict(machine_name, stmt.action, stmt.path))
            elif isinstance(stmt, If):
                branch = (stmt.then if self._eval_lane(
                    stmt.cond, event, machine_name, lane) else stmt.orelse)
                self._exec_lane(branch, event, machine_name, lane, out)
            else:
                raise StateMachineError(f"unknown statement {stmt!r}")
