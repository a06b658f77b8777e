"""Semantic validation: AST + application → property set.

Checks performed (each mirrors a constraint the paper states or
implies):

* property kinds and clause keys are known, values well-typed;
* every task block names a task of the application; ``dpTask`` targets
  exist;
* ``onFail`` is present exactly where required, and an ``onFail``
  immediately following ``maxAttempt`` binds to it (Figure 5 line 6);
* ``Path: N`` names an existing path containing the guarded task, and
  is *required* for path-scoped properties on merge-point tasks (tasks
  appearing on several paths — the paper's path-merging rule for
  ``send``);
* ``dpData`` variables must be declared as monitored on the task
  (Figure 4 declares ``avgTemp`` at task declaration);
* ``Range`` bounds are ordered.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Optional, Tuple

from repro.core.actions import ActionType
from repro.core.properties import (
    Collect,
    DpData,
    EnergyAtLeast,
    MITD,
    MaxDuration,
    MaxTries,
    Period,
    Property,
    PropertySet,
    Temporal,
)
from repro.errors import SpecValidationError
from repro.spec.ast import Clause, PropertyDecl, SpecModel
from repro.spec.parser import parse_spec
from repro.taskgraph.app import Application
from repro.tl.ast import (
    DataCmp,
    Ended,
    Historically,
    Once,
    Started,
    walk_formula,
)

_ACTION_NAMES = {a.value for a in ActionType if a is not ActionType.NONE}

#: Actions whose effect is scoped to a path (need Path on merge tasks).
_PATH_SCOPED_KINDS = ("MITD", "collect", "period", "maxTries", "temporal")


def _err(message: str, line: int) -> SpecValidationError:
    return SpecValidationError(f"line {line}: {message}")


class _ClauseReader:
    """Consumes clauses in source order, enforcing binding rules."""

    def __init__(self, decl: PropertyDecl, task: str):
        self._clauses = list(decl.clauses)
        self._decl = decl
        self.task = task

    def take(self, key: str) -> Optional[Clause]:
        for i, clause in enumerate(self._clauses):
            if clause.key == key:
                return self._clauses.pop(i)
        return None

    def take_action(self, key: str = "onFail") -> Optional[ActionType]:
        clause = self.take(key)
        if clause is None:
            return None
        if not isinstance(clause.value, str) or clause.value not in _ACTION_NAMES:
            raise _err(
                f"{self._decl.kind} on {self.task!r}: {key} must be one of "
                f"{sorted(_ACTION_NAMES)}, got {clause.value!r}",
                clause.line,
            )
        return ActionType.from_name(clause.value)

    def take_max_attempt(self) -> Tuple[Optional[int], Optional[ActionType]]:
        """``maxAttempt: N onFail: ACT`` — the onFail *after* maxAttempt
        in source order is the max-attempt action."""
        for i, clause in enumerate(self._clauses):
            if clause.key != "maxAttempt":
                continue
            if not isinstance(clause.value, int) or clause.value < 1:
                raise _err(
                    f"maxAttempt must be a positive integer, got {clause.value!r}",
                    clause.line,
                )
            attempts = clause.value
            action: Optional[ActionType] = None
            if i + 1 < len(self._clauses) and self._clauses[i + 1].key == "onFail":
                action_clause = self._clauses[i + 1]
                if (
                    not isinstance(action_clause.value, str)
                    or action_clause.value not in _ACTION_NAMES
                ):
                    raise _err(
                        f"maxAttempt onFail must be an action, got "
                        f"{action_clause.value!r}",
                        action_clause.line,
                    )
                action = ActionType.from_name(action_clause.value)
                del self._clauses[i + 1]
            del self._clauses[i]
            if action is None:
                raise _err(
                    f"{self._decl.kind} on {self.task!r}: maxAttempt requires a "
                    "following onFail action",
                    clause.line,
                )
            return attempts, action
        return None, None

    def require_action(self) -> ActionType:
        action = self.take_action()
        if action is None:
            raise _err(
                f"{self._decl.kind} on {self.task!r}: missing onFail action",
                self._decl.line,
            )
        return action

    def finish(self) -> None:
        if self._clauses:
            extra = self._clauses[0]
            raise _err(
                f"{self._decl.kind} on {self.task!r}: unexpected clause "
                f"{extra.key!r}",
                extra.line,
            )


def _resolve_path(
    reader: _ClauseReader, decl: PropertyDecl, task: str, app: Application
) -> Optional[int]:
    clause = reader.take("Path")
    if clause is not None:
        if not isinstance(clause.value, int) or clause.value < 1:
            raise _err(f"Path must be a positive integer, got {clause.value!r}", clause.line)
        number = clause.value
        if number > len(app.paths):
            raise _err(f"Path {number} does not exist", clause.line)
        if task not in app.path(number):
            raise _err(
                f"task {task!r} is not on path {number}; cannot scope "
                f"{decl.kind} to it",
                clause.line,
            )
        return number
    # Merge-point rule: a path-scoped property on a task shared by
    # several paths is ambiguous without an explicit Path.
    if decl.kind in _PATH_SCOPED_KINDS and len(app.paths_containing(task)) > 1:
        raise _err(
            f"{decl.kind} on {task!r}: task appears on multiple paths "
            "(path merging) — an explicit Path clause is required",
            decl.line,
        )
    return None


def _int_value(decl: PropertyDecl, task: str) -> int:
    if not isinstance(decl.value, int):
        raise _err(
            f"{decl.kind} on {task!r}: expected an integer, got {decl.value!r}",
            decl.line,
        )
    return decl.value


def _duration_value(decl: PropertyDecl, task: str) -> float:
    if not isinstance(decl.value, (int, float)):
        raise _err(
            f"{decl.kind} on {task!r}: expected a duration, got {decl.value!r}",
            decl.line,
        )
    return float(decl.value)


def _dep_task(reader: _ClauseReader, decl: PropertyDecl, app: Application) -> str:
    clause = reader.take("dpTask")
    if clause is None:
        raise _err(f"{decl.kind} on {reader.task!r}: missing dpTask", decl.line)
    if not isinstance(clause.value, str) or not app.has_task(clause.value):
        raise _err(f"dpTask names unknown task {clause.value!r}", clause.line)
    return clause.value


# ---------------------------------------------------------------------------
# Per-kind builders (extensibility point: new property = new entry here,
# a new generator template, and optionally a runtime primitive — §4.2.2).
# ---------------------------------------------------------------------------


def _build_max_tries(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    path = _resolve_path(reader, decl, task, app)
    action = reader.require_action()
    reader.finish()
    return MaxTries(task=task, on_fail=action, path=path, limit=_int_value(decl, task))


def _build_max_duration(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    path = _resolve_path(reader, decl, task, app)
    action = reader.require_action()
    reader.finish()
    return MaxDuration(
        task=task, on_fail=action, path=path, limit_s=_duration_value(decl, task)
    )


def _build_mitd(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    dep = _dep_task(reader, decl, app)
    # Bind the maxAttempt/onFail pair first so the remaining onFail is
    # unambiguously the property's own action, whatever the source order.
    max_attempt, max_attempt_action = reader.take_max_attempt()
    action = reader.require_action()
    path = _resolve_path(reader, decl, task, app)
    reader.finish()
    return MITD(
        task=task,
        on_fail=action,
        path=path,
        dep_task=dep,
        limit_s=_duration_value(decl, task),
        max_attempt=max_attempt,
        max_attempt_action=max_attempt_action,
    )


def _build_collect(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    dep = _dep_task(reader, decl, app)
    action = reader.require_action()
    path = _resolve_path(reader, decl, task, app)
    reader.finish()
    return Collect(
        task=task, on_fail=action, path=path, dep_task=dep, count=_int_value(decl, task)
    )


def _build_dp_data(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    if not isinstance(decl.value, str):
        raise _err(
            f"dpData on {task!r}: expected a variable name, got {decl.value!r}",
            decl.line,
        )
    var = decl.value
    if var not in app.task(task).monitored_vars:
        raise _err(
            f"dpData on {task!r}: variable {var!r} is not declared as "
            f"monitored on the task (declare it in the Task definition)",
            decl.line,
        )
    range_clause = reader.take("Range")
    if range_clause is None or not isinstance(range_clause.value, tuple):
        raise _err(f"dpData on {task!r}: missing Range: [lo, hi]", decl.line)
    low, high = range_clause.value
    if low > high:
        raise _err(f"dpData on {task!r}: empty range [{low}, {high}]", range_clause.line)
    path = _resolve_path(reader, decl, task, app)
    action = reader.require_action()
    reader.finish()
    return DpData(task=task, on_fail=action, path=path, var=var, low=low, high=high)


def _build_period(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    jitter_clause = reader.take("jitter")
    jitter = 0.0
    if jitter_clause is not None:
        if not isinstance(jitter_clause.value, (int, float)):
            raise _err("jitter must be a duration", jitter_clause.line)
        jitter = float(jitter_clause.value)
    max_attempt, max_attempt_action = reader.take_max_attempt()
    action = reader.require_action()
    path = _resolve_path(reader, decl, task, app)
    reader.finish()
    return Period(
        task=task,
        on_fail=action,
        path=path,
        period_s=_duration_value(decl, task),
        jitter_s=jitter,
        max_attempt=max_attempt,
        max_attempt_action=max_attempt_action,
    )


def _build_energy(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    path = _resolve_path(reader, decl, task, app)
    action = reader.require_action()
    reader.finish()
    if not isinstance(decl.value, (int, float)) or decl.value <= 0:
        raise _err(
            f"energyAtLeast on {task!r}: expected a positive energy (joules)",
            decl.line,
        )
    return EnergyAtLeast(task=task, on_fail=action, path=path, min_energy_j=float(decl.value))


def _data_keys(app: Application) -> set:
    """Keys that can appear as dependent data on events: every task's
    monitored variables, plus the runtime's energy probe."""
    keys = {"energy"}
    for name in app.task_names:
        keys.update(app.task(name).monitored_vars)
    return keys


def _check_formula(formula, task: str, app: Application) -> None:
    """Semantic checks on a temporal formula, each with a sourced
    diagnostic (the parse-time checks live in :mod:`repro.tl.parse`)."""
    for node in walk_formula(formula):
        if isinstance(node, (Once, Historically)) and node.hi is not None \
                and node.lo:
            op = "once" if isinstance(node, Once) else "historically"
            raise SpecValidationError(
                f"line {node.line}: temporal on {task!r}: {op}[a,b] with "
                f"a > 0 is not monitorable with constant state",
                node.line, node.column, width=len(op),
                hint="a nonzero lower bound needs every event timestamp "
                     "in the window; use a zero lower bound "
                     f"({op}[0,{node.hi:g}s]) which needs only the most "
                     "recent witness")
        if isinstance(node, (Started, Ended)) and not app.has_task(node.task):
            atom = "started" if isinstance(node, Started) else "ended"
            raise SpecValidationError(
                f"line {node.line}: temporal on {task!r}: {atom}(...) "
                f"names unknown task {node.task!r}",
                node.line, node.column, width=len(atom),
                hint=f"known tasks: {', '.join(app.task_names)}")
        if isinstance(node, DataCmp) and node.key not in _data_keys(app):
            known = sorted(_data_keys(app))
            raise SpecValidationError(
                f"line {node.line}: temporal on {task!r}: data(...) names "
                f"unknown key {node.key!r}",
                node.line, node.column, width=len("data"),
                hint="data keys are variables declared as monitored on a "
                     "task (plus the runtime's 'energy' probe); known: "
                     f"{', '.join(known) or '(none)'}")


def _build_temporal(decl: PropertyDecl, task: str, app: Application) -> Property:
    reader = _ClauseReader(decl, task)
    at = "start"
    at_clause = reader.take("at")
    if at_clause is not None:
        if at_clause.value not in ("start", "end", "always"):
            raise _err(
                f"temporal on {task!r}: at must be start, end or always, "
                f"got {at_clause.value!r}",
                at_clause.line,
            )
        at = at_clause.value
    label = None
    label_clause = reader.take("label")
    if label_clause is not None:
        if not isinstance(label_clause.value, str) \
                or not label_clause.value.isidentifier():
            raise _err(
                f"temporal on {task!r}: label must be an identifier, got "
                f"{label_clause.value!r}",
                label_clause.line,
            )
        label = label_clause.value
    action = reader.require_action()
    path = _resolve_path(reader, decl, task, app)
    reader.finish()
    _check_formula(decl.value, task, app)
    return Temporal(
        task=task, on_fail=action, path=path,
        formula=decl.value, at=at, label=label,
    )


_BUILDERS: Dict[str, Callable[[PropertyDecl, str, Application], Property]] = {
    "maxTries": _build_max_tries,
    "maxDuration": _build_max_duration,
    "MITD": _build_mitd,
    "collect": _build_collect,
    "dpData": _build_dp_data,
    "period": _build_period,
    "energyAtLeast": _build_energy,
    "temporal": _build_temporal,
}


def _take_priority(decl: PropertyDecl, task: str) -> Tuple[PropertyDecl, Optional[int]]:
    """Strip a ``priority: N`` clause before the kind builder sees it.

    Priority is a cross-cutting modifier (degradation order), so it is
    handled generically here rather than in every builder. Returns the
    declaration without the clause plus the parsed value (or None).
    """
    for clause in decl.clauses:
        if clause.key != "priority":
            continue
        if not isinstance(clause.value, int) or clause.value < 0:
            raise _err(
                f"{decl.kind} on {task!r}: priority must be a non-negative "
                f"integer, got {clause.value!r}",
                clause.line,
            )
        rest = tuple(c for c in decl.clauses if c is not clause)
        return dataclasses.replace(decl, clauses=rest), clause.value
    return decl, None


def validate(model: SpecModel, app: Application) -> PropertySet:
    """Bind a parsed specification against an application."""
    props = PropertySet()
    for block in model.blocks:
        if not app.has_task(block.task):
            raise _err(f"unknown task {block.task!r}", block.line)
        for decl in block.properties:
            builder = _BUILDERS.get(decl.kind)
            if builder is None:
                raise _err(
                    f"unknown property {decl.kind!r} (supported: "
                    f"{sorted(_BUILDERS)})",
                    decl.line,
                )
            stripped, priority = _take_priority(decl, block.task)
            prop = builder(stripped, block.task, app)
            if priority is not None:
                if not type(prop).SUPPORTS_PRIORITY:
                    raise _err(
                        f"{decl.kind} on {block.task!r}: priority is not "
                        f"supported ({decl.kind} monitors track progress over "
                        "a gapless event stream and can never be shed)",
                        decl.line,
                    )
                prop = dataclasses.replace(prop, priority=priority)
            props.add(prop)
    return props


#: Distinct spec texts whose parse is kept per process (a fleet or a
#: crash search provisions every device from the same few texts).
_PARSED_SPECS = 64


@functools.lru_cache(maxsize=_PARSED_SPECS)
def _parsed(source: str) -> SpecModel:
    # Shared read-only: :func:`validate` never mutates the model, and
    # no caller of :func:`load_properties` sees it. A parse error is
    # raised again on every call; ``lru_cache`` caches only returns.
    return parse_spec(source)


def load_properties(source: str, app: Application) -> PropertySet:
    """Parse + validate in one step.

    The parse is shared per source text across the process; validation
    against ``app`` runs on every call, since it reads the app's tasks,
    paths and monitored variables.
    """
    return validate(_parsed(source), app)
