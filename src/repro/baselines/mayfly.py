"""Mayfly baseline: coupled runtime property checking.

Mayfly (Hester, Storer, Sorber — SenSys '17) executes task graphs with
*timely execution* semantics: data flowing between tasks carries an
expiration; consuming expired data restarts the task graph. It also
supports required collection counts. Both checks are wired directly
into the runtime's main loop — the paper's problem P2/P3 — and there is
no escape hatch equivalent to ARTEMIS' ``maxTries``/``maxAttempt``
(§5.1.1), which is what makes it livelock when charging delays exceed
the expiration window (Figure 12).

The implementation shares the device/NVM substrates with the ARTEMIS
runtime, and every runtime step except its checks and its watchdog
escalation (:mod:`repro.core.taskrun`), so measured differences come
only from the checking design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.retry import RetryPolicy
from repro.core.taskrun import PathRuntime, guard_mapping
from repro.energy.power import PowerModel
from repro.errors import PeripheralError, RuntimeConfigError
from repro.nvm.transaction import Transaction
from repro.taskgraph.app import Application


@dataclass(frozen=True)
class Expiration:
    """``task`` must start within ``limit_s`` of ``dep_task`` finishing.

    ``path`` scopes the rule to one path — Mayfly's rules are task-graph
    edges, so a merge-point task like ``send`` carries per-edge rules.
    """

    task: str
    dep_task: str
    limit_s: float
    path: Optional[int] = None


@dataclass(frozen=True)
class Collection:
    """``task`` needs ``count`` completions of ``dep_task`` first."""

    task: str
    dep_task: str
    count: int
    path: Optional[int] = None


@dataclass
class MayflyConfig:
    """The property vocabulary Mayfly supports (expiration + collect)."""

    expirations: List[Expiration] = field(default_factory=list)
    collections: List[Collection] = field(default_factory=list)

    def checks_for(self, task: str) -> int:
        return sum(1 for e in self.expirations if e.task == task) + sum(
            1 for c in self.collections if c.task == task
        )


class MayflyRuntime(PathRuntime):
    """Task-graph executor with hardcoded freshness/collection checks.

    Interface-compatible with :class:`~repro.core.ArtemisRuntime` so the
    same :class:`~repro.sim.Device` drives both.
    """

    #: Extra transition cost versus the bare ARTEMIS runtime transition:
    #: Mayfly's checks are folded into its (single) runtime loop.
    TRANSITION_S = 0.55e-3
    PER_CHECK_S = 0.10e-3

    def __init__(
        self,
        app: Application,
        config: MayflyConfig,
        device,
        power_model: PowerModel,
        peripherals=None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        for rule in list(config.expirations) + list(config.collections):
            if not app.has_task(rule.task) or not app.has_task(rule.dep_task):
                raise RuntimeConfigError(f"Mayfly rule references unknown task: {rule}")
        super().__init__(app, device, power_model, peripherals)
        self.config = config
        nvm = device.nvm
        self._alloc_cursor("mf", retry_policy)
        self._end_times = nvm.alloc("mf.end_times", {}, 32)
        self._counts = nvm.alloc("mf.counts", {}, 32, progress=True)
        self._guard_cursor("mf")
        for cell in (self._end_times, self._counts, self._retry_cell):
            guard_mapping(self.recovery, cell)

    # ------------------------------------------------------------------
    def boot(self, device) -> None:
        """Resolve any interrupted commit before the loop resumes."""
        self._device = device
        self.recovery.on_boot(device)

    # ------------------------------------------------------------------
    def loop_iteration(self, device) -> None:
        """props_satisfied(t, p) → run(t) → commit, as in Figure 2(b)."""
        self._device = device
        if self.finished:
            return
        if self.peripherals is not None:
            self.peripherals.bind(device, sense_s=self.power.sense_s,
                                  sense_power_w=self.power.overhead_power_w)
        task = self.current_task_name
        n_checks = self.config.checks_for(task)
        device.consume(
            self.TRANSITION_S + n_checks * self.PER_CHECK_S,
            self.power.overhead_power_w,
            "runtime",
        )
        violation = self._props_satisfied(task)
        if violation is not None:
            device.trace.record(
                device.sim_clock.now(), "monitor_action",
                action="restartPath", source=violation, task=task,
                path=self._cur_path.get(),
            )
            self._restart_path()
            return
        self._run_task(task)

    # ------------------------------------------------------------------
    def _props_satisfied(self, task: str) -> Optional[str]:
        """Returns the violated rule's description, or None if all hold."""
        now = self._device.now()
        cur_path = self._cur_path.get()
        ends: Dict[str, float] = self._end_times.get()
        for rule in self.config.expirations:
            if rule.task != task or rule.path not in (None, cur_path):
                continue
            end = ends.get(rule.dep_task)
            if end is not None and now - end > rule.limit_s:
                return f"expiration({rule.dep_task}->{task})"
        counts: Dict[str, int] = self._counts.get()
        for rule in self.config.collections:
            if rule.task != task or rule.path not in (None, cur_path):
                continue
            if counts.get(rule.dep_task, 0) < rule.count:
                return f"collect({rule.dep_task}->{task})"
        return None

    def _run_task(self, name: str) -> None:
        task, txn, ctx = self._begin_attempt(name)
        if not self._run_body(task, txn, ctx):
            return
        device = self._device
        # Bookkeeping (end times, collection counts) and loop advancement
        # are planned first and staged into the task's transaction, so
        # the journaled commit is all-or-nothing across data *and*
        # control state — a crash mid-commit cannot leave a committed
        # task that would re-execute and double-count.
        ends = dict(self._end_times.get())
        ends[name] = device.now()
        counts = dict(self._counts.get())
        counts[name] = counts.get(name, 0) + 1
        updates, events = self._plan_advance(counts)
        txn.stage(self._end_times.name, ends)
        txn.stage(self._counts.name, counts)
        for cell_name, value in updates:
            txn.stage(cell_name, value)
        if self._retry.attempts(name):
            txn.stage(self._retry.cell_name, self._retry.cleared(name))
        txn.commit(spend=self._spend_commit_step,
                   on_step=self._commit_labels())
        device.trace.record(device.sim_clock.now(), "task_end", task=name,
                            path=self._cur_path.get())
        for kind, detail in events:
            device.trace.record(device.sim_clock.now(), kind, **detail)

    def _escalate(self, name: str, exc: PeripheralError) -> None:
        """Skip the task when its retries are exhausted.

        Mayfly has no ``onFail`` vocabulary (that absence is the paper's
        P3), so the watchdog's only escalation is skipping the task with
        a marked-degraded channel value — its completion is *not*
        counted toward collection rules.
        """
        device = self._device
        self._mark_degraded(name)
        # Skip: advance control state without counting the task.
        counts = dict(self._counts.get())
        updates, events = self._plan_advance(counts)
        txn = Transaction(device.nvm, journal=self._journal)
        txn.stage(self._counts.name, counts)
        for cell_name, value in updates:
            txn.stage(cell_name, value)
        txn.commit(spend=self._spend_commit_step,
                   on_step=self._commit_labels())
        device.trace.record(device.sim_clock.now(), "task_skip",
                            task=name, path=self._cur_path.get(),
                            source="watchdog")
        for kind, detail in events:
            device.trace.record(device.sim_clock.now(), kind, **detail)

    def _plan_advance(
        self, counts: Dict[str, int]
    ) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, Dict[str, Any]]]]:
        """Loop-advancement updates after the current task completes.

        Pure planning; mutates ``counts`` in place when a completed path
        consumes its collection counts (per-path progress).
        """
        path = self.app.path(self._cur_path.get())
        if self._cur_idx.get() + 1 < len(path):
            return [(self._cur_idx.name, self._cur_idx.get() + 1)], []
        events: List[Tuple[str, Dict[str, Any]]] = [
            ("path_complete", {"path": path.number})
        ]
        for task_name in path.task_names:
            counts.pop(task_name, None)
        if path.number < len(self.app.paths):
            return ([(self._cur_path.name, path.number + 1),
                     (self._cur_idx.name, 0)], events)
        return [(self._finished.name, True)], events

    def _restart_path(self) -> None:
        self._device.trace.record(
            self._device.sim_clock.now(), "path_restart", path=self._cur_path.get()
        )
        self._cur_idx.set(0)
