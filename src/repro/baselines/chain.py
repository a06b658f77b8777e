"""Chain-style baseline: property checks inside the application code.

Represents the paper's Figure 2(a) anti-pattern: the developer hand-rolls
checks (sample counts, elapsed time) inside task bodies. There is no
monitor and no runtime checking; the check cost is indistinguishable
from application time — which is exactly the coupling problem P1. Used
by the coupling ablation to contrast against ARTEMIS' separation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.retry import RetryPolicy
from repro.core.taskrun import PathRuntime, guard_mapping
from repro.energy.power import PowerModel
from repro.errors import PeripheralError, RuntimeConfigError
from repro.nvm.transaction import Transaction
from repro.taskgraph.app import Application
from repro.taskgraph.context import TaskContext

#: An inline check runs inside the task, sees the context, and returns
#: ``None`` (proceed) or one of ``"restart_path"`` / ``"skip_path"`` /
#: ``"skip_task"`` — control flow the developer wires up by hand.
InlineCheck = Callable[[TaskContext], Optional[str]]

_CHECK_RESULTS = (None, "restart_path", "skip_path", "skip_task")


class ChainRuntime(PathRuntime):
    """Executes paths with developer-written checks entangled in tasks."""

    TRANSITION_S = 0.40e-3  # bare transition; checks are app code
    CHECK_S = 0.15e-3  # cost of one inline check, charged as *app* time

    def __init__(
        self,
        app: Application,
        checks: Dict[str, InlineCheck],
        device,
        power_model: PowerModel,
        peripherals=None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        for task in checks:
            if not app.has_task(task):
                raise RuntimeConfigError(f"inline check for unknown task {task!r}")
        super().__init__(app, device, power_model, peripherals)
        self.checks = checks
        nvm = device.nvm
        self._alloc_cursor("ch", retry_policy)
        # Trace events owed for a committed-but-interrupted transaction.
        # Staged in the same journaled commit as the control updates, so
        # the record of a route change is exactly as durable as its
        # effect; replayed (once) at boot if the crash swallowed it.
        self._pending_trace = nvm.alloc("ch.pending_trace", [], 2)
        self._guard_cursor("ch")
        guard_mapping(self.recovery, self._retry_cell)

    def boot(self, device) -> None:
        """Resolve any interrupted commit before the loop resumes."""
        self._device = device
        self.recovery.on_boot(device)
        pending = self._pending_trace.get()
        if pending:
            # The journal rolled a commit forward across the crash: its
            # route change took durable effect but the volatile trace
            # record was lost. Replay it so the observable action
            # sequence matches the durable state.
            now = device.sim_clock.now()
            for kind, detail in pending:
                device.trace.record(now, kind, replayed=True, **dict(detail))
            self._pending_trace.set([])

    def loop_iteration(self, device) -> None:
        self._device = device
        if self.finished:
            return
        if self.peripherals is not None:
            self.peripherals.bind(device, sense_s=self.power.sense_s,
                                  sense_power_w=self.power.overhead_power_w)
        name = self.current_task_name
        device.consume(self.TRANSITION_S, self.power.overhead_power_w, "runtime")
        task, txn, ctx = self._begin_attempt(name)
        outcome: Optional[str] = None
        check = self.checks.get(name)
        if check is not None:
            # The check is part of the task body: app time, app energy.
            device.consume(self.CHECK_S, self.power.overhead_power_w, "app")
            outcome = check(ctx)
            if outcome not in _CHECK_RESULTS:
                raise RuntimeConfigError(
                    f"inline check for {name!r} returned {outcome!r}"
                )
        if outcome is None and not self._run_body(task, txn, ctx):
            return
        # Route *planning* happens before the commit so the control-state
        # updates ride in the same journaled transaction as the channel
        # writes: a crash inside the commit either re-executes the whole
        # task or replays it to completion, never half of each.
        updates, events = self._plan_route(outcome)
        for cell_name, value in updates:
            txn.stage(cell_name, value)
        if self._retry.attempts(name):
            txn.stage(self._retry.cell_name, self._retry.cleared(name))
        owed = ([("task_end", {"task": name, "path": self._cur_path.get()})]
                + [(kind, dict(detail)) for kind, detail in events])
        txn.stage(self._pending_trace.name, owed)
        txn.commit(spend=self._spend_commit_step,
                   on_step=self._label_commit_step)
        # No crash point between the commit's last payment and here, so
        # the events are recorded exactly once: either now, or (after a
        # mid-commit crash that rolled forward) replayed at boot.
        for kind, detail in owed:
            device.trace.record(device.sim_clock.now(), kind, **detail)
        self._pending_trace.set([])

    def _escalate(self, name: str, exc: PeripheralError) -> None:
        """Skip the task when its retries are exhausted.

        Like the developer-written checks, the recovery code here is
        hand-wired into the runtime (problem P1): the only escalation is
        skipping the task with a marked-degraded channel value.
        """
        device = self._device
        self._mark_degraded(name)
        updates, events = self._plan_route("skip_task")
        txn = Transaction(device.nvm, journal=self._journal)
        for cell_name, value in updates:
            txn.stage(cell_name, value)
        owed = ([("task_skip", {"task": name,
                                "path": self._cur_path.get(),
                                "source": "watchdog"})]
                + [(kind, dict(detail)) for kind, detail in events])
        txn.stage(self._pending_trace.name, owed)
        txn.commit(spend=self._spend_commit_step,
                   on_step=self._label_commit_step)
        for kind, detail in owed:
            device.trace.record(device.sim_clock.now(), kind, **detail)
        self._pending_trace.set([])

    def _plan_route(
        self, outcome: Optional[str]
    ) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, Dict[str, Any]]]]:
        """Control-state updates and trace events for this task's outcome.

        Pure planning — nothing durable changes here; the returned
        updates are staged into the task's transaction.
        """
        path_no = self._cur_path.get()
        if outcome == "restart_path":
            return ([(self._cur_idx.name, 0)],
                    [("path_restart", {"path": path_no})])
        if outcome == "skip_path":
            updates, events = self._plan_next_path()
            return updates, [("path_skip", {"path": path_no})] + events
        # None and "skip_task" both advance (the task already ran).
        path = self.app.path(path_no)
        if self._cur_idx.get() + 1 < len(path):
            return [(self._cur_idx.name, self._cur_idx.get() + 1)], []
        updates, events = self._plan_next_path()
        return updates, [("path_complete", {"path": path.number})] + events

    def _plan_next_path(
        self,
    ) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, Dict[str, Any]]]]:
        """Updates that move to the next path or finish the run."""
        if self._cur_path.get() < len(self.app.paths):
            return ([(self._cur_path.name, self._cur_path.get() + 1),
                     (self._cur_idx.name, 0)], [])
        return [(self._finished.name, True)], []
