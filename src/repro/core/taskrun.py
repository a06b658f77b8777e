"""Steps every task runtime performs the same way.

ARTEMIS, Mayfly, Chain and the checkpoint runtime differ in how they
check properties and how they escalate a task that keeps failing
(§5.1.1). Everything else is one mechanism, kept here once:

* :func:`retry_or_trip`, the retry/watchdog prologue of all four. A
  failed attempt commits nothing and runs again (Alpaca-style
  re-execution); its counter lives in NVM, so a retry storm that spans
  brown-outs still reaches the watchdog.
* :class:`PathRuntime`, the steps of the three path runtimes: the path
  cursor, the task-attempt prologue, the body with rollback, the
  degraded-channel marker and the journal-step payment.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.recovery import RecoveryManager
from repro.core.retry import RetryPolicy, RetrySupervisor
from repro.errors import PeripheralError
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import PersistentCell
from repro.nvm.transaction import Transaction
from repro.taskgraph.context import TaskContext, channel_cell_name
from repro.taskgraph.task import Task


def retry_counters(nvm, policy: Optional[RetryPolicy],
                   cell_name: str) -> Tuple[RetrySupervisor, PersistentCell]:
    """Allocate a runtime's attempt counters (default policy if None);
    returns the supervisor and its cell."""
    retry = RetrySupervisor(nvm, policy or RetryPolicy(), cell_name=cell_name)
    return retry, nvm.cell(cell_name)


def guard_mapping(recovery: RecoveryManager, cell: PersistentCell,
                  label: Optional[str] = None) -> None:
    """Boot invariant ``<label> is a mapping`` (default label: the cell
    name); a cell holding anything else is reset to ``{}``."""
    recovery.add_invariant(
        f"{label or cell.name} is a mapping",
        lambda: isinstance(cell.get(), dict),
        lambda: cell.set({}),
    )


def retry_or_trip(retry: RetrySupervisor, device, task: str,
                  exc: PeripheralError, power_w: float,
                  on_retry: Optional[Callable[[], None]] = None) -> bool:
    """Durably count a failed attempt; True if the watchdog tripped.

    Past the attempt budget the counter is cleared, the trip is counted
    and traced, and the caller escalates. Otherwise the retry is
    counted and traced, ``on_retry`` runs, and the backoff (drawn at
    ``power_w``) and the per-retry energy surcharge are paid, after the
    counter write, so an attempt that brown-outs there still counts.
    """
    attempt = retry.record_failure(task)
    policy = retry.policy
    if attempt >= policy.max_attempts:
        retry.clear(task)
        device.result.watchdog_trips += 1
        device.trace.record(
            device.sim_clock.now(), "watchdog_trip", task=task,
            attempts=attempt, sensor=exc.sensor, fault=exc.fault,
        )
        return True
    device.result.task_retries += 1
    device.trace.record(
        device.sim_clock.now(), "task_retry", task=task,
        attempt=attempt, sensor=exc.sensor, fault=exc.fault,
    )
    if on_retry is not None:
        on_retry()
    backoff = policy.backoff_s(task, attempt)
    if backoff > 0.0:
        device.consume(backoff, power_w, "runtime")
    if policy.retry_energy_j:
        device.consume_energy(policy.retry_energy_j, "runtime")
    return False


class PathRuntime:
    """Base of the runtimes that execute an application path by path.

    Subclasses allocate their own NVM cells (the order is part of each
    runtime's layout) and implement :meth:`_escalate`, the watchdog's
    action once a task has used its attempt budget.
    """

    #: Runs after the ``task_retry`` record, before the backoff is paid.
    _on_retry: Optional[Callable[[], None]] = None

    def __init__(self, app, device, power_model, peripherals):
        self.app = app
        self.power = power_model
        self._device = device
        self.peripherals = peripherals
        # The application is immutable after construction, so the hot
        # loop's task lookups can index a flat table instead of going
        # through the checked ``app.path()`` accessor every time.
        self._path_tasks = tuple(tuple(p.task_names) for p in app.paths)

    @property
    def finished(self) -> bool:
        return self._finished.get()

    @property
    def current_task_name(self) -> str:
        number = self._cur_path.get()
        if 1 <= number <= len(self._path_tasks):
            tasks = self._path_tasks[number - 1]
            idx = self._cur_idx.get()
            if 0 <= idx < len(tasks):
                return tasks[idx]
        # Out-of-range control state (corruption caught before recovery
        # repairs it): fall back to the checked accessor for its typed
        # error instead of a bare IndexError.
        path = self.app.path(number)
        return path.task_names[self._cur_idx.get()]

    def _alloc_cursor(self, prefix: str,
                      retry_policy: Optional[RetryPolicy]) -> None:
        """Allocate the attempt counters, then the path cursor."""
        nvm = self._device.nvm
        self._retry, self._retry_cell = retry_counters(
            nvm, retry_policy, f"{prefix}.retry.attempts")
        self._cur_path = nvm.alloc(f"{prefix}.cur_path", 1, 2, progress=True)
        self._cur_idx = nvm.alloc(f"{prefix}.cur_idx", 0, 2, progress=True)
        self._finished = nvm.alloc(f"{prefix}.finished", False, 1,
                                   progress=True)

    def _guard_cursor(self, prefix: str) -> None:
        """Set up the journal and boot recovery over the runtime's cells
        and the channels; an out-of-range cursor restarts its path."""
        nvm = self._device.nvm
        self._journal = CommitJournal(nvm)
        self.recovery = RecoveryManager(nvm, journal=self._journal)
        self.recovery.guard(f"{prefix}.")
        self.recovery.guard("chan.")
        self.recovery.add_invariant(
            f"{prefix}.cur_path in range",
            lambda: 1 <= self._cur_path.get() <= len(self.app.paths),
            lambda: (self._cur_path.set(1), self._cur_idx.set(0)),
        )
        self.recovery.add_invariant(
            f"{prefix}.cur_idx in range",
            lambda: (0 <= self._cur_idx.get()
                     < len(self.app.path(self._cur_path.get()))),
            lambda: self._cur_idx.set(0),
        )

    def begin_run(self, device) -> None:
        """Start the next application iteration at the first path."""
        self._device = device
        self._cur_path.set(1)
        self._cur_idx.set(0)
        self._finished.set(False)

    def _begin_attempt(
        self, name: str
    ) -> Tuple[Task, Transaction, TaskContext]:
        """Trace ``task_start``, pay the task's cost and open its
        transaction; returns ``(task, txn, ctx)``."""
        device = self._device
        task = self.app.task(name)
        cost = self.power.cost_of(name)
        device.trace.record(device.sim_clock.now(), "task_start", task=name,
                            path=self._cur_path.get())
        if cost.fixed_energy_j:
            device.consume_energy(cost.fixed_energy_j, "app")
        device.consume(cost.duration_s, cost.power_w, "app")
        # The attempt survived; the body's writes stage into one commit.
        txn = Transaction(device.nvm, journal=self._journal)
        ctx = TaskContext(name, device.nvm, txn, self.app.sensors,
                          device.now, peripherals=self.peripherals)
        return task, txn, ctx

    def _run_body(self, task: Task, txn: Transaction,
                  ctx: TaskContext) -> bool:
        """Run the task body; False if a peripheral fault ended the
        attempt (it is then retried, or escalated by the watchdog)."""
        if task.body is not None:
            try:
                task.body(ctx)
            except PeripheralError as exc:
                # Nothing committed: the staged writes are discarded, so
                # a retried task can never half-commit.
                txn.rollback()
                if retry_or_trip(self._retry, self._device, task.name, exc,
                                 self.power.overhead_power_w, self._on_retry):
                    self._escalate(task.name, exc)
                return False
        return True

    def _escalate(self, task_name: str, exc: PeripheralError) -> None:
        raise NotImplementedError

    def _mark_degraded(self, task_name: str) -> None:
        """Durably flag the task's output as degraded (single-cell write)."""
        cell_name = channel_cell_name(f"degraded.{task_name}")
        nvm = self._device.nvm
        if cell_name not in nvm:
            nvm.alloc(cell_name, initial=False, size_bytes=8)
        nvm.cell(cell_name).set(True)

    def _spend_commit_step(self) -> None:
        """Pay for one journal step; each step is a visible crash point."""
        self._device.consume(self.power.commit_step_s,
                             self.power.overhead_power_w, "commit")

    def _label_commit_step(self, label: str) -> None:
        """Forward commit-step labels to an attached crash scheduler."""
        scheduler = getattr(self._device, "scheduler", None)
        if scheduler is not None:
            annotate = getattr(scheduler, "annotate", None)
            if annotate is not None:
                annotate(label)
