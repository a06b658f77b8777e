"""The ARTEMIS intermittent runtime (paper §4.1, Figures 8 and 9).

Executes a task-based application path by path, feeding StartTask /
EndTask events to the application-specific monitor and applying the
corrective actions it returns. All control state lives in NVM; the
runtime is restartable from any power failure.

Timestamp consistency (§4.1.3) is honoured exactly:

* the StartTask event is re-stamped on every re-execution attempt, and
  the duration machines keep the *first* timestamp via their implicit
  self-transitions;
* the EndTask timestamp is persisted once in ``taskFinish`` and never
  re-stamped, so a monitor call interrupted after the task committed
  still sees the true finish time.

completePath interpretation (Table 1): the remaining tasks of the
current path execute unmonitored; when the path completes, the run ends
immediately without executing further paths, and the next application
run resumes from the first task of the path that would have followed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import Action, ActionType
from repro.core.arbiter import ArbitrationPolicy, arbitrate, most_severe
from repro.core.degradation import DegradationController
from repro.core.events import end_event, MonitorEvent
from repro.core.monitor import ArtemisMonitor
from repro.core.properties import EnergyAtLeast, PropertySet
from repro.core.recovery import RecoveryManager
from repro.core.retry import RetryPolicy
from repro.core.taskrun import PathRuntime, guard_mapping, retry_counters
from repro.energy.power import PowerModel
from repro.errors import PeripheralError, RuntimeConfigError
from repro.nvm.journal import CommitJournal
from repro.taskgraph.app import Application

_READY = "TASK_READY"
_FINISHED = "TASK_FINISHED"

#: Shared payload for StartTask events that carry no probe data. Event
#: data is never mutated after construction (task emissions ride on
#: EndTask via a fresh dict), so one empty mapping can serve every event.
_EMPTY_DATA: dict = {}


class ArtemisRuntime(PathRuntime):
    """Power-failure-resilient executor with decoupled monitoring.

    Args:
        app: the task-based application.
        props: its validated property set.
        device: simulated device supplying NVM, clock, and energy.
        power_model: per-task and overhead costs.
        monitor_backend: ``"generated"`` or ``"interpreted"``.
        policy: arbitration policy for concurrent property failures.
        audit_capacity: if positive, keep the last N corrective actions
            in a persistent ring buffer (``self.audit``) for post-mortem
            read-out.
        peripherals: optional
            :class:`~repro.peripherals.PeripheralSet`; task bodies'
            sensor reads then route through its fault models and may
            raise :class:`~repro.errors.PeripheralError`.
        retry_policy: how to re-execute tasks on peripheral faults
            (defaults to :class:`~repro.core.retry.RetryPolicy`()).
        watchdog_fallback: action applied when the livelock watchdog
            trips on a task no property guards (the task is also marked
            degraded on channel ``degraded.<task>``).
        degradation: energy-adaptive monitor shedding — an
            ``(low_j, high_j)`` watermark pair, a prebuilt
            :class:`~repro.core.degradation.DegradationController`, or
            a factory ``f(monitor, audit) -> controller`` (the form the
            CLI uses to wire predictive controllers to the runtime's
            own monitor). Controllers exposing a ``bind(runtime)`` hook
            are bound after construction.
    """

    def __init__(
        self,
        app: Application,
        props: PropertySet,
        device,
        power_model: PowerModel,
        monitor_backend: str = "generated",
        policy: ArbitrationPolicy = most_severe,
        audit_capacity: int = 0,
        monitor=None,
        peripherals=None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog_fallback: ActionType = ActionType.SKIP_TASK,
        degradation=None,
    ):
        for prop in props:
            if not app.has_task(prop.task):
                raise RuntimeConfigError(
                    f"property on unknown task {prop.task!r}"
                )
        super().__init__(app, device, power_model, peripherals)
        self.props = props
        self.policy = policy
        nvm = device.nvm
        # A prebuilt monitor (e.g. a MonitorGroup of independently
        # deployed monitors) may be supplied; by default one is
        # generated from the property set.
        self.monitor = (monitor if monitor is not None
                        else ArtemisMonitor(props, nvm, backend=monitor_backend))
        self._energy_probe = any(isinstance(p, EnergyAtLeast) for p in props)
        if audit_capacity > 0:
            from repro.core.audit import AuditLog

            self.audit: Optional["AuditLog"] = AuditLog(nvm, audit_capacity)
        else:
            self.audit = None

        self.watchdog_fallback = watchdog_fallback
        self._retry, self._retry_cell = retry_counters(
            nvm, retry_policy, "rt.retry.attempts")
        if degradation is None:
            self._degradation: Optional[DegradationController] = None
        elif isinstance(degradation, DegradationController):
            self._degradation = degradation
        elif callable(degradation):
            # Factory form: f(monitor, audit) -> controller. Lets
            # callers build controllers that need the runtime's own
            # monitor/audit objects (e.g. PredictiveDegradation-
            # Controller wired by the CLI).
            self._degradation = degradation(self.monitor, self.audit)
        else:
            low_j, high_j = degradation
            self._degradation = DegradationController(
                self.monitor, low_j, high_j, audit=self.audit
            )
        # Predictive controllers need the path-boundary view; any
        # controller exposing a bind() hook gets this runtime.
        if self._degradation is not None and hasattr(self._degradation, "bind"):
            self._degradation.bind(self)

        alloc = nvm.alloc
        # Scheduler bookkeeping cells are *progress cells*: their whole
        # job is to be read, advanced in place, and observed differently
        # after a reboot, so they are declared exempt from the WAR
        # oracle (see repro.verify.memmodel). rt.end_ts and rt.emitted
        # carry data, not progress — they stay under full scrutiny.
        self._initialized = alloc("rt.initialized", False, 1, progress=True)
        self._cur_path = alloc("rt.cur_path", 1, 2, progress=True)
        self._cur_idx = alloc("rt.cur_idx", 0, 2, progress=True)
        self._status = alloc("rt.status", _READY, 1, progress=True)
        self._start_checked = alloc("rt.start_checked", False, 1,
                                    progress=True)
        self._end_ts = alloc("rt.end_ts", 0.0, 8)
        self._emitted = alloc("rt.emitted", {}, 16)
        self._suspended = alloc("rt.suspended", False, 1, progress=True)
        self._resume_path = alloc("rt.resume_path", 1, 2, progress=True)
        self._finished = alloc("rt.finished", False, 1, progress=True)

        # Crash-consistent commit journal shared by every task commit,
        # and the boot-time recovery pass that resolves it, verifies
        # cell checksums, and repairs state invariants.
        self._journal = CommitJournal(nvm)
        # A queued monitor hot-swap (fleet OTA), kept out of NVM. A real
        # device would lose it to a power failure and stage the bundle
        # again after reboot. The simulator reboots this same object
        # (``Device.run``), so a queued swap survives an injected crash
        # and applies at the next path boundary; the lost-swap path is
        # never executed.
        self._pending_swap = None
        self.recovery = RecoveryManager(nvm, journal=self._journal,
                                        monitor=self.monitor,
                                        audit=self.audit)
        self.recovery.guard("rt.")
        self.recovery.guard("chan.")
        if self.audit is not None:
            self.recovery.guard("audit.")
        for prefix in self.monitor.nvm_prefixes():
            self.recovery.guard(prefix, repair=self.monitor.repair_cell)
        self._register_invariants()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def current_path_number(self) -> int:
        return self._cur_path.get()

    @property
    def journal(self) -> CommitJournal:
        """The shared commit journal (task commits and OTA activation)."""
        return self._journal

    # ------------------------------------------------------------------
    # Monitor hot-swap (fleet OTA)
    # ------------------------------------------------------------------
    def request_monitor_swap(self, swap) -> None:
        """Queue ``swap(runtime)`` to run at the next path boundary.

        §4.1.3's timestamp-consistency rules forbid replacing the
        monitor mid-path: a machine could hold the first-attempt
        timestamp of a StartTask whose EndTask the new monitor would
        never see. At a path boundary no event is in flight, no call is
        half-finalised, and the next event is a fresh StartTask — the
        only point where the active monitor set may change.
        """
        self._pending_swap = swap

    def at_path_boundary(self) -> bool:
        """True when no task or monitor call is in flight."""
        return (self._status.get() == _READY
                and self._cur_idx.get() == 0
                and not self._start_checked.get()
                and not self._suspended.get()
                and not self.monitor.in_progress)

    def attach_monitor(self, monitor, props: Optional[PropertySet] = None) -> None:
        """Replace the active monitor set (OTA hot swap).

        Re-points boot-time recovery (guards + validation) and the
        degradation controller at the replacement. Callers are
        responsible for invoking this only at a path boundary.
        """
        old_prefixes = set(self.monitor.nvm_prefixes())
        self.monitor = monitor
        if props is not None:
            self.props = props
            self._energy_probe = any(
                isinstance(p, EnergyAtLeast) for p in props
            )
        new_prefixes = set(monitor.nvm_prefixes())
        for prefix in old_prefixes - new_prefixes:
            self.recovery.unguard(prefix)
        for prefix in new_prefixes:
            self.recovery.guard(prefix, repair=monitor.repair_cell)
        self.recovery.set_monitor(monitor)
        if self._degradation is not None:
            self._degradation.monitor = monitor

    def _maybe_apply_swap(self) -> None:
        if self._pending_swap is None or not self.at_path_boundary():
            return
        # Cleared only after the swap returns: a power failure inside
        # the swap's journaled activation keeps it queued, so it rolls
        # forward at the next boundary (swaps must be idempotent).
        self._pending_swap(self)
        self._pending_swap = None

    # ------------------------------------------------------------------
    # Boot protocol (Figure 8: resetMonitor / monitorFinalize)
    # ------------------------------------------------------------------
    def _register_invariants(self) -> None:
        """Semantic invariants on runtime control state (§4.1.3).

        Checksum verification catches silent corruption; these catch
        control state that is intact but impossible — an index outside
        the application, an unknown status token, a finish timestamp
        from the future. Ordering matters: the path index is repaired
        before the task index is judged against the repaired path.
        """
        rec = self.recovery
        rec.add_invariant(
            "rt.cur_path in range",
            lambda: 1 <= self._cur_path.get() <= len(self.app.paths),
            lambda: self._enter_path(1),
        )
        rec.add_invariant(
            "rt.cur_idx in range",
            lambda: (0 <= self._cur_idx.get()
                     < len(self.app.path(self._cur_path.get()))),
            lambda: self._enter_path(self._cur_path.get()),
        )

        def _repair_status() -> None:
            self._status.set(_READY)
            self._start_checked.set(False)

        rec.add_invariant(
            "rt.status legal",
            lambda: self._status.get() in (_READY, _FINISHED),
            _repair_status,
        )
        rec.add_invariant(
            "rt.end_ts consistent",
            lambda: 0.0 <= self._end_ts.get() <= self._device.now(),
            lambda: self._end_ts.set(
                min(max(self._end_ts.get(), 0.0), self._device.now())
            ),
        )
        rec.add_invariant(
            "rt.resume_path in range",
            lambda: 1 <= self._resume_path.get() <= len(self.app.paths) + 1,
            lambda: self._resume_path.set(1),
        )
        guard_mapping(rec, self._emitted)
        guard_mapping(rec, self._retry_cell)

    def boot(self, device) -> None:
        """Called by the device on every power-up."""
        self._device = device
        self.recovery.on_boot(device)
        if not self._initialized.get():
            self.monitor.reset()
            self._initialized.set(True)
            return
        if self.monitor.in_progress:
            # A power failure interrupted callMonitor: progress it to
            # completion and apply the actions of the finished call.
            actions = self.monitor.finalize(
                spend=self._spend_monitor,
                per_machine_cost_s=self.power.monitor_per_property_s,
                base_cost_s=self.power.monitor_call_base_s,
            )
            action = arbitrate(actions, self.policy)
            self._trace_action(action)
            if self._status.get() == _READY:
                if action.type is ActionType.NONE:
                    # The start check passed; do not re-send StartTask.
                    self._start_checked.set(True)
                else:
                    self._apply_start_action(action)
            else:
                self._advance_after_end(action)
        elif self._status.get() == _READY:
            # Died while (re-)executing the task: the next iteration is
            # a fresh attempt and must announce itself with StartTask.
            self._start_checked.set(False)

    def begin_run(self, device) -> None:
        """Start the next application iteration (loop deployments)."""
        self._device = device
        start = self._resume_path.get()
        if start > len(self.app.paths):
            start = 1
        self._cur_path.set(start)
        self._resume_path.set(1)
        self._cur_idx.set(0)
        self._status.set(_READY)
        self._start_checked.set(False)
        self._suspended.set(False)
        self._finished.set(False)

    # ------------------------------------------------------------------
    # Main loop (Figure 8, Lines 18-25)
    # ------------------------------------------------------------------
    def loop_iteration(self, device) -> None:
        """One pass: check properties, run the task, or finalise it."""
        self._device = device
        if self.finished:
            return
        if self.peripherals is not None:
            self.peripherals.bind(device, sense_s=self.power.sense_s,
                                  sense_power_w=self.power.overhead_power_w)
        if self._degradation is not None:
            self._degradation.update(device)
        self._maybe_apply_swap()
        if self._status.get() == _READY:
            if not self._start_checked.get() and not self._suspended.get():
                if not self._check_start():
                    return  # a property violation redirected control flow
                self._start_checked.set(True)
            self._run_current_task()
        else:
            self._finish_current_task()

    # ------------------------------------------------------------------
    # checkTask for StartTask (Figure 9, Lines 4-8)
    # ------------------------------------------------------------------
    def _check_start(self) -> bool:
        """Send StartTask to the monitor; True if the task may run."""
        task = self.current_task_name
        if self._energy_probe:
            data = {"energy": self._device.stored_energy()}
        else:
            data = _EMPTY_DATA
        event = MonitorEvent(
            "startTask", task, self._device.now(), data, path=self._cur_path.get()
        )
        action = self._call_monitor(event)
        if action.type is ActionType.NONE:
            return True
        self._apply_start_action(action)
        return False

    def _run_current_task(self) -> None:
        task, txn, ctx = self._begin_attempt(self.current_task_name)
        if not self._run_body(task, txn, ctx):
            return
        device = self._device
        # taskFinish (Figure 9, Lines 20-27): the finish stamp and status
        # flip ride in the same journaled commit as the channel writes,
        # so the journal seal is the single linearization point — a crash
        # anywhere inside the commit either rolls the whole task back
        # (it re-executes) or forward (it is done, never run twice).
        if self._retry.attempts(task.name):
            # Clear the retry counter atomically with the task's effects.
            txn.stage(self._retry.cell_name, self._retry.cleared(task.name))
        txn.stage(self._emitted.name, dict(ctx.emitted))
        txn.stage(self._end_ts.name, device.now())
        txn.stage(self._status.name, _FINISHED)
        txn.stage(self._start_checked.name, False)
        txn.commit(spend=self._spend_commit_step,
                   on_step=self._commit_labels())
        device.trace.record(device.sim_clock.now(), "task_end", task=task.name,
                            path=self._cur_path.get())

    def _on_retry(self) -> None:
        # A fresh attempt must re-announce StartTask, so maxTries-style
        # properties see every retry. Written before the backoff is
        # paid, so the re-arm is durable at that crash point.
        self._start_checked.set(False)

    def _escalate(self, task_name: str, exc: PeripheralError) -> None:
        """Audit the livelock, then apply the watchdog's action."""
        if self.audit is not None:
            self.audit.record_event(self._device.now(), "watchdog:livelock",
                                    exc.sensor, task=task_name,
                                    path=self._cur_path.get())
        action = self._watchdog_action(task_name)
        self._trace_action(action)
        self._apply_start_action(action)

    def _watchdog_action(self, task_name: str) -> Action:
        """Escalation when retries are exhausted: the most severe of the
        task's own ``onFail`` actions, or the configured fallback (which
        also marks the task degraded on a channel consumers can check)."""
        candidates = [
            Action(p.on_fail, p.path, source=f"watchdog:{p.kind}")
            for p in self.props.for_task(task_name)
        ]
        action = arbitrate(candidates, self.policy)
        if action.type is ActionType.NONE:
            self._mark_degraded(task_name)
            action = Action(self.watchdog_fallback, source="watchdog")
        return action

    def _finish_current_task(self) -> None:
        """Send EndTask (with the persisted timestamp) and advance."""
        task = self.current_task_name
        if self._suspended.get():
            self._advance_after_end(Action(ActionType.NONE))
            return
        event = end_event(
            task, self._end_ts.get(), self._emitted.get(), path=self._cur_path.get()
        )
        action = self._call_monitor(event)
        self._advance_after_end(action)

    def _call_monitor(self, event: MonitorEvent) -> Action:
        device = self._device
        device.consume(self.power.runtime_transition_s,
                       self.power.overhead_power_w, "runtime")
        actions = self.monitor.call(
            event,
            spend=self._spend_monitor,
            per_machine_cost_s=self.power.monitor_per_property_s,
            base_cost_s=self.power.monitor_call_base_s,
        )
        action = arbitrate(actions, self.policy)
        self._trace_action(action)
        return action

    def _spend_monitor(self, seconds: float) -> None:
        self._device.consume(seconds, self.power.overhead_power_w, "monitor")

    def _trace_action(self, action: Action) -> None:
        if action.type is ActionType.NONE:
            return
        self._device.trace.record(
            self._device.sim_clock.now(), "monitor_action",
            action=action.type.value, source=action.source,
            path=action.path, task=self.current_task_name,
        )
        if self.audit is not None:
            self.audit.record(self._device.now(), self.current_task_name,
                              self._cur_path.get(), action)

    # ------------------------------------------------------------------
    # Action application (getNextTask, Figure 9 Line 17)
    # ------------------------------------------------------------------
    def _apply_start_action(self, action: Action) -> None:
        kind = action.type
        if kind is ActionType.RESTART_TASK:
            # Same task, fresh attempt: the next iteration re-announces.
            self._start_checked.set(False)
        elif kind is ActionType.SKIP_TASK:
            self._trace_skip()
            self._advance_to_next_task()
        elif kind is ActionType.RESTART_PATH:
            self._restart_path(action.path or self._cur_path.get())
        elif kind is ActionType.SKIP_PATH:
            self._skip_path(action.path or self._cur_path.get())
        elif kind is ActionType.COMPLETE_PATH:
            # Finish the path unmonitored, starting with the current task.
            self._suspended.set(True)
            self._start_checked.set(True)
        else:
            raise RuntimeConfigError(f"cannot apply action {action}")

    def _advance_after_end(self, action: Action) -> None:
        kind = action.type
        if kind is ActionType.RESTART_TASK:
            self._status.set(_READY)
            self._start_checked.set(False)
        elif kind is ActionType.RESTART_PATH:
            self._restart_path(action.path or self._cur_path.get())
        elif kind is ActionType.SKIP_PATH:
            self._skip_path(action.path or self._cur_path.get())
        elif kind is ActionType.COMPLETE_PATH:
            self._suspended.set(True)
            self._advance_to_next_task()
        else:
            # NONE and SKIP_TASK both move on (the task already ran).
            self._advance_to_next_task()

    def _advance_to_next_task(self) -> None:
        path = self.app.path(self._cur_path.get())
        if self._cur_idx.get() + 1 < len(path):
            self._cur_idx.set(self._cur_idx.get() + 1)
            self._status.set(_READY)
            self._start_checked.set(False)
            return
        self._device.trace.record(
            self._device.sim_clock.now(), "path_complete", path=path.number
        )
        if self._suspended.get():
            # completePath: end the run; resume after this path next time.
            self._finish_run(resume_path=path.number + 1)
        elif path.number < len(self.app.paths):
            self._enter_path(path.number + 1)
        else:
            self._finish_run(resume_path=1)

    def _restart_path(self, number: int) -> None:
        path = self.app.path(number)
        self._device.trace.record(
            self._device.sim_clock.now(), "path_restart", path=number
        )
        self.monitor.reinit_for_path_restart(path.task_names)
        self._enter_path(number)

    def _skip_path(self, number: int) -> None:
        self._device.trace.record(
            self._device.sim_clock.now(), "path_skip", path=number
        )
        if number < len(self.app.paths):
            self._enter_path(number + 1)
        else:
            self._finish_run(resume_path=1)

    def _enter_path(self, number: int) -> None:
        self._cur_path.set(number)
        self._cur_idx.set(0)
        self._status.set(_READY)
        self._start_checked.set(False)

    def _finish_run(self, resume_path: int) -> None:
        self._resume_path.set(resume_path)
        self._suspended.set(False)
        self._finished.set(True)

    def _trace_skip(self) -> None:
        self._device.trace.record(
            self._device.sim_clock.now(), "task_skip",
            task=self.current_task_name, path=self._cur_path.get(),
        )
