"""Application-specific monitors (the paper's generated component).

An :class:`ArtemisMonitor` bundles one machine instance per property —
compiled from generated Python source by default, or interpreted for
differential testing — behind the ``callMonitor`` interface of
Figure 10. All machine state lives in NVM; event processing runs under
an :class:`~repro.immortal.ImmortalRoutine` so a power failure mid-call
is finished by ``monitorFinalize`` after reboot (§4.2.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.actions import Action, ActionType
from repro.core.events import MonitorEvent
from repro.core.generator import build_monitor_plan
from repro.core.properties import Property, PropertySet
from repro.errors import ReproError
from repro.immortal.continuations import ImmortalRoutine, PersistentList
from repro.nvm.memory import NonVolatileMemory
from repro.nvm.store import NVMStore
from repro.statemachine.codegen_python import compile_machine
from repro.statemachine.interpreter import MachineInstance

#: A spend callback charges the device `seconds` of monitor CPU time and
#: may raise PowerFailure. Passing `lambda s: None` runs cost-free.
SpendFn = Callable[[float], None]


def _no_spend(seconds: float) -> None:
    return None


def subscription_tables(machines) -> tuple:
    """``(wildcard_set, dispatch)`` for a machine list — the per-task
    subscription tables of the dispatch fast path.

    ``wildcard_set`` holds indices of machines with any task-less
    trigger (they inspect every event); ``dispatch`` maps each task name
    to the frozen set of machine indices inspecting its events. This is
    the exact construction :class:`ArtemisMonitor` dispatches (and
    charges per-machine cost) from, factored out so the static analyzer
    in :mod:`repro.analysis.energy` bounds the same cost model the
    simulator executes.
    """
    relevant: Dict[str, List[int]] = {}
    for idx, machine in enumerate(machines):
        if any(t.trigger.task is None for t in machine.transitions):
            relevant.setdefault("*", []).append(idx)
            continue
        for task in machine.referenced_tasks():
            relevant.setdefault(task, []).append(idx)
    wildcard_set = frozenset(relevant.get("*", ()))
    dispatch = {
        task: wildcard_set.union(indices)
        for task, indices in relevant.items()
        if task != "*"
    }
    return wildcard_set, dispatch


class ArtemisMonitor:
    """Monitors for one application's property set.

    Args:
        props: validated property set.
        nvm: non-volatile memory shared with the runtime.
        backend: ``"generated"`` (compile generated Python source — the
            default, mirroring the paper's pipeline) or ``"interpreted"``
            (reference interpreter).
        name: NVM namespace for this monitor's state.
    """

    def __init__(
        self,
        props: PropertySet,
        nvm: NonVolatileMemory,
        backend: str = "generated",
        name: str = "monitor",
    ):
        if backend not in ("generated", "interpreted"):
            raise ReproError(f"unknown monitor backend {backend!r}")
        self.props = props
        self.name = name
        self._nvm = nvm
        self.plan = build_monitor_plan(props)
        self.machines = self.plan.machines
        self._props_by_machine: Dict[str, Property] = self.plan.prop_for_machine
        self.instances = []
        # Temporal property machines read their shared sub-monitors'
        # variables through extern(...) expressions; resolve them against
        # this monitor's own instance registry. Machines are stepped in
        # plan order (sub-monitors before readers), so a read always sees
        # the peer's state as of the current event.
        instances_by_name: Dict[str, object] = {}

        def extern(machine_name: str, var_name: str):
            return instances_by_name[machine_name].get(var_name)

        for machine in self.machines:
            # Machine state is advanced in place; crash-safety comes
            # from the monitor's own exactly-once protocol (last_seq
            # dedup + ImmortalRoutine), not from write privatization —
            # declare the store's cells WAR-exempt progress cells.
            store = NVMStore(nvm, f"{name}.{machine.name}", progress=True)
            if backend == "generated":
                instance = compile_machine(machine)(store, extern)
            else:
                instance = MachineInstance(machine, store, extern)
            instances_by_name[machine.name] = instance
            self.instances.append(instance)
        self._routine = ImmortalRoutine(nvm, f"{name}.call")
        # Machines currently shed by the degradation controller. Persisted
        # so a reboot in a low-energy spell does not silently re-enable
        # monitors the controller decided the budget cannot afford.
        self._shed_cell = nvm.alloc(f"{name}.shed", initial=(), size_bytes=32,
                                    progress=True)
        self._pending_event = nvm.alloc(f"{name}.pending_event", initial=None,
                                        size_bytes=32, progress=True)
        self._verdicts = PersistentList(nvm, f"{name}.verdicts")
        # Last completed call: its sequence stamp and the actions it
        # produced, kept so a MonitorGroup can aggregate across members
        # after an interruption without losing earlier members' verdicts.
        self._last_seq = nvm.alloc(f"{name}.last_seq", initial=-1, size_bytes=4,
                                   progress=True)
        self._last_actions = nvm.alloc(f"{name}.last_actions", initial=(),
                                       size_bytes=32, progress=True)
        # Frozen per-task subscription tables (shared with the static
        # analyzer — see :func:`subscription_tables`): a machine with
        # any wildcard trigger inspects every event; one outside the
        # dispatch set for a task can never match any of its transitions
        # on that task's events, so its step may skip ``on_event``
        # entirely — same verdicts, same charged energy.
        self._wildcard_set, self._dispatch = subscription_tables(self.machines)
        self._machine_names = frozenset(m.name for m in self.machines)

    # ------------------------------------------------------------------
    # Interface used by the runtime (Figure 8/10)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """``resetMonitor``: hard-reset every machine (first boot only)."""
        for instance in self.instances:
            instance.reset()
        self._shed_cell.set(())
        self._pending_event.set(None)
        self._verdicts.clear()
        self._last_seq.set(-1)
        self._last_actions.set(())

    def call(
        self,
        event: MonitorEvent,
        spend: SpendFn = _no_spend,
        per_machine_cost_s: float = 0.0,
        base_cost_s: float = 0.0,
        seq: int = -1,
    ) -> List[Action]:
        """``callMonitor``: feed one event to every machine.

        ``spend`` is charged ``base_cost_s`` once plus
        ``per_machine_cost_s`` per machine that actually inspects this
        event; a :class:`~repro.errors.PowerFailure` raised inside it
        leaves a resumable continuation behind (:meth:`finalize`).
        ``seq`` is an optional caller-supplied stamp recorded with the
        completed call (used by :class:`MonitorGroup`).
        """
        self._pending_event.set(event.to_dict())
        self._verdicts.clear()
        steps = self._steps(event, spend, per_machine_cost_s, base_cost_s)
        self._routine.run(steps)
        return self._collect_actions(seq)

    def finalize(
        self,
        spend: SpendFn = _no_spend,
        per_machine_cost_s: float = 0.0,
        base_cost_s: float = 0.0,
        seq: int = -1,
    ) -> Optional[List[Action]]:
        """``monitorFinalize``: complete an interrupted ``call``.

        Returns the actions of the completed call, or ``None`` if no
        call was in progress.
        """
        if not self._routine.in_progress:
            return None
        payload = self._pending_event.get()
        if payload is None:
            raise ReproError("interrupted monitor call has no pending event")
        event = MonitorEvent.from_dict(payload)
        self._routine.resume(self._steps(event, spend, per_machine_cost_s, base_cost_s))
        return self._collect_actions(seq)

    @property
    def last_seq(self) -> int:
        """Sequence stamp of the last completed call (-1 if none)."""
        return self._last_seq.get()

    def last_actions(self) -> List[Action]:
        """Actions produced by the last completed call (replayable)."""
        return [
            Action(ActionType.from_name(action), path, source=machine)
            for machine, action, path in self._last_actions.get()
        ]

    # ------------------------------------------------------------------
    def _steps(
        self,
        event: MonitorEvent,
        spend: SpendFn,
        per_machine_cost_s: float,
        base_cost_s: float,
    ):
        relevant = self._dispatch.get(event.task, self._wildcard_set)
        shed = self._shed_names()
        verdicts = self._verdicts

        # One shared step for every machine that will not inspect this
        # event. Shed machines keep their slot in the list (the
        # resumable continuation requires a constant step count) but
        # neither inspect the event nor cost per-machine time — that
        # zero is exactly the energy the degradation controller saves.
        # Machines not subscribed to the event's task are charged the
        # same zero and, since none of their transitions can match,
        # skipping their ``on_event`` is observation-equivalent.
        def idle_step() -> None:
            spend(0.0)

        def make_step(instance):
            def step() -> None:
                spend(per_machine_cost_s)
                for verdict in instance.on_event(event):
                    verdicts.append((verdict.machine, verdict.action, verdict.path))

            return step

        def base_step() -> None:
            spend(base_cost_s)

        steps = [base_step]
        if shed:
            for idx, machine in enumerate(self.machines):
                if machine.name in shed or idx not in relevant:
                    steps.append(idle_step)
                else:
                    steps.append(make_step(self.instances[idx]))
        else:
            for idx in range(len(self.instances)):
                if idx in relevant:
                    steps.append(make_step(self.instances[idx]))
                else:
                    steps.append(idle_step)
        return steps

    def _collect_actions(self, seq: int = -1) -> List[Action]:
        raw = tuple(self._verdicts.items())
        actions = [
            Action(ActionType.from_name(action), path, source=machine)
            for machine, action, path in raw
        ]
        self._last_actions.set(raw)
        self._last_seq.set(seq)
        self._verdicts.clear()
        self._pending_event.set(None)
        return actions

    # ------------------------------------------------------------------
    # Runtime integration helpers
    # ------------------------------------------------------------------
    @property
    def in_progress(self) -> bool:
        """True if a power failure interrupted the last ``call``."""
        return self._routine.in_progress

    def properties_for_task(self, task: str) -> int:
        """How many properties inspect this task's events (cost model)."""
        return len(self._dispatch.get(task, self._wildcard_set))

    def reinit_for_path_restart(self, path_task_names: Sequence[str]) -> int:
        """Re-initialise monitors tied to tasks of a restarting path
        (§3.3), excluding progress/escalation trackers — see
        ``Property.REINIT_ON_PATH_RESTART``. Returns how many were reset.
        """
        task_set = set(path_task_names)
        count = 0
        for machine, instance in zip(self.machines, self.instances):
            # Shared temporal sub-monitors have no property of their own
            # and are never re-initialised: their history (e.g. "once
            # ended(sample)") spans path restarts by design.
            prop = self._props_by_machine.get(machine.name)
            if prop is None:
                continue
            if prop.task in task_set and prop.REINIT_ON_PATH_RESTART:
                instance.reset()
                count += 1
        return count

    # ------------------------------------------------------------------
    # Energy-adaptive degradation (shed / restore)
    # ------------------------------------------------------------------
    def _shed_names(self) -> set:
        """Currently shed machine names, defensively filtered to known
        machines (a corrupted shed cell degrades to 'nothing shed')."""
        value = self._shed_cell.get()
        if not value or not isinstance(value, (tuple, list)):
            return set()
        return {n for n in value if n in self._machine_names}

    def sheddable(self, machine_name: str) -> bool:
        """Whether the degradation controller may shed this machine.

        Progress trackers over gapless event streams (collect, MITD)
        would silently report wrong results after missing events, so
        their properties opt out via ``SUPPORTS_PRIORITY``.
        """
        prop = self._props_by_machine.get(machine_name)
        return prop is not None and type(prop).SUPPORTS_PRIORITY

    def machine_priority(self, machine_name: str) -> int:
        """Degradation priority of a machine (0 = shed first)."""
        for machine in self.machines:
            if machine.name == machine_name:
                return machine.priority
        raise ReproError(f"no machine named {machine_name!r}")

    def shedding_order(self) -> List[str]:
        """Sheddable machines, lowest priority first (ties: machine
        name) — the order the controller sheds them in. Name tie-breaks
        keep decisions deterministic across runs, declaration orders,
        and hash seeds."""
        order = sorted(
            (machine.priority, machine.name)
            for machine in self.machines
            if self.sheddable(machine.name)
        )
        return [name for _, name in order]

    def is_shed(self, machine_name: str) -> bool:
        """True while the named machine is shed."""
        return machine_name in self._shed_names()

    def shed_machines(self) -> List[str]:
        """Currently shed machines, in declaration order."""
        shed = self._shed_names()
        return [m.name for m in self.machines if m.name in shed]

    def shed(self, machine_name: str) -> bool:
        """Disable one machine; True if it was running and sheddable.

        Refused while a call continuation is in progress — the step list
        must not change shape under a resumable call.
        """
        if self._routine.in_progress:
            return False
        if not self.sheddable(machine_name) or self.is_shed(machine_name):
            return False
        shed = self._shed_names() | {machine_name}
        self._shed_cell.set(tuple(m.name for m in self.machines if m.name in shed))
        return True

    def restore(self, machine_name: str) -> bool:
        """Re-enable a shed machine; True if it was shed.

        The machine restarts from its initial state: it missed events
        while shed, so resuming its stale timestamps/counters could
        fire immediate false violations.
        """
        if self._routine.in_progress:
            return False
        shed = self._shed_names()
        if machine_name not in shed:
            return False
        shed.discard(machine_name)
        self._shed_cell.set(tuple(m.name for m in self.machines if m.name in shed))
        self.reset_machine(machine_name)
        return True

    # ------------------------------------------------------------------
    # Boot-time recovery hooks
    # ------------------------------------------------------------------
    def nvm_prefixes(self) -> List[str]:
        """NVM namespaces holding this monitor's persistent state.

        Covers machine stores and bookkeeping cells (``{name}.``), the
        resumable call continuation (``imm.{name}.call.``), and the
        verdict list (``plist.{name}.``); used by the
        :class:`~repro.core.recovery.RecoveryManager` to scope its
        checksum scan.
        """
        return [f"{self.name}.", f"imm.{self.name}.call.",
                f"plist.{self.name}."]

    def validate(self) -> List[str]:
        """Names of machines whose persisted state is not a legal state.

        A bit flip can turn a state name into garbage that still reads
        as a string; checksum verification catches *silent* corruption,
        while this catches values that were (re)written legitimately but
        are semantically impossible.
        """
        bad: List[str] = []
        for machine, instance in zip(self.machines, self.instances):
            try:
                ok = instance.state in machine.states
            except Exception:
                ok = False
            if not ok:
                bad.append(machine.name)
        return bad

    def reset_machine(self, machine_name: str) -> bool:
        """Reset one machine to its initial state; True if it exists."""
        for machine, instance in zip(self.machines, self.instances):
            if machine.name == machine_name:
                instance.reset()
                return True
        return False

    def repair_cell(self, cell_name: str) -> Optional[str]:
        """Component-level repair after a cell was reset to its initial.

        If the cell belonged to one machine's store, that machine alone
        is reset so its remaining cells are mutually consistent; other
        monitor cells (continuation, verdicts, pending event) need no
        further action once restored. Returns a description or ``None``.
        """
        for machine in self.machines:
            if cell_name.startswith(f"{self.name}.{machine.name}."):
                self.reset_machine(machine.name)
                return f"machine {machine.name} reset"
        return None


class MonitorGroup:
    """Several independent monitors fed as one (§3.1: the runtime feeds
    "one or more application-specific monitors").

    Each member keeps its own NVM namespace and its own resumable
    continuation, so monitors authored and deployed separately (e.g.
    per concern, or one generated from each frontend language) evolve
    independently — the modularity the paper's architecture promises.
    The group presents the same interface as a single
    :class:`ArtemisMonitor`, so the runtime does not care which it got.

    Power-failure protocol: each group call stamps a persisted sequence
    number and delivers the event to members in order. A brown-out can
    strike before, inside, or between member calls; on the next boot
    :meth:`finalize` uses each member's ``last_seq`` to decide whether
    to resume it (interrupted), re-deliver the pending event (not yet
    reached), or merely replay its stored verdicts (already done) — so
    every member processes every event exactly once and no verdict is
    lost.
    """

    def __init__(self, monitors: Sequence[ArtemisMonitor],
                 nvm: NonVolatileMemory, name: str = "monitor_group"):
        if not monitors:
            raise ReproError("MonitorGroup needs at least one monitor")
        names = [m.name for m in monitors]
        if len(set(names)) != len(names):
            raise ReproError("monitors in a group need unique names")
        self.monitors = list(monitors)
        self.name = name
        self._seq = nvm.alloc(f"{name}.seq", initial=0, size_bytes=4,
                              progress=True)
        self._pending = nvm.alloc(f"{name}.pending", initial=None,
                                  size_bytes=32, progress=True)

    def reset(self) -> None:
        """Hard-reset every member (``resetMonitor``)."""
        for monitor in self.monitors:
            monitor.reset()
        self._pending.set(None)

    def call(self, event: MonitorEvent, spend: SpendFn = _no_spend,
             per_machine_cost_s: float = 0.0,
             base_cost_s: float = 0.0) -> List[Action]:
        """Deliver one event to every member; aggregate their actions."""
        seq = self._seq.get() + 1
        self._seq.set(seq)
        self._pending.set(event.to_dict())
        for monitor in self.monitors:
            monitor.call(event, spend, per_machine_cost_s, base_cost_s,
                         seq=seq)
        return self._aggregate(seq)

    def finalize(self, spend: SpendFn = _no_spend,
                 per_machine_cost_s: float = 0.0,
                 base_cost_s: float = 0.0) -> Optional[List[Action]]:
        """Complete an interrupted group call, exactly once per member."""
        if not self.in_progress:
            return None
        seq = self._seq.get()
        payload = self._pending.get()
        if payload is None:
            raise ReproError("interrupted group call has no pending event")
        event = MonitorEvent.from_dict(payload)
        for monitor in self.monitors:
            if monitor.in_progress:
                monitor.finalize(spend, per_machine_cost_s, base_cost_s,
                                 seq=seq)
            elif monitor.last_seq != seq:
                monitor.call(event, spend, per_machine_cost_s, base_cost_s,
                             seq=seq)
            # else: this member already completed the call; replay below.
        return self._aggregate(seq)

    def _aggregate(self, seq: int) -> List[Action]:
        actions: List[Action] = []
        for monitor in self.monitors:
            if monitor.last_seq == seq:
                actions.extend(monitor.last_actions())
        self._pending.set(None)
        return actions

    @property
    def in_progress(self) -> bool:
        """True if a group call was interrupted before completing."""
        return self._pending.get() is not None

    def properties_for_task(self, task: str) -> int:
        """Total properties inspecting this task across members."""
        return sum(monitor.properties_for_task(task)
                   for monitor in self.monitors)

    def reinit_for_path_restart(self, path_task_names: Sequence[str]) -> int:
        """Propagate §3.3 re-initialisation to every member."""
        return sum(monitor.reinit_for_path_restart(path_task_names)
                   for monitor in self.monitors)

    # ------------------------------------------------------------------
    # Energy-adaptive degradation (delegated to members)
    # ------------------------------------------------------------------
    def sheddable(self, machine_name: str) -> bool:
        """True if any member may shed the named machine."""
        return any(monitor.sheddable(machine_name)
                   for monitor in self.monitors)

    def machine_priority(self, machine_name: str) -> int:
        """Priority of the named machine in the first member owning it."""
        for monitor in self.monitors:
            if machine_name in monitor._props_by_machine:
                return monitor.machine_priority(machine_name)
        raise ReproError(f"no machine named {machine_name!r}")

    def shedding_order(self) -> List[str]:
        """Sheddable machines across members, lowest priority first
        (ties: machine name, deterministic across member order)."""
        entries = []
        seen = set()
        for monitor in self.monitors:
            for name in monitor.shedding_order():
                if name in seen:
                    continue
                seen.add(name)
                entries.append((monitor.machine_priority(name), name))
        return [name for _, name in sorted(entries)]

    def is_shed(self, machine_name: str) -> bool:
        """True if the named machine is shed in any member."""
        return any(monitor.is_shed(machine_name)
                   for monitor in self.monitors)

    def shed_machines(self) -> List[str]:
        """Shed machines across members (deduplicated)."""
        names: List[str] = []
        for monitor in self.monitors:
            for name in monitor.shed_machines():
                if name not in names:
                    names.append(name)
        return names

    def shed(self, machine_name: str) -> bool:
        """Shed the named machine in every member owning it."""
        return any([monitor.shed(machine_name)
                    for monitor in self.monitors])

    def restore(self, machine_name: str) -> bool:
        """Restore the named machine in every member that shed it."""
        return any([monitor.restore(machine_name)
                    for monitor in self.monitors])

    # ------------------------------------------------------------------
    # Boot-time recovery hooks (delegated to members)
    # ------------------------------------------------------------------
    def nvm_prefixes(self) -> List[str]:
        """Group bookkeeping namespace plus every member's namespaces."""
        prefixes = [f"{self.name}."]
        for monitor in self.monitors:
            prefixes.extend(monitor.nvm_prefixes())
        return prefixes

    def validate(self) -> List[str]:
        """Illegal-state machines across all members."""
        bad: List[str] = []
        for monitor in self.monitors:
            bad.extend(monitor.validate())
        return bad

    def reset_machine(self, machine_name: str) -> bool:
        """Reset the named machine in every member that owns one.

        Members may monitor the same property (same machine name);
        resetting all of them keeps the group's members consistent.
        """
        return any([monitor.reset_machine(machine_name)
                    for monitor in self.monitors])

    def repair_cell(self, cell_name: str) -> Optional[str]:
        """Delegate cell repair to the member owning the cell."""
        for monitor in self.monitors:
            description = monitor.repair_cell(cell_name)
            if description is not None:
                return description
        return None
