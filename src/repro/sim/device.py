"""The simulated batteryless device.

Executes a runtime (ARTEMIS or a baseline) against an
:class:`~repro.energy.EnergyEnvironment`. The device is the only
component that advances simulation time and the only one that raises
:class:`~repro.errors.PowerFailure` — runtimes observe brown-outs solely
as an exception out of :meth:`Device.consume`, which is how real
firmware experiences them (execution simply stops).

Failure-atomicity contract: everything a runtime does *between* two
``consume`` calls is instantaneous and cannot be interrupted. A single
FRAM store on the real MCU is atomic; anything larger must not be. Task
commits therefore do **not** hide behind one consume call: the journaled
two-phase commit (:class:`~repro.nvm.transaction.Transaction`) pays one
``commit``-category consume per journal append, one for the checksummed
status flip, and one per apply step — so every interior step of a commit
is a distinct crash point a crash scheduler can target, and only the
status flip itself is atomic. ``commit``-category steps default to zero
duration (``PowerModel.commit_step_s``); a scheduler sees the call
itself, so it can still place a brown-out inside a zero-cost commit.

Scheduler hook: a :attr:`Device.scheduler` object (default ``None``)
sees every payment first via ``before_consume`` and may inject a
brown-out at that exact point. The conformance checker
(:mod:`repro.verify`) and the fault injectors (:mod:`repro.sim.faults`)
are both such schedulers, so a placed crash dies through
:meth:`Device._die` and comes back through :meth:`Device.reboot`, as an
organic one does. With no scheduler attached the hook is a single
``None`` check.
"""

from __future__ import annotations

from typing import Optional

from repro.clock.clock import PersistentClock, SimClock
from repro.energy.environment import EnergyEnvironment
from repro.errors import PowerFailure, SimulationError
from repro.nvm.memory import NonVolatileMemory
from repro.sim.result import CATEGORIES, RunResult
from repro.sim.tracer import Tracer


class Device:
    """MCU + storage + harvester + persistent clock.

    Args:
        env: energy environment (continuous or harvested).
        nvm: non-volatile memory (fresh 256 KB FRAM by default).
        tracer: trace sink (a new one by default).
        clock_error: relative persistent-clock error after outages.
    """

    def __init__(
        self,
        env: EnergyEnvironment,
        nvm: Optional[NonVolatileMemory] = None,
        tracer: Optional[Tracer] = None,
        clock_error: float = 0.0,
        seed: int = 0,
    ):
        self.env = env
        self.nvm = nvm if nvm is not None else NonVolatileMemory()
        self.sim_clock = SimClock()
        self.clock = PersistentClock(self.sim_clock, self.nvm, clock_error, seed)
        self.trace = tracer if tracer is not None else Tracer()
        self.result = RunResult()
        self._alive = True
        #: Optional consume scheduler (see :mod:`repro.verify.schedule`).
        #: When set, every energy payment is first offered to
        #: ``scheduler.before_consume(duration_s, power_w, category)``;
        #: a True return injects a brown-out at that exact point.
        #: ``None`` (the default) leaves every code path untouched.
        self.scheduler = None

    # ------------------------------------------------------------------
    # Interface used by runtimes
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Persistent-clock time (what intermittent software can read)."""
        return self.clock.now()

    def stored_energy(self) -> float:
        """Usable energy before brown-out (the §4.2.2 energy probe)."""
        return self.env.usable_energy()

    def consume(self, duration_s: float, power_w: float, category: str) -> None:
        """Run the MCU for ``duration_s`` at ``power_w``.

        Harvesting continues while the device runs; only the net draw
        depletes the capacitor. If stored energy runs out mid-way, time
        advances to the instant of death, the partial cost is accounted,
        and :class:`~repro.errors.PowerFailure` is raised.
        """
        scheduler = self.scheduler
        if scheduler is not None and scheduler.before_consume(
                duration_s, power_w, category):
            self._die(category, injected=True)
        if category not in CATEGORIES:
            raise SimulationError(f"unknown consumption category {category!r}")
        if duration_s < 0 or power_w < 0:
            raise SimulationError("consume() arguments must be non-negative")
        if not self._alive:
            raise SimulationError("consume() on a dead device; reboot first")
        if duration_s == 0.0:
            return

        env = self.env
        harvester = env.harvester
        if harvester is None:
            self._account(duration_s, power_w, category)
            env.consume(duration_s * power_w)
            return

        t = self.sim_clock.now()
        net_w = power_w - harvester.power_at(t)
        # Either the harvest covers the load (the surplus charges the
        # capacitor), or the store outlasts the step.
        if net_w <= 0 or env.capacitor.usable_energy / net_w >= duration_s:
            env.harvest(t, t + duration_s)
            env.consume(duration_s * power_w)
            self._account(duration_s, power_w, category)
            return

        # Brown-out mid-step.
        time_to_die = env.capacitor.usable_energy / net_w
        env.harvest(t, t + time_to_die)
        env.consume(time_to_die * power_w)
        self._account(time_to_die, power_w, category)
        self._die(category)

    def consume_energy(self, energy_j: float, category: str) -> None:
        """Instantaneous draw (e.g. a radio wake burst)."""
        if self.scheduler is not None and self.scheduler.before_consume(
                0.0, 0.0, category):
            self._die(category, injected=True)
        if category not in CATEGORIES:
            raise SimulationError(f"unknown consumption category {category!r}")
        if energy_j < 0:
            raise SimulationError("energy must be non-negative")
        self.result.energy_j[category] += min(energy_j, self.env.usable_energy())
        if not self.env.consume(energy_j):
            self._die(category)

    def _die(self, category: str, **detail) -> None:
        """Brown out now: stop, trace ``power_failure``, raise.

        A scheduler's failure passes ``injected=True`` and lands
        *before* the payment's work happens.
        """
        self._alive = False
        died_at = self.sim_clock.now()
        self.trace.record(died_at, "power_failure", category=category,
                          **detail)
        raise PowerFailure(died_at)

    def _account(self, duration_s: float, power_w: float, category: str) -> None:
        self.sim_clock.advance(duration_s)
        result = self.result
        result.on_time_s += duration_s
        result.busy_time_s[category] += duration_s
        result.energy_j[category] += duration_s * power_w

    # ------------------------------------------------------------------
    # Power-cycle management
    # ------------------------------------------------------------------
    def reboot(self) -> None:
        """Wait out the charging delay, then bring the device back up."""
        wait = self.env.recharge_to_boot(self.sim_clock.now())
        self.sim_clock.advance(wait)
        self.result.charge_time_s += wait
        self.result.reboots += 1
        self.clock.on_reboot()
        if self.nvm.access_log is not None:
            self.nvm.access_log.mark_reboot()
        self._alive = True
        self.trace.record(self.sim_clock.now(), "boot", charge_wait_s=round(wait, 3))

    @property
    def alive(self) -> bool:
        return self._alive

    # ------------------------------------------------------------------
    # Top-level execution loop
    # ------------------------------------------------------------------
    def run(
        self,
        runtime,
        runs: int = 1,
        max_time_s: Optional[float] = None,
        max_reboots: Optional[int] = None,
    ) -> RunResult:
        """Execute ``runs`` application iterations of ``runtime``.

        Stops early — with ``result.completed = False``, the paper's
        non-termination outcome — when ``max_time_s`` of simulated time
        or ``max_reboots`` power failures elapse first.
        """
        start = self.sim_clock.now()
        self.trace.record(start, "boot", first=True)
        while self.result.runs_completed < runs:
            try:
                runtime.boot(self)
                while not runtime.finished:
                    if self._budget_exhausted(start, max_time_s, max_reboots):
                        return self._give_up(start)
                    runtime.loop_iteration(self)
                self.result.runs_completed += 1
                self.trace.record(self.sim_clock.now(), "run_complete",
                                  run=self.result.runs_completed)
                if self.result.runs_completed < runs:
                    runtime.begin_run(self)
            except PowerFailure:
                if self._budget_exhausted(start, max_time_s, max_reboots):
                    return self._give_up(start)
                self.reboot()
        self.result.completed = True
        self.result.total_time_s = self.sim_clock.now() - start
        return self.result

    def _budget_exhausted(
        self, start: float, max_time_s: Optional[float], max_reboots: Optional[int]
    ) -> bool:
        if max_time_s is not None and self.sim_clock.now() - start >= max_time_s:
            return True
        if max_reboots is not None and self.result.reboots >= max_reboots:
            return True
        return False

    def _give_up(self, start: float) -> RunResult:
        self.trace.record(self.sim_clock.now(), "gave_up")
        self.result.completed = False
        self.result.total_time_s = self.sim_clock.now() - start
        return self.result
