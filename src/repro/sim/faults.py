"""Reusable fault-injection devices.

The energy model produces *organic* power failures; testing resilience
claims needs *placed* ones. These devices subclass
:class:`~repro.sim.Device` with deterministic or stochastic brown-out
injection while otherwise running on continuous power, so a failure
lands exactly where the test wants it and nowhere else.

All injected failures participate in the normal protocol: the payment
dies *before* its work happens, the trace records ``power_failure``,
and ``reboot()`` brings the device back instantly (no charging delay —
the timing dimension is the energy model's job, not the fault
injector's; combine with real environments when both matter), marking
the power cycle in an attached access log as :meth:`Device.reboot`
does.

A payment is one ``consume`` or one ``consume_energy`` call. An
injector sees an instantaneous draw as ``(0.0, 0.0, category)``, the
triple :meth:`Device.consume_energy` offers a scheduler, so injector
indices and :class:`~repro.verify.schedule.CrashScheduleRunner`
payment indices count the same calls.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

from repro.energy.environment import EnergyEnvironment
from repro.errors import PowerFailure, SimulationError
from repro.sim.device import Device


class _InjectingDevice(Device):
    """Shared machinery: continuous power + pre-work failure injection."""

    def __init__(self):
        super().__init__(EnergyEnvironment.continuous())

    def _die(self, category: str) -> None:
        self._alive = False
        self.trace.record(self.sim_clock.now(), "power_failure",
                          category=category, injected=True)
        raise PowerFailure(self.sim_clock.now())

    def reboot(self) -> None:
        self.result.reboots += 1
        self.clock.on_reboot()
        if self.nvm.access_log is not None:
            self.nvm.access_log.mark_reboot()
        self._alive = True
        self.trace.record(self.sim_clock.now(), "boot", injected=True)

    # Subclasses decide whether a given payment dies.
    def _should_fail(self, duration_s: float, power_w: float,
                     category: str) -> bool:
        raise NotImplementedError

    def _before_payment(self, duration_s: float, power_w: float,
                        category: str) -> None:
        if self._should_fail(duration_s, power_w, category):
            self._die(category)

    def consume(self, duration_s: float, power_w: float, category: str) -> None:
        self._before_payment(duration_s, power_w, category)
        super().consume(duration_s, power_w, category)

    def consume_energy(self, energy_j: float, category: str) -> None:
        self._before_payment(0.0, 0.0, category)
        super().consume_energy(energy_j, category)


class FailAtIndices(_InjectingDevice):
    """Dies at the given 1-based global payment indices."""

    def __init__(self, indices: Iterable[int]):
        super().__init__()
        self.indices: Set[int] = set(indices)
        self.calls = 0

    def _should_fail(self, duration_s, power_w, category) -> bool:
        self.calls += 1
        return self.calls in self.indices


class FailAtCategoryIndices(_InjectingDevice):
    """Dies at 1-based per-category payment indices, e.g.
    ``{"monitor": {3}}`` kills the third monitor-time payment."""

    def __init__(self, fail_at: Dict[str, Set[int]]):
        super().__init__()
        self.fail_at = {k: set(v) for k, v in fail_at.items()}
        self.calls: Dict[str, int] = {}

    def _should_fail(self, duration_s, power_w, category) -> bool:
        n = self.calls.get(category, 0) + 1
        self.calls[category] = n
        return n in self.fail_at.get(category, ())


class FailRandomly(_InjectingDevice):
    """Each payment dies with probability ``p`` (seeded)."""

    def __init__(self, p: float, seed: int = 0, max_failures: Optional[int] = None):
        super().__init__()
        if not 0.0 <= p <= 1.0:
            raise SimulationError("failure probability must be in [0, 1]")
        self.p = p
        self._rng = random.Random(seed)
        self.max_failures = max_failures
        self.failures = 0

    def _should_fail(self, duration_s, power_w, category) -> bool:
        if self.max_failures is not None and self.failures >= self.max_failures:
            return False
        if self._rng.random() < self.p:
            self.failures += 1
            return True
        return False


class FailDuringCommit(_InjectingDevice):
    """Dies at the given 1-based *commit-step* indices.

    Every journal write, the checksummed status flip, and every apply
    step of a journaled two-phase commit pays energy in the ``commit``
    category; this device counts only those payments, so a test can
    place a brown-out precisely inside a commit — e.g. between the
    journal being sealed and its entries being applied — and assert
    that boot-time recovery rolls the commit back or forward correctly.
    """

    def __init__(self, indices: Iterable[int]):
        super().__init__()
        self.indices: Set[int] = set(indices)
        self.steps = 0

    def _should_fail(self, duration_s, power_w, category) -> bool:
        if category != "commit":
            return False
        self.steps += 1
        return self.steps in self.indices


class BitFlipDevice(_InjectingDevice):
    """Silently corrupts NVM cells at given 1-based payment indices.

    ``flips`` maps a payment index to the cell name (or names) to
    corrupt via :meth:`~repro.nvm.memory.NonVolatileMemory.corrupt` just
    before that call runs: reads keep succeeding with plausible garbage
    and only per-cell checksums can tell. The injection is recorded as a
    ``bit_flip`` trace event for test diagnostics — recovery code never
    looks at the trace. ``crash_at`` optionally adds a brown-out at a
    payment index so the next boot's recovery pass gets a chance to
    detect the damage (corruption scheduled for the crashing payment
    lands before the device dies). Cells must already be allocated when
    their flip fires.
    """

    def __init__(
        self,
        flips: Dict[int, Union[str, Sequence[str]]],
        crash_at: Optional[int] = None,
        bit: int = 0,
    ):
        super().__init__()
        self.flips: Dict[int, Tuple[str, ...]] = {
            idx: (cells,) if isinstance(cells, str) else tuple(cells)
            for idx, cells in flips.items()
        }
        self.crash_at = crash_at
        self.bit = bit
        self.calls = 0

    def _before_payment(self, duration_s: float, power_w: float,
                        category: str) -> None:
        self.calls += 1
        for cell in self.flips.get(self.calls, ()):
            self.nvm.corrupt(cell, bit=self.bit)
            self.trace.record(self.sim_clock.now(), "bit_flip",
                              cell=cell, injected=True)
        super()._before_payment(duration_s, power_w, category)

    def _should_fail(self, duration_s, power_w, category) -> bool:
        return self.crash_at is not None and self.calls == self.crash_at


class FailDuringTasks(_InjectingDevice):
    """Dies on the first N 'app' payments of each named task.

    Task attribution uses the most recent ``task_start`` trace record,
    so it composes with any runtime that traces task starts (all of the
    runtimes in this package do).
    """

    def __init__(self, times_per_task: Dict[str, int]):
        super().__init__()
        self.remaining = dict(times_per_task)

    def _current_task(self) -> Optional[str]:
        last = self.trace.last("task_start")
        return last.detail.get("task") if last else None

    def _should_fail(self, duration_s, power_w, category) -> bool:
        if category != "app":
            return False
        task = self._current_task()
        if task is None:
            return False
        left = self.remaining.get(task, 0)
        if left > 0:
            self.remaining[task] = left - 1
            return True
        return False
