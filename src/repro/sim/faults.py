"""Fault injectors: crash schedulers on a continuous-power device.

The energy model produces *organic* power failures; testing resilience
claims needs *placed* ones. Each injector is a scheduler object
(``before_consume(duration_s, power_w, category) -> bool``, the hook
:class:`~repro.verify.schedule.CrashScheduleRunner` uses) attached to
its own :class:`~repro.sim.Device` on continuous power, which it
exposes as ``.device``; the device's ``scheduler`` is the injector,
with its counters::

    device = FailRandomly(p=0.05, seed=3).device
    device.run(runtime)
    device.scheduler.failures

An injector only decides. A True return makes the device brown out
*before* the payment's work happens; dying, rebooting (with a charging
wait of 0) and marking an attached access log are the device's. A
payment is one ``consume`` or ``consume_energy`` call, so injector
indices and the runner's payment indices count the same calls.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

from repro.energy.environment import EnergyEnvironment
from repro.errors import SimulationError
from repro.sim.device import Device


class _Injector:
    """A crash scheduler on its own continuous-power ``device``."""

    def __init__(self):
        self.device = Device(EnergyEnvironment.continuous())
        self.device.scheduler = self


class FailAtIndices(_Injector):
    """Dies at the given 1-based global payment indices."""

    def __init__(self, indices: Iterable[int]):
        super().__init__()
        self.indices: Set[int] = set(indices)
        self.calls = 0

    def before_consume(self, duration_s, power_w, category) -> bool:
        self.calls += 1
        return self.calls in self.indices


class FailAtCategoryIndices(_Injector):
    """Dies at 1-based per-category payment indices, e.g.
    ``{"monitor": {3}}`` kills the third monitor-time payment."""

    def __init__(self, fail_at: Dict[str, Set[int]]):
        super().__init__()
        self.fail_at = {k: set(v) for k, v in fail_at.items()}
        self.calls: Dict[str, int] = {}

    def before_consume(self, duration_s, power_w, category) -> bool:
        n = self.calls.get(category, 0) + 1
        self.calls[category] = n
        return n in self.fail_at.get(category, ())


class FailRandomly(_Injector):
    """Each payment dies with probability ``p`` (seeded)."""

    def __init__(self, p: float, seed: int = 0, max_failures: Optional[int] = None):
        super().__init__()
        if not 0.0 <= p <= 1.0:
            raise SimulationError("failure probability must be in [0, 1]")
        self.p = p
        self._rng = random.Random(seed)
        self.max_failures = max_failures
        self.failures = 0

    def before_consume(self, duration_s, power_w, category) -> bool:
        if self.max_failures is not None and self.failures >= self.max_failures:
            return False
        if self._rng.random() < self.p:
            self.failures += 1
            return True
        return False


class FailDuringCommit(_Injector):
    """Dies at the given 1-based *commit-step* indices.

    Every journal write, the checksummed status flip, and every apply
    step of a journaled two-phase commit pays energy in the ``commit``
    category; this injector counts only those payments, so a test can
    place a brown-out precisely inside a commit — e.g. between the
    journal being sealed and its entries being applied — and assert
    that boot-time recovery rolls the commit back or forward correctly.
    """

    def __init__(self, indices: Iterable[int]):
        super().__init__()
        self.indices: Set[int] = set(indices)
        self.steps = 0

    def before_consume(self, duration_s, power_w, category) -> bool:
        if category != "commit":
            return False
        self.steps += 1
        return self.steps in self.indices


class BitFlipDevice(_Injector):
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

    def before_consume(self, duration_s, power_w, category) -> bool:
        self.calls += 1
        device = self.device
        for cell in self.flips.get(self.calls, ()):
            device.nvm.corrupt(cell, bit=self.bit)
            device.trace.record(device.sim_clock.now(), "bit_flip",
                                cell=cell, injected=True)
        return self.crash_at is not None and self.calls == self.crash_at


class FailDuringTasks(_Injector):
    """Dies on the first N 'app' payments of each named task.

    Task attribution uses the device's most recent ``task_start`` trace
    record, so it composes with any runtime that traces task starts
    (all of the runtimes in this package do).
    """

    def __init__(self, times_per_task: Dict[str, int]):
        super().__init__()
        self.remaining = dict(times_per_task)

    def before_consume(self, duration_s, power_w, category) -> bool:
        if category != "app":
            return False
        last = self.device.trace.last("task_start")
        task = last.detail.get("task") if last else None
        if task is None:
            return False
        left = self.remaining.get(task, 0)
        if left > 0:
            self.remaining[task] = left - 1
            return True
        return False
