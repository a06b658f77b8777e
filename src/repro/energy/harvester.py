"""Ambient energy sources.

A harvester answers one question: how much power (watts) is being
delivered to the capacitor at simulation time ``t``. Concrete models:

* :class:`ConstantHarvester` — steady power (the continuously-powered
  setup of the paper's Figures 14/15 is the limit of a large constant).
* :class:`RFHarvester` — Powercast-style RF source with log-distance
  path loss and receiver efficiency.
* :class:`PeriodicOutageHarvester` — power alternating between full and
  zero; used to dial in exact *charging delays* (Fig. 12's 1–10 min
  x-axis).
* :class:`TraceHarvester` — piecewise-constant replay of a recorded or
  synthetic trace.
* :class:`SolarHarvester` — sinusoidal diurnal profile for the examples.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.errors import EnergyError


class Harvester(ABC):
    """Power source interface: instantaneous power at a given time."""

    @abstractmethod
    def power_at(self, t: float) -> float:
        """Instantaneous harvested power (watts) at time ``t`` seconds."""

    def dark_from(self, t: float) -> bool:
        """True if the source delivers no power at any time from ``t``
        on, so a drained capacitor can never recharge. ``False`` claims
        nothing (the default)."""
        return False

    def energy_between(self, t0: float, t1: float, step: float = 0.1) -> float:
        """Integrate power over ``[t0, t1]`` (trapezoid, fixed step).

        Subclasses with closed forms override this.
        """
        if t1 < t0:
            raise EnergyError("t1 must be >= t0")
        if t1 == t0:
            return 0.0
        n = max(1, int(math.ceil((t1 - t0) / step)))
        h = (t1 - t0) / n
        total = 0.0
        prev = self.power_at(t0)
        for i in range(1, n + 1):
            cur = self.power_at(t0 + i * h)
            total += 0.5 * (prev + cur) * h
            prev = cur
        return total


class ConstantHarvester(Harvester):
    """Steady power source."""

    def __init__(self, power_w: float):
        if power_w < 0:
            raise EnergyError("power must be non-negative")
        self.power_w = power_w

    def power_at(self, t: float) -> float:
        return self.power_w

    def dark_from(self, t: float) -> bool:
        return self.power_w <= 0

    def energy_between(self, t0: float, t1: float, step: float = 0.1) -> float:
        if t1 < t0:
            raise EnergyError("t1 must be >= t0")
        return self.power_w * (t1 - t0)


class RFHarvester(Harvester):
    """RF energy source with log-distance path loss.

    Models the paper's Powercast TX91501-3W transmitter + P2110 receiver.
    Received power follows ``P_rx = P_tx * G / d^alpha`` and is converted
    with a fixed rectifier efficiency. Defaults give the few-mW harvest
    rates typical at 1–2 m from a 3 W transmitter.

    Args:
        tx_power_w: transmitter power (3.0 for TX91501-3W).
        distance_m: transmitter-receiver distance.
        path_loss_exp: path loss exponent (2.0 = free space).
        gain: combined antenna gains and constant losses.
        efficiency: RF-to-DC conversion efficiency of the receiver.
    """

    def __init__(
        self,
        tx_power_w: float = 3.0,
        distance_m: float = 1.0,
        path_loss_exp: float = 2.0,
        gain: float = 0.002,
        efficiency: float = 0.55,
    ):
        if tx_power_w < 0 or distance_m <= 0:
            raise EnergyError("tx_power must be >=0 and distance > 0")
        if not 0 < efficiency <= 1:
            raise EnergyError("efficiency must be in (0, 1]")
        self.tx_power_w = tx_power_w
        self.distance_m = distance_m
        self.path_loss_exp = path_loss_exp
        self.gain = gain
        self.efficiency = efficiency

    def power_at(self, t: float) -> float:
        received = self.tx_power_w * self.gain / (self.distance_m ** self.path_loss_exp)
        return received * self.efficiency

    def dark_from(self, t: float) -> bool:
        return self.power_at(t) == 0.0

    def energy_between(self, t0: float, t1: float, step: float = 0.1) -> float:
        if t1 < t0:
            raise EnergyError("t1 must be >= t0")
        return self.power_at(t0) * (t1 - t0)


class PeriodicOutageHarvester(Harvester):
    """Power alternating between ``power_w`` (for ``on_s``) and zero
    (for ``off_s``), starting in the ON phase at t=0."""

    def __init__(self, power_w: float, on_s: float, off_s: float):
        if power_w < 0 or on_s <= 0 or off_s < 0:
            raise EnergyError("invalid outage pattern")
        self.power_w = power_w
        self.on_s = on_s
        self.off_s = off_s

    def power_at(self, t: float) -> float:
        phase = t % (self.on_s + self.off_s)
        return self.power_w if phase < self.on_s else 0.0

    def dark_from(self, t: float) -> bool:
        return self.power_w == 0.0


class TraceHarvester(Harvester):
    """Piecewise-constant replay of ``(time, power)`` samples.

    Between samples the power of the most recent sample holds; beyond the
    last sample, the final power holds (or the trace repeats if
    ``loop=True``).

    Queries come in nearly monotone order (a device's payments, then its
    one-second charging steps), so the harvester remembers the segment
    ``[lo, hi)`` of sample times the last query fell in and its power,
    and bisects only when a (wrapped) query leaves it. The segment is
    replaced in one assignment, so a harvester shared between threads
    never answers from half of one.
    """

    def __init__(self, samples: Sequence[Tuple[float, float]], loop: bool = False):
        if not samples:
            raise EnergyError("trace must contain at least one sample")
        times = [s[0] for s in samples]
        if times != sorted(times):
            raise EnergyError("trace sample times must be non-decreasing")
        if any(p < 0 for _, p in samples):
            raise EnergyError("trace powers must be non-negative")
        self._times: List[float] = list(times)
        self._powers: List[float] = [s[1] for s in samples]
        self.loop = loop
        self._span = self._times[-1] - self._times[0] if len(samples) > 1 else 0.0
        # ``(lo, hi, power)``; empty at first, so the first query seeks.
        self._segment = (0.0, 0.0, 0.0)

    def power_at(self, t: float) -> float:
        if self.loop and self._span > 0:
            t = self._times[0] + (t - self._times[0]) % self._span
        lo, hi, power = self._segment
        if lo <= t < hi:
            return power
        return self._seek(t)

    def energy_between(self, t0: float, t1: float, step: float = 0.1) -> float:
        """The base class's trapezoid, term for term, with
        :meth:`power_at` inlined: the same loop wrap, then the segment
        check."""
        if t1 < t0:
            raise EnergyError("t1 must be >= t0")
        if t1 == t0:
            return 0.0
        n = max(1, int(math.ceil((t1 - t0) / step)))
        h = (t1 - t0) / n
        first = self._times[0]
        span = self._span if self.loop and self._span > 0 else 0.0
        total = 0.0
        prev = self.power_at(t0)
        lo, hi, power = self._segment
        for i in range(1, n + 1):
            t = t0 + i * h
            if span:
                t = first + (t - first) % span
            if lo <= t < hi:
                cur = power
            else:
                cur = self._seek(t)
                lo, hi, power = self._segment
            total += 0.5 * (prev + cur) * h
            prev = cur
        return total

    def dark_from(self, t: float) -> bool:
        # A looping trace may come back to any sample; otherwise only the
        # samples from ``t``'s segment on are still ahead.
        if self.loop and self._span > 0:
            return not any(self._powers)
        first = max(0, bisect.bisect_right(self._times, t) - 1)
        return not any(self._powers[first:])

    def _seek(self, t: float) -> float:
        """Bisect for ``t``'s segment, remember it, return its power."""
        times = self._times
        i = bisect.bisect_right(times, t)
        power = self._powers[max(0, min(i - 1, len(self._powers) - 1))]
        self._segment = (times[i - 1] if i > 0 else -math.inf,
                         times[i] if i < len(times) else math.inf, power)
        return power


class SolarHarvester(Harvester):
    """Sinusoidal day/night profile: zero at night, a half-sine by day."""

    def __init__(self, peak_power_w: float, day_length_s: float = 86400.0, daylight_fraction: float = 0.5):
        if peak_power_w < 0 or day_length_s <= 0 or not 0 < daylight_fraction <= 1:
            raise EnergyError("invalid solar parameters")
        self.peak_power_w = peak_power_w
        self.day_length_s = day_length_s
        self.daylight_fraction = daylight_fraction

    def power_at(self, t: float) -> float:
        phase = (t % self.day_length_s) / self.day_length_s
        if phase >= self.daylight_fraction:
            return 0.0
        return self.peak_power_w * math.sin(math.pi * phase / self.daylight_fraction)

    def dark_from(self, t: float) -> bool:
        return self.peak_power_w == 0.0
