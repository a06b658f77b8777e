"""Capacitor energy-storage model.

Energy stored in a capacitor is ``E = C * V^2 / 2``. Batteryless devices
operate between two voltage thresholds:

* ``v_on`` — the boot threshold: after a brown-out the device stays off
  until the capacitor charges back up to this voltage.
* ``v_off`` — the brown-out (cutoff) threshold: below this voltage the
  regulator drops out and the MCU dies instantly.

The *usable* energy per charge cycle is therefore
``C/2 * (v_on^2 - v_off^2)``; tasks whose cost exceeds it can never
complete, which is precisely the non-termination hazard the paper's
``maxTries`` property guards against.
"""

from __future__ import annotations

import math

from repro.errors import EnergyError


class Capacitor:
    """Capacitor with boot/brown-out thresholds.

    Args:
        capacitance: farads.
        v_max: maximum (fully charged) voltage.
        v_on: boot threshold voltage.
        v_off: brown-out threshold voltage.
        v_initial: starting voltage (defaults to ``v_max``).
    """

    def __init__(
        self,
        capacitance: float,
        v_max: float = 3.3,
        v_on: float = 3.0,
        v_off: float = 1.8,
        v_initial: float | None = None,
    ):
        if capacitance <= 0:
            raise EnergyError("capacitance must be positive")
        if not (0 < v_off < v_on <= v_max):
            raise EnergyError(
                f"require 0 < v_off < v_on <= v_max, got "
                f"v_off={v_off}, v_on={v_on}, v_max={v_max}"
            )
        self._capacitance = capacitance
        self._v_max = v_max
        self._v_on = v_on
        self._v_off = v_off
        # The threshold energies, paid for at every charge and draw.
        # The capacitance and voltages are read-only, so these stay valid.
        self._floor = self._energy_at(v_off)
        self._boot = self._energy_at(v_on)
        self._ceiling = self._energy_at(v_max)
        self._energy = self._energy_at(v_initial if v_initial is not None else v_max)

    @property
    def capacitance(self) -> float:
        return self._capacitance

    @property
    def v_max(self) -> float:
        return self._v_max

    @property
    def v_on(self) -> float:
        return self._v_on

    @property
    def v_off(self) -> float:
        return self._v_off

    # ------------------------------------------------------------------
    # Voltage/energy conversions
    # ------------------------------------------------------------------
    def _energy_at(self, voltage: float) -> float:
        return 0.5 * self._capacitance * voltage * voltage

    @property
    def voltage(self) -> float:
        return math.sqrt(2.0 * self._energy / self._capacitance)

    @property
    def energy(self) -> float:
        """Total stored energy in joules (down to 0 V)."""
        return self._energy

    @property
    def usable_energy(self) -> float:
        """Energy available before brown-out, from the *current* voltage."""
        return max(0.0, self._energy - self._floor)

    @property
    def usable_energy_per_cycle(self) -> float:
        """Energy one full charge cycle provides (v_on down to v_off)."""
        return self._boot - self._floor

    @property
    def max_energy(self) -> float:
        return self._ceiling

    @property
    def can_boot(self) -> bool:
        return self.voltage >= self._v_on

    @property
    def is_dead(self) -> bool:
        return self.voltage < self._v_off

    # ------------------------------------------------------------------
    # Charge / discharge
    # ------------------------------------------------------------------
    def charge(self, energy_j: float) -> float:
        """Add harvested energy, clamped at ``v_max``; returns stored delta."""
        if energy_j < 0:
            raise EnergyError("cannot charge by negative energy")
        before = self._energy
        self._energy = min(self._ceiling, self._energy + energy_j)
        return self._energy - before

    def discharge(self, energy_j: float) -> bool:
        """Draw ``energy_j``; returns ``False`` (and drains to the cutoff)
        if the draw crosses the brown-out threshold."""
        if energy_j < 0:
            raise EnergyError("cannot discharge by negative energy")
        floor = self._floor
        if self._energy - energy_j < floor:
            self._energy = floor
            return False
        self._energy -= energy_j
        return True

    def energy_to_boot(self) -> float:
        """Joules still needed to reach the boot threshold."""
        return max(0.0, self._boot - self._energy)

    def __repr__(self) -> str:
        return (
            f"Capacitor(C={self._capacitance}, V={self.voltage:.3f}, "
            f"usable={self.usable_energy * 1e3:.3f}mJ)"
        )
