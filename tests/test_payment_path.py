"""The cheaper payment path equals the bodies it replaced.

:class:`~repro.energy.harvester.TraceHarvester` remembers the segment
of sample times its last query fell in and bisects only when a query
leaves it, and its ``energy_between`` inlines that lookup into the base
class's trapezoid. :class:`~repro.energy.capacitor.Capacitor` computes
its threshold energies once. The originals are kept here verbatim:
:class:`ReferenceTraceHarvester` (with the base class's trapezoid
copied in), :func:`reference_charging_time_from` and
:class:`ReferenceCapacitor`. Hypothesis drives both sides with the
same inputs, queried in random order (backwards jumps, exact sample
times, times before the first sample and past the span), and requires
equal floats (``==``) and equal exceptions.

A harvester that is dark from the start of a charging search used to
step through the whole wait budget, one-second window by window,
before it raised; :class:`TestDarkHarvesters` counts its evaluations.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.capacitor import Capacitor
from repro.energy.environment import EnergyEnvironment
from repro.energy.harvester import (
    ConstantHarvester,
    Harvester,
    PeriodicOutageHarvester,
    SolarHarvester,
    TraceHarvester,
)
from repro.errors import EnergyError, NVMError, SimulationError
from repro.nvm.memory import NonVolatileMemory
from repro.nvm.store import NVMStore


class ReferenceTraceHarvester(Harvester):
    """The pre-cache ``TraceHarvester``, verbatim, with the base class's
    trapezoid copied in so later edits to the base cannot move it."""

    def __init__(self, samples, loop=False):
        if not samples:
            raise EnergyError("trace must contain at least one sample")
        times = [s[0] for s in samples]
        if times != sorted(times):
            raise EnergyError("trace sample times must be non-decreasing")
        if any(p < 0 for _, p in samples):
            raise EnergyError("trace powers must be non-negative")
        self._times = list(times)
        self._powers = [s[1] for s in samples]
        self.loop = loop
        self._span = self._times[-1] - self._times[0] if len(samples) > 1 else 0.0

    def power_at(self, t):
        if self.loop and self._span > 0:
            t = self._times[0] + (t - self._times[0]) % self._span
        idx = bisect.bisect_right(self._times, t) - 1
        idx = max(0, min(idx, len(self._powers) - 1))
        return self._powers[idx]

    def energy_between(self, t0, t1, step=0.1):
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


def reference_charging_time_from(self, t, max_wait_s=365 * 86400.0):
    """The pre-change ``EnergyEnvironment.charging_time_from``, verbatim."""
    if self.is_continuous:
        return 0.0
    needed = self.capacitor.energy_to_boot()
    if needed <= 0:
        return 0.0
    if isinstance(self.harvester, ConstantHarvester):
        if self.harvester.power_w <= 0:
            raise SimulationError("harvester delivers no power; device will never boot")
        return needed / self.harvester.power_w
    elapsed = 0.0
    step = 1.0
    acquired = 0.0
    while acquired < needed:
        if elapsed >= max_wait_s:
            raise SimulationError(
                f"capacitor not recharged within {max_wait_s} s; ambient source too weak"
            )
        acquired += self.harvester.energy_between(t + elapsed, t + elapsed + step)
        elapsed += step
    return elapsed


class ReferenceCapacitor:
    """The pre-cache ``Capacitor`` energy arithmetic, verbatim."""

    def __init__(self, capacitance, v_max=3.3, v_on=3.0, v_off=1.8,
                 v_initial=None):
        self.capacitance = capacitance
        self.v_max = v_max
        self.v_on = v_on
        self.v_off = v_off
        self._energy = self._energy_at(v_initial if v_initial is not None else v_max)

    def _energy_at(self, voltage):
        return 0.5 * self.capacitance * voltage * voltage

    @property
    def voltage(self):
        return math.sqrt(2.0 * self._energy / self.capacitance)

    @property
    def energy(self):
        return self._energy

    @property
    def usable_energy(self):
        return max(0.0, self._energy - self._energy_at(self.v_off))

    @property
    def usable_energy_per_cycle(self):
        return self._energy_at(self.v_on) - self._energy_at(self.v_off)

    @property
    def max_energy(self):
        return self._energy_at(self.v_max)

    @property
    def can_boot(self):
        return self.voltage >= self.v_on

    @property
    def is_dead(self):
        return self.voltage < self.v_off

    def charge(self, energy_j):
        if energy_j < 0:
            raise EnergyError("cannot charge by negative energy")
        before = self._energy
        self._energy = min(self.max_energy, self._energy + energy_j)
        return self._energy - before

    def discharge(self, energy_j):
        if energy_j < 0:
            raise EnergyError("cannot discharge by negative energy")
        floor = self._energy_at(self.v_off)
        if self._energy - energy_j < floor:
            self._energy = floor
            return False
        self._energy -= energy_j
        return True

    def energy_to_boot(self):
        return max(0.0, self._energy_at(self.v_on) - self._energy)


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception class, message)``."""
    try:
        return ("ok", fn(*args))
    except (EnergyError, SimulationError) as exc:
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: A small grid makes duplicate sample times and exact-time queries
#: common; the free floats cover everything between.
_GRID = (0.0, 0.5, 1.0, 2.5, 3.0, 7.25, 10.0, 30.0)
_times = st.one_of(st.sampled_from(_GRID),
                   st.floats(-5.0, 60.0, allow_nan=False, width=32))
_powers = st.one_of(st.sampled_from((0.0, 0.0, 1e-3, 2.5e-3)),
                    st.floats(0.0, 5e-3, allow_nan=False))
_samples = st.lists(st.tuples(_times, _powers), min_size=1, max_size=8).map(
    lambda pairs: sorted(pairs, key=lambda pair: pair[0]))


@st.composite
def _queries(draw, samples):
    """Query times in random order: exact sample times, times before
    the first sample, past the span and far past it, and anything."""
    times = [t for t, _ in samples]
    exact = st.sampled_from(times)
    near = st.builds(lambda t, d: t + d, exact,
                     st.sampled_from((-1e-9, 1e-9, -0.05, 0.05)))
    anything = st.floats(-100.0, 400.0, allow_nan=False)
    return draw(st.lists(st.one_of(exact, near, anything), min_size=1,
                         max_size=25))


@st.composite
def _trace_case(draw):
    samples = draw(_samples)
    return samples, draw(st.booleans()), draw(_queries(samples))


# ---------------------------------------------------------------------------
# TraceHarvester
# ---------------------------------------------------------------------------


class TestTraceHarvester:
    @settings(max_examples=300, deadline=None)
    @given(_trace_case())
    def test_power_at_equals_reference_in_any_query_order(self, case):
        samples, loop, queries = case
        new, ref = TraceHarvester(samples, loop), ReferenceTraceHarvester(samples, loop)
        for t in queries:
            assert new.power_at(t) == ref.power_at(t), t

    @settings(max_examples=300, deadline=None)
    @given(_trace_case(), st.data())
    def test_energy_between_equals_reference_and_base_loop(self, case, data):
        """Interleaved with point queries, so every window starts from
        whatever segment the last query left cached."""
        samples, loop, queries = case
        new, ref = TraceHarvester(samples, loop), ReferenceTraceHarvester(samples, loop)
        for t0 in queries:
            width = data.draw(st.one_of(
                st.sampled_from((0.0, 0.05, 0.1, 1.0, 1.5, 10.0)),
                st.floats(-1.0, 70.0, allow_nan=False)))
            t1 = t0 + width
            got = _outcome(new.energy_between, t0, t1)
            assert got == _outcome(ref.energy_between, t0, t1), (t0, t1)
            # Pinned against the base class's loop over the cached lookup.
            assert got == _outcome(Harvester.energy_between, new, t0, t1)
            assert new.power_at(t1) == ref.power_at(t1)

    def test_backwards_window_raises_like_the_reference(self):
        samples = [(0.0, 1e-3), (5.0, 0.0)]
        for harvester in (TraceHarvester(samples), ReferenceTraceHarvester(samples)):
            with pytest.raises(EnergyError, match="t1 must be >= t0"):
                harvester.energy_between(2.0, 1.0)

    def test_exact_sample_time_opens_the_next_segment(self):
        harvester = TraceHarvester([(0.0, 1.0), (2.0, 3.0), (2.0, 5.0), (4.0, 7.0)])
        assert [harvester.power_at(t) for t in (1.0, 2.0, 3.9, 4.0, 1.9, -1.0)] \
            == [1.0, 5.0, 5.0, 7.0, 1.0, 1.0]

    def test_a_shared_harvester_answers_every_thread_right(self):
        # Threads that keep moving one harvester between segments must
        # never read a new segment's bound with an old one's power.
        samples = [(float(t), float(t % 3)) for t in range(0, 40, 2)]
        shared, ref = TraceHarvester(samples, loop=True), ReferenceTraceHarvester(samples, loop=True)
        queries = [[(7.0 * i + 3.1 * k) % 45.0 for i in range(4000)] for k in range(4)]
        wrong = []

        def worker(times):
            wrong.extend(t for t in times if shared.power_at(t) != ref.power_at(t))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(q,)) for q in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_loop_wraps_before_the_segment_check(self):
        samples = [(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)]
        harvester = TraceHarvester(samples, loop=True)
        ref = ReferenceTraceHarvester(samples, loop=True)
        # Just below the start, the wrap rounds up to the last sample,
        # whose segment is unbounded above; 15 s must still wrap to 5 s.
        queries = (6.0, 16.0, 11.0, 26.0, -1e-17, 15.0)
        assert [harvester.power_at(t) for t in queries] \
            == [ref.power_at(t) for t in queries] \
            == [2.0, 2.0, 1.0, 2.0, 3.0, 2.0]
        harvester.power_at(-1e-17)
        assert harvester.energy_between(15.0, 15.05) \
            == ref.energy_between(15.0, 15.05)


# ---------------------------------------------------------------------------
# The charging search
# ---------------------------------------------------------------------------


@st.composite
def _charging_case(draw):
    samples = draw(_samples)
    loop = draw(st.booleans())
    v_initial = draw(st.floats(1.8, 3.3))
    start = draw(st.floats(-10.0, 200.0, allow_nan=False))
    return samples, loop, v_initial, start


def _env(harvester, v_initial):
    return EnergyEnvironment(harvester=harvester,
                             capacitor=Capacitor(1e-4, v_initial=v_initial))


class TestChargingSearch:
    @settings(max_examples=200, deadline=None)
    @given(_charging_case())
    def test_charging_time_equals_reference(self, case):
        samples, loop, v_initial, start = case
        new = _env(TraceHarvester(samples, loop), v_initial)
        ref = _env(ReferenceTraceHarvester(samples, loop), v_initial)
        got = _outcome(new.charging_time_from, start, 120.0)
        want = _outcome(reference_charging_time_from, ref, start, 120.0)
        # A dark source now raises at once, with its own message; the
        # reference raises the same class when the budget runs out.
        if got[0] == "raised" and want[0] == "raised":
            assert got[1] is want[1] is SimulationError
        else:
            assert got == want

    @pytest.mark.parametrize("harvester", [
        PeriodicOutageHarvester(1.5e-3, on_s=0.4, off_s=1.0),
        PeriodicOutageHarvester(2e-3, on_s=45.0, off_s=30.0),
        SolarHarvester(2e-3, day_length_s=600.0),
        ConstantHarvester(1e-4),
    ])
    @pytest.mark.parametrize("start", [0.0, 0.3, 44.9, 1234.5])
    def test_successful_waits_are_unchanged(self, harvester, start):
        new, ref = _env(harvester, 1.8), _env(harvester, 1.8)
        assert new.charging_time_from(start) \
            == reference_charging_time_from(ref, start)


class _Spy(Harvester):
    """Counts every evaluation of the harvester it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def power_at(self, t):
        self.calls += 1
        return self.inner.power_at(t)

    def energy_between(self, t0, t1, step=0.1):
        self.calls += 1
        return self.inner.energy_between(t0, t1, step)

    def dark_from(self, t):
        return self.inner.dark_from(t)


class TestDarkHarvesters:
    @pytest.mark.parametrize("inner, start", [
        (TraceHarvester([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)], loop=True), 5.0),
        (TraceHarvester([(0.0, 2e-3), (30.0, 0.0), (60.0, 0.0)]), 30.0),
        (TraceHarvester([(0.0, 2e-3), (30.0, 0.0)]), 100.0),
        (PeriodicOutageHarvester(0.0, on_s=10.0, off_s=5.0), 0.0),
        (SolarHarvester(0.0), 0.0),
        (ConstantHarvester(0.0), 0.0),
    ], ids=["looping-all-zero", "zero-from-start", "zero-after-last",
            "outage-zero", "solar-zero", "constant-zero"])
    def test_raises_at_once(self, inner, start):
        spy = _Spy(inner)
        env = _env(spy, 1.8)
        with pytest.raises(SimulationError, match="never boot"):
            env.charging_time_from(start)
        assert spy.calls == 0

    def test_a_trace_with_power_ahead_is_not_dark(self):
        # Zero from 30 s, but the loop comes back to the first sample,
        # and a non-looping trace still has power ahead of 10 s.
        looping = TraceHarvester([(0.0, 2e-3), (30.0, 0.0), (60.0, 0.0)], loop=True)
        assert not looping.dark_from(45.0)
        straight = TraceHarvester([(0.0, 0.0), (30.0, 2e-3), (60.0, 0.0)])
        assert not straight.dark_from(10.0)
        assert straight.dark_from(60.0)
        assert _env(looping, 1.8).charging_time_from(45.0) > 0


# ---------------------------------------------------------------------------
# Capacitor
# ---------------------------------------------------------------------------


@st.composite
def _capacitor_case(draw):
    v_off = draw(st.floats(0.5, 2.5))
    v_on = draw(st.floats(v_off, 3.5).filter(lambda v: v > v_off))
    v_max = draw(st.one_of(st.just(v_on), st.floats(v_on, 4.0)))
    capacitance = draw(st.floats(1e-5, 1e-2))
    v_initial = draw(st.one_of(st.none(), st.floats(0.0, v_max)))
    ops = draw(st.lists(st.tuples(st.sampled_from(("charge", "discharge")),
                                  st.floats(0.0, 0.05)), max_size=20))
    return capacitance, v_max, v_on, v_off, v_initial, ops


def _derived(cap):
    return (cap.energy, cap.voltage, cap.usable_energy,
            cap.usable_energy_per_cycle, cap.max_energy, cap.can_boot,
            cap.is_dead, cap.energy_to_boot())


class TestCapacitor:
    @settings(max_examples=300, deadline=None)
    @given(_capacitor_case())
    def test_derived_quantities_equal_the_formula(self, case):
        capacitance, v_max, v_on, v_off, v_initial, ops = case
        new = Capacitor(capacitance, v_max, v_on, v_off, v_initial)
        ref = ReferenceCapacitor(capacitance, v_max, v_on, v_off, v_initial)
        assert _derived(new) == _derived(ref)
        for op, energy in ops:
            assert getattr(new, op)(energy) == getattr(ref, op)(energy)
            assert _derived(new) == _derived(ref)
            assert new.max_energy == 0.5 * capacitance * v_max * v_max

    @pytest.mark.parametrize("name", ["capacitance", "v_max", "v_on", "v_off"])
    def test_parameters_are_read_only(self, name):
        # The threshold energies are computed once, at construction.
        cap = Capacitor(1e-3)
        with pytest.raises(AttributeError):
            setattr(cap, name, 1.0)


# ---------------------------------------------------------------------------
# NVMStore's cell cache
# ---------------------------------------------------------------------------


class TestStoreCellCache:
    def test_a_cell_freed_behind_the_store_is_not_written(self):
        nvm = NonVolatileMemory()
        store = NVMStore(nvm, "m")
        store["x"] = 1
        nvm.free("m.x")
        with pytest.raises(NVMError):
            store["x"]
        store["x"] = 2  # allocates the cell again, as before the cache
        assert nvm.cell("m.x").get() == 2 and store["x"] == 2

    def test_two_stores_on_one_prefix_see_each_others_writes(self):
        nvm = NonVolatileMemory()
        first, second = NVMStore(nvm, "m"), NVMStore(nvm, "m")
        first["x"] = 1
        assert second["x"] == 1
        second["x"] = 2
        assert first["x"] == 2 and list(first) == ["x"]
