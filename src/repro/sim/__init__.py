"""Intermittent-device simulator.

Replaces the paper's MSP430FR5994 + Powercast testbed: a
:class:`~repro.sim.device.Device` executes a runtime, charging it time
and energy per task, and kills it with a
:class:`~repro.errors.PowerFailure` the instant the capacitor hits the
brown-out threshold; after the ambient source recharges the capacitor
(the *charging time*), the runtime is rebooted and continues from NVM.
"""

from repro.sim.analysis import (
    action_summary,
    inter_task_delays,
    path_attempts,
    render_timeline,
    task_statistics,
)
from repro.sim.device import Device
from repro.sim.experiments import Sweep, SweepPointError, format_rows, pivot
from repro.sim.pool import ResultCache, run_sweep
from repro.sim.result import RunResult
from repro.sim.tracer import Tracer, TraceEvent

__all__ = [
    "Device",
    "RunResult",
    "Tracer",
    "TraceEvent",
    "Sweep",
    "SweepPointError",
    "ResultCache",
    "run_sweep",
    "format_rows",
    "pivot",
    "task_statistics",
    "action_summary",
    "inter_task_delays",
    "path_attempts",
    "render_timeline",
]
