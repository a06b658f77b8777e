"""Declarative experiment sweeps.

The benchmark harness repeats one pattern constantly: build a fresh
device + runtime for each point of a parameter grid, run it under a
budget, and extract a few metrics. This module factors that pattern so
sweeps are declarative, deterministic, and tabulable::

    sweep = Sweep(
        factors={"delay_s": [60, 120, 360], "system": ["artemis", "mayfly"]},
        build=lambda p: make_deployment(p["system"], p["delay_s"]),
        metrics={
            "completed": lambda dev, res: res.completed,
            "time_s": lambda dev, res: res.total_time_s,
        },
        max_time_s=4 * 3600,
    )
    table = sweep.run()
    print(format_rows(table))

``build`` returns ``(device, runtime)``; each grid point runs exactly
once (simulations are deterministic — vary a ``seed`` factor for
replications). To shard a grid across processes, give it module-level
``build``/``metrics`` callables (or ``functools.partial`` objects over
them) instead of lambdas: see :mod:`repro.sim.pool`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.sim.device import Device
from repro.sim.result import RunResult

BuildFn = Callable[[Dict[str, Any]], Tuple[Device, Any]]
MetricFn = Callable[[Device, RunResult], Any]


class SweepPointError(ReproError):
    """A grid point's build or run failed.

    Carries the offending point's factor values (``point``) and the
    stage that failed (``"build"``, ``"run"``, or ``"metric"``), so a
    failure deep inside a 200-point sweep names the configuration that
    caused it instead of surfacing as a bare traceback.
    """

    def __init__(self, stage: str, point: Mapping[str, Any], cause: str):
        self.stage = stage
        self.point = dict(point)
        self.cause = cause
        factors = ", ".join(f"{k}={v!r}" for k, v in self.point.items())
        super().__init__(
            f"sweep point [{factors}] failed during {stage}: {cause}"
        )


@dataclass
class Sweep:
    """A full-factorial experiment grid.

    Attributes:
        factors: factor name → list of levels; the grid is their product.
        build: constructs a fresh ``(device, runtime)`` per point.
        metrics: metric name → extractor over the finished run.
        runs / max_time_s / max_reboots: forwarded to ``Device.run``.
    """

    factors: Mapping[str, Sequence[Any]]
    build: BuildFn
    metrics: Mapping[str, MetricFn]
    runs: int = 1
    max_time_s: Optional[float] = None
    max_reboots: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.factors:
            raise ReproError("sweep needs at least one factor")
        if not self.metrics:
            raise ReproError("sweep needs at least one metric")
        for name, levels in self.factors.items():
            if not list(levels):
                raise ReproError(f"factor {name!r} has no levels")

    def points(self) -> List[Dict[str, Any]]:
        """All grid points in deterministic (row-major) order."""
        names = list(self.factors)
        combos = itertools.product(*(self.factors[n] for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    def run_point(self, point: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one grid point; returns factors + metrics as one row.

        Failures are re-raised as :class:`SweepPointError` carrying the
        point's factor values, so the offending configuration is named.
        """
        try:
            device, runtime = self.build(dict(point))
        except Exception as exc:
            raise SweepPointError("build", point, repr(exc)) from exc
        try:
            result = device.run(runtime, runs=self.runs,
                                max_time_s=self.max_time_s,
                                max_reboots=self.max_reboots)
        except Exception as exc:
            raise SweepPointError("run", point, repr(exc)) from exc
        row = dict(point)
        for name, extract in self.metrics.items():
            try:
                row[name] = extract(device, result)
            except Exception as exc:
                raise SweepPointError("metric", point,
                                      f"{name}: {exc!r}") from exc
        return row

    def run(self, parallel: Optional[int] = None,
            cache: Any = None) -> List[Dict[str, Any]]:
        """Execute the whole grid.

        Args:
            parallel: shard the grid across this many worker processes
                (``None``/``1`` = in-process serial execution). Rows come
                back in the same deterministic order as :meth:`points`
                either way, and each point is built fresh in exactly one
                process, so the table is identical to a serial run.
                Only a portable sweep — ``build`` and ``metrics`` that
                pickle, such as module-level functions — is sharded;
                one with lambdas or closures runs serially
                (:mod:`repro.sim.pool`).
            cache: optional content-addressed result cache — ``True``
                for the default ``.repro_cache/`` directory, a path, or
                a :class:`repro.sim.pool.ResultCache`. Cached rows are
                keyed by the sweep's code fingerprint plus the point's
                factors; any code or configuration change misses.
        """
        if parallel in (None, 0, 1) and cache is None:
            return [self.run_point(p) for p in self.points()]
        from repro.sim.pool import run_sweep  # lazy: pool imports Sweep types

        return run_sweep(self, jobs=parallel or 1, cache=cache)


def format_rows(rows: Sequence[Mapping[str, Any]],
                columns: Optional[Sequence[str]] = None,
                float_digits: int = 3) -> str:
    """Fixed-width text table of sweep rows."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0])

    def fmt(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    cells = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    lines.append("-" * len(lines[0]))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def pivot(rows: Sequence[Mapping[str, Any]], index: str, column: str,
          value: str) -> Dict[Any, Dict[Any, Any]]:
    """Reshape rows into ``{index_level: {column_level: value}}`` —
    e.g. delay → system → time for a Figure 12-style series."""
    out: Dict[Any, Dict[Any, Any]] = {}
    for row in rows:
        out.setdefault(row[index], {})[row[column]] = row[value]
    return out


# ---------------------------------------------------------------------------
# Common metric extractors
# ---------------------------------------------------------------------------


def metric_completed(device: Device, result: RunResult) -> bool:
    """Did the run complete (False = non-termination)?"""
    return result.completed


def metric_total_time(device: Device, result: RunResult) -> float:
    """Total simulated time of the run, in seconds."""
    return result.total_time_s


def metric_total_energy_mj(device: Device, result: RunResult) -> float:
    """Total consumed energy, in millijoules."""
    return result.total_energy_j * 1e3

def metric_reboots(device: Device, result: RunResult) -> int:
    """Number of power-failure reboots during the run."""
    return result.reboots


def _action_count(action: str, device: Device, result: RunResult) -> int:
    return sum(1 for e in device.trace.of_kind("monitor_action")
               if e.detail.get("action") == action)


def metric_action_count(action: str) -> MetricFn:
    """Factory: count monitor actions of one kind (a portable partial,
    so sweeps using it still shard)."""
    return functools.partial(_action_count, action)
