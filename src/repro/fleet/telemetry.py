"""Per-device telemetry and fleet-level aggregation.

A fleet server cannot read a device's NVM; it sees what the device
reports. :class:`DeviceTelemetry` is that report, extracted from one
simulated device's trace and :class:`~repro.sim.result.RunResult`:
violation counts (split around the update activation, so a regression
introduced by a new spec is visible as a before/after rate change),
corrective actions, degradation events, radio spend, and the update
outcome. :func:`aggregate` folds any number of reports into a
queryable :class:`FleetSummary` — the object rollout halting decisions
are made on — and :func:`summarize` is the same fold over reports that
each stand for a count of devices (a lockstep cohort).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

#: Update outcomes a device can report.
UPDATE_OUTCOMES = ("installed", "pending", "failed", "none")


@dataclass(frozen=True)
class DeviceTelemetry:
    """One device's report at the end of a rollout simulation.

    ``violations_before``/``violations_after`` count monitor corrective
    actions either side of the first ``ota_activate`` trace event (all
    *before* when no activation happened); ``runs_before``/``runs_after``
    split completed application runs the same way, so per-run violation
    rates are comparable even though the install lands mid-simulation.
    """

    device_id: int
    completed: bool
    runs_completed: int
    reboots: int
    total_time_s: float
    total_energy_mj: float
    radio_energy_mj: float
    violations_before: int
    violations_after: int
    runs_before: int
    runs_after: int
    degradation_shed: int
    degradation_restored: int
    chunks_lost: int
    rollbacks: int
    update_outcome: str
    active_version: Optional[int]
    #: Anticipatory (forecast-driven) sheds, a subset of
    #: ``degradation_shed``; 0 for reactive-only devices.
    predictive_sheds: int = 0
    #: Mean seconds between a predictive shed and the next power
    #: failure — the lead time the forecast bought. 0 when the device
    #: never shed predictively or never browned out afterwards.
    shed_lead_s: float = 0.0

    @property
    def installed(self) -> bool:
        return self.update_outcome == "installed"

    @property
    def rate_before(self) -> float:
        """Violations per completed run before the update activated."""
        return self.violations_before / max(1, self.runs_before)

    @property
    def rate_after(self) -> float:
        """Violations per completed run after the update activated."""
        return self.violations_after / max(1, self.runs_after)

    @classmethod
    def from_device(cls, device_id: int, device, result,
                    runtime) -> "DeviceTelemetry":
        """Extract the report from a finished simulation.

        ``runtime`` is the device's
        :class:`~repro.fleet.device.UpdatableRuntime` (or anything with
        ``update_outcome`` / ``installer``).
        """
        activate = device.trace.last("ota_activate")
        activate_t = activate.t if activate is not None else float("inf")
        before = after = 0
        for event in device.trace.of_kind("monitor_action"):
            if event.t < activate_t:
                before += 1
            else:
                after += 1
        runs_before = runs_after = 0
        for event in device.trace.of_kind("run_complete"):
            if event.t < activate_t:
                runs_before += 1
            else:
                runs_after += 1
        return cls(
            device_id=device_id,
            completed=bool(result.completed),
            runs_completed=int(result.runs_completed),
            reboots=int(result.reboots),
            total_time_s=float(result.total_time_s),
            total_energy_mj=float(result.total_energy_j) * 1e3,
            radio_energy_mj=float(result.energy_j.get("radio", 0.0)) * 1e3,
            violations_before=before,
            violations_after=after,
            runs_before=runs_before,
            runs_after=runs_after,
            degradation_shed=int(result.monitors_shed),
            degradation_restored=int(result.monitors_restored),
            chunks_lost=device.trace.count("ota_chunk_lost"),
            rollbacks=device.trace.count("ota_rollback"),
            update_outcome=str(runtime.update_outcome),
            active_version=runtime.installer.active_version,
            predictive_sheds=int(getattr(result, "predictive_sheds", 0)),
            shed_lead_s=shed_lead_time_s(device.trace),
        )

    def to_row(self) -> Dict[str, object]:
        """Flat, JSON-able mapping (what sweeps and the CLI carry)."""
        return asdict(self)

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "DeviceTelemetry":
        # Tolerate rows emitted before the predictive-degradation
        # fields existed (older sweep caches, archived fleet reports).
        fields = {k: row[k] for k in cls.__dataclass_fields__ if k in row}
        return cls(**fields)  # type: ignore[arg-type]


def shed_lead_time_s(trace) -> float:
    """Mean lead time (seconds) between each predictive shed and the
    next power failure in the trace.

    This is the fleet-visible measure of what anticipation bought: how
    far ahead of the brownout the controller acted. Sheds with no
    subsequent power failure (the forecast prevented the brownout
    entirely, or the run ended first) contribute nothing.
    """
    failures = [e.t for e in trace.of_kind("power_failure")]
    leads = []
    for event in trace.of_kind("monitor_shed"):
        if not event.detail.get("predictive"):
            continue
        upcoming = [t for t in failures if t >= event.t]
        if upcoming:
            leads.append(upcoming[0] - event.t)
    return sum(leads) / len(leads) if leads else 0.0


@dataclass(frozen=True)
class FleetSummary:
    """Aggregated view over a set of device reports."""

    devices: int
    completed: int
    outcomes: Dict[str, int]
    rollbacks: int
    mean_rate_before: float
    mean_rate_after: float
    regression_delta: float
    total_violations: int
    total_reboots: int
    degradation_shed: int
    degradation_restored: int
    predictive_sheds: int
    mean_shed_lead_s: float
    chunks_lost: int
    radio_energy_mj: float
    total_energy_mj: float
    #: Telemetry reports shed by a bounded ingestion queue before they
    #: reached aggregation (``shed_oldest`` backpressure policy); 0 for
    #: batch rollouts and for the lossless ``block`` policy. A nonzero
    #: value warns that rates/deltas were computed from a sample.
    telemetry_dropped: int = 0

    @property
    def installed(self) -> int:
        return self.outcomes.get("installed", 0)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def describe(self) -> str:
        parts = [
            f"{self.devices} devices ({self.completed} completed)",
            "outcomes " + "/".join(
                f"{self.outcomes.get(k, 0)} {k}" for k in UPDATE_OUTCOMES
            ),
            (f"violations/run before={self.mean_rate_before:.2f} "
             f"after={self.mean_rate_after:.2f} "
             f"delta={self.regression_delta:+.2f}"),
            f"rollbacks={self.rollbacks} chunks_lost={self.chunks_lost}",
            f"radio={self.radio_energy_mj:.2f}mJ",
        ]
        if self.telemetry_dropped:
            parts.append(f"telemetry_dropped={self.telemetry_dropped}")
        return "; ".join(parts)


def aggregate(reports: Iterable[DeviceTelemetry]) -> FleetSummary:
    """Fold device reports into one fleet summary: :func:`summarize`
    with each report counting once."""
    return summarize((t, 1) for t in reports)


def summarize(pairs: Iterable[Tuple[DeviceTelemetry, int]]) -> FleetSummary:
    """Fold (report, device count) pairs into one fleet summary.

    Each report stands for ``count`` devices: a total sums
    ``value * count`` and a mean divides that by the summed counts.
    The regression signal compares each *installed* device against
    itself: mean over installed devices of (violations-per-run after
    activation − before). Devices that never activated contribute to
    the fleet-wide before-rate but not to the delta, so a stuck radio
    cannot mask a regressing spec.
    """
    pairs = list(pairs)
    installed = [(t, n) for t, n in pairs if t.installed]
    shedding = [(t, n) for t, n in pairs if t.predictive_sheds]
    outcomes: Dict[str, int] = {}
    for t, n in pairs:
        outcomes[t.update_outcome] = outcomes.get(t.update_outcome, 0) + n

    def total(value: Callable[[DeviceTelemetry], Any], among=pairs) -> Any:
        return sum(value(t) * n for t, n in among)

    def mean(value: Callable[[DeviceTelemetry], float], among) -> float:
        devices = sum(n for _, n in among)
        return total(value, among) / devices if devices else 0.0

    return FleetSummary(
        devices=sum(n for _, n in pairs),
        completed=sum(n for t, n in pairs if t.completed),
        outcomes=outcomes,
        rollbacks=total(lambda t: t.rollbacks),
        mean_rate_before=mean(lambda t: t.rate_before, pairs),
        mean_rate_after=mean(lambda t: t.rate_after, installed),
        regression_delta=mean(lambda t: t.rate_after - t.rate_before,
                              installed),
        total_violations=total(
            lambda t: t.violations_before + t.violations_after),
        total_reboots=total(lambda t: t.reboots),
        degradation_shed=total(lambda t: t.degradation_shed),
        degradation_restored=total(lambda t: t.degradation_restored),
        predictive_sheds=total(lambda t: t.predictive_sheds),
        mean_shed_lead_s=mean(lambda t: t.shed_lead_s, shedding),
        chunks_lost=total(lambda t: t.chunks_lost),
        radio_energy_mj=total(lambda t: t.radio_energy_mj),
        total_energy_mj=total(lambda t: t.total_energy_mj),
    )
