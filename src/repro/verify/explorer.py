"""Bounded exhaustive exploration of crash schedules.

:class:`CrashScheduleExplorer` is the conformance checker's engine. It
first executes the scenario *crash-free* — the continuous-power oracle —
then systematically re-executes it under every crash schedule up to a
``bound`` on the number of crashes, comparing each intermittent outcome
against the oracle with :func:`repro.verify.oracle.compare_outcomes`.

Two things keep the search tractable:

* **State-hash pruning.** The baseline (and every explored prefix
  below the bound, from the payment after its last crash on) records
  the durable-state fingerprint *before* each energy payment
  (:class:`~repro.verify.schedule.CrashScheduleRunner`). A crash loses
  all volatile state, so two crash points with identical durable
  fingerprints reboot into identical futures — one representative per
  fingerprint run covers the whole class. Payments that merely burn
  time (sensing, task bodies between commits) collapse to a single
  crash point; every interior step of a journaled commit stays distinct
  because each journal write changes the fingerprint.
* **Frontier extension.** Schedules with k+1 crashes are generated from
  the *recorded execution* of a k-crash schedule, so the candidate
  indices for the extra crash are exactly the representative payments
  that execution actually performed after its last crash — never
  guessed.

The search is exhaustive up to ``bound`` when it completes within its
run ``budget``; otherwise the report says precisely what was truncated
(no silent caps).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError
from repro.verify.oracle import (
    EquivalencePolicy,
    Outcome,
    compare_outcomes,
    extract_outcome,
)
from repro.verify.schedule import (
    CrashScheduleRunner,
    FingerprintPolicy,
    Schedule,
    validate_schedule,
)

#: Builds one fresh (device, runtime) pair. Every schedule gets its own
#: pair — determinism of the build is what makes schedules replayable.
ScenarioBuild = Callable[[], Tuple[object, object]]


@dataclass
class ScheduleRun:
    """One executed schedule: the run artefacts the explorer needs."""

    schedule: Schedule
    runner: CrashScheduleRunner
    outcome: Outcome
    device: object
    runtime: object


@dataclass
class Counterexample:
    """A crash schedule whose outcome diverges from the oracle."""

    schedule: Schedule
    problems: List[str]
    #: Commit-step label at each crash index (None = not inside a commit).
    crash_labels: Tuple[Optional[str], ...] = ()
    crash_categories: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [f"schedule {self.schedule}:"]
        for pos, index in enumerate(self.schedule):
            label = self.crash_labels[pos] if pos < len(self.crash_labels) else None
            cat = (self.crash_categories[pos]
                   if pos < len(self.crash_categories) else "?")
            where = f" during commit step {label!r}" if label else ""
            lines.append(f"  crash {pos + 1}: payment #{index} [{cat}]{where}")
        for problem in self.problems:
            lines.append(f"  divergence: {problem}")
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Result of one bounded exploration."""

    scenario: str
    bound: int
    strategy: str
    budget: int
    runs_executed: int = 0
    schedules_checked: int = 0
    baseline_payments: int = 0
    depth1_crash_points: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: True when the run budget cut the search short of the bound.
    truncated: bool = False
    #: True when partial-order reduction pruned the search.
    por: bool = False
    #: Subtrees skipped because their crash point's signature had
    #: already been expanded (POR only).
    pruned_subtrees: int = 0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        extent = ("exhaustive to bound" if not self.truncated
                  else "TRUNCATED by budget")
        reduction = (f", POR pruned {self.pruned_subtrees} subtrees"
                     if self.por else "")
        return (
            f"[{verdict}] {self.scenario}: {self.schedules_checked} schedules "
            f"(bound {self.bound}, {self.strategy}, {extent}{reduction}), "
            f"{self.baseline_payments} payments / "
            f"{self.depth1_crash_points} distinct crash states crash-free, "
            f"{len(self.counterexamples)} counterexample(s)"
        )


class CrashScheduleExplorer:
    """Enumerates crash schedules for one scenario and checks each
    against the scenario's continuous-power oracle.

    Args:
        build: zero-argument factory returning a fresh
            ``(device, runtime)`` pair. Must be deterministic.
        policy: how outcomes are compared (see
            :class:`~repro.verify.oracle.EquivalencePolicy`).
        extract_extra: optional ``(device, runtime) -> dict`` adding
            runtime-specific durable state (e.g. checkpoint snapshots)
            to the comparison.
        run_kwargs: forwarded to ``device.run`` (defaults keep a broken
            scenario from spinning: one application run, generous time
            and reboot ceilings).
        time_sensitive: fold simulation time into crash-state
            fingerprints (disables most pruning; see
            :class:`~repro.verify.schedule.CrashScheduleRunner`).
        name: label used in reports.
    """

    def __init__(
        self,
        build: ScenarioBuild,
        policy: Optional[EquivalencePolicy] = None,
        extract_extra=None,
        run_kwargs: Optional[dict] = None,
        time_sensitive: bool = False,
        name: str = "scenario",
    ):
        self.build = build
        self.policy = policy if policy is not None else EquivalencePolicy()
        self.extract_extra = extract_extra
        self.run_kwargs = dict(run_kwargs or {})
        self.run_kwargs.setdefault("runs", 1)
        self.run_kwargs.setdefault("max_time_s", 7200.0)
        self.run_kwargs.setdefault("max_reboots", 64)
        self.time_sensitive = time_sensitive
        self.name = name
        self._oracle_run: Optional[ScheduleRun] = None
        self._oracle: Optional[Outcome] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, schedule: Schedule = (),
                fingerprint_policy: Optional[FingerprintPolicy] = None,
                record_from: Optional[int] = 1) -> ScheduleRun:
        """Run the scenario once under ``schedule`` (fresh device),
        fingerprinting crash states from payment ``record_from`` on."""
        schedule = validate_schedule(schedule)
        device, runtime = self.build()
        runner = CrashScheduleRunner(
            schedule, record_from=record_from,
            time_sensitive=self.time_sensitive,
            fingerprint_policy=fingerprint_policy).bind(device)
        device.run(runtime, **self.run_kwargs)
        outcome = extract_outcome(device, runtime, self.policy,
                                  extract_extra=self.extract_extra)
        return ScheduleRun(schedule, runner, outcome, device, runtime)

    @property
    def oracle(self) -> Outcome:
        """The crash-free outcome (cached; computed on first use)."""
        if self._oracle is None:
            self._oracle = self.oracle_run.outcome
        return self._oracle

    @property
    def oracle_run(self) -> ScheduleRun:
        """The crash-free run, raw fingerprints recorded from payment 1."""
        if self._oracle_run is None:
            run = self.execute(())
            if not run.outcome.completed:
                raise ReproError(
                    f"scenario {self.name!r}: the crash-free oracle run did "
                    "not complete — the scenario is misconfigured, not buggy")
            self._oracle_run = run
        return self._oracle_run

    def check(self, schedule: Schedule) -> List[str]:
        """Divergences of one schedule from the oracle ([] = conforms)."""
        run = self.execute(schedule, record_from=None)
        return compare_outcomes(self.oracle, run.outcome, self.policy)

    def _counterexample(self, run: ScheduleRun,
                        problems: List[str]) -> Counterexample:
        return Counterexample(
            schedule=run.schedule,
            problems=problems,
            crash_labels=tuple(run.runner.label_at(i) for i in run.schedule),
            crash_categories=tuple(
                run.runner.category_at(i) if i <= run.runner.calls else "?"
                for i in run.schedule),
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def explore(
        self,
        bound: int = 2,
        budget: int = 200,
        strategy: str = "bfs",
        stop_on_first: bool = True,
        por: bool = False,
    ) -> VerifyReport:
        """Check every schedule with up to ``bound`` crashes.

        ``budget`` caps the number of simulated executions (the oracle
        run included); hitting it marks the report ``truncated``.
        ``strategy`` orders the frontier: ``"bfs"`` exhausts all
        single-crash schedules before any two-crash schedule (best for
        shallow bugs and for meaningful truncation), ``"dfs"`` drills
        each branch to the bound first.

        ``por`` enables partial-order reduction (see
        :class:`~repro.verify.schedule.FingerprintPolicy` and
        ``docs/verification.md``): candidate crash points collapse into
        recovery-projected classes, and a subtree is skipped entirely
        when its root crash point carries a search signature —
        projected state plus observable-action prefix — that an
        already-expanded crash point at the same or shallower depth also
        carried (identical signature ⇒ identical verdicts for every
        continuation). Verdict-preserving, typically orders of
        magnitude fewer runs at bounds ≥ 3. Requires
        ``time_sensitive=False``.
        """
        if strategy not in ("bfs", "dfs"):
            raise ReproError(f"unknown strategy {strategy!r}")
        if bound < 0:
            raise ReproError("bound must be non-negative")
        if por and self.time_sensitive:
            raise ReproError(
                "partial-order reduction masks time from crash-state "
                "signatures and is unsound for time_sensitive scenarios")
        fp_policy = FingerprintPolicy() if por else None
        report = VerifyReport(scenario=self.name, bound=bound,
                              strategy=strategy, budget=budget, por=por)
        if por:
            base = self.execute((), fingerprint_policy=fp_policy)
            if not base.outcome.completed:
                raise ReproError(
                    f"scenario {self.name!r}: the crash-free oracle run did "
                    "not complete — the scenario is misconfigured, not buggy")
            # Its runner holds projected signatures only, so it gives
            # the oracle outcome but does not become ``oracle_run``.
            if self._oracle is None:
                self._oracle = base.outcome
        else:
            base = self.oracle_run
        report.runs_executed = 1
        report.baseline_payments = base.runner.calls
        report.depth1_crash_points = len(
            base.runner.representatives(1, projected=por))

        #: POR sleep set: crash-point signature -> shallowest schedule
        #: length it was expanded at. A signature re-encountered at the
        #: same or greater depth roots a subtree whose every verdict is
        #: already covered.
        visited = {}
        frontier = deque([base])
        while frontier:
            parent = frontier.popleft() if strategy == "bfs" else frontier.pop()
            if len(parent.schedule) >= bound:
                continue
            start = parent.schedule[-1] + 1 if parent.schedule else 1
            for index in parent.runner.representatives(start, projected=por):
                if por:
                    signature = parent.runner.signature_at(index)
                    depth = len(parent.schedule)
                    seen = visited.get(signature)
                    if seen is not None and seen <= depth:
                        report.pruned_subtrees += 1
                        continue
                    visited[signature] = depth
                if report.runs_executed >= budget:
                    report.truncated = True
                    return report
                # A child is only ever extended past its last crash, and
                # never at the bound: fingerprint just what may be read.
                child_schedule = parent.schedule + (index,)
                child = self.execute(
                    child_schedule, fingerprint_policy=fp_policy,
                    record_from=(index + 1 if len(child_schedule) < bound
                                 else None))
                report.runs_executed += 1
                report.schedules_checked += 1
                problems = compare_outcomes(self.oracle, child.outcome,
                                            self.policy)
                if problems:
                    report.counterexamples.append(
                        self._counterexample(child, problems))
                    if stop_on_first:
                        return report
                elif len(child_schedule) < bound:
                    frontier.append(child)
        return report
