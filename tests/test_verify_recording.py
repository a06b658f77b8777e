"""Demand-driven crash-state recording.

The runner fingerprints a crash state only from ``record_from`` on,
and the explorer asks for exactly the states its search reads: the
payments after a run's last crash, and none for a run at the bound.
Three claims are pinned here:

* **Unrecorded reads raise** — asking for a fingerprint or signature
  the runner never computed is an error that names the payment and
  ``record_from``, never a silent comparison of placeholders.
* **Recording follows reads** — a bound-2 POR exploration hashes no
  raw NVM state at all, and no projected state in runs at the bound.
* **Same search** — forcing every run to record from payment 1 changes
  no report: same schedules, runs, pruned subtrees, depth-1 crash
  states and counterexamples, with their labels and categories.
"""

from collections import Counter

import pytest

from repro.errors import ReproError
from repro.nvm.memory import NonVolatileMemory
from repro.verify import (
    CrashScheduleExplorer,
    FingerprintPolicy,
    broken_commit_ordering,
    get_scenario,
)


@pytest.fixture(scope="module")
def explorer():
    return get_scenario("health", "checkpoint").explorer()


class TestUnrecordedReadsRaise:
    def test_payments_before_record_from(self, explorer):
        runner = explorer.execute((), record_from=5).runner
        assert runner.calls > 5
        assert len(runner.fingerprints) == runner.calls - 4
        full = explorer.oracle_run.runner
        assert runner.fingerprint_at(5) == full.fingerprint_at(5)
        assert runner.representatives(5) == full.representatives(5)
        with pytest.raises(ReproError, match=r"payment 4 .*record_from=5"):
            runner.fingerprint_at(4)
        with pytest.raises(ReproError, match=r"payment 1 .*record_from=5"):
            runner.representatives(1)

    def test_nothing_recorded(self, explorer):
        runner = explorer.execute((), record_from=None).runner
        assert runner.fingerprints == []
        # Categories and labels do not depend on record_from.
        assert len(runner.categories) == runner.calls
        with pytest.raises(ReproError, match=r"payment 1 .*record_from=None"):
            runner.fingerprint_at(1)
        with pytest.raises(ReproError, match="record_from=None"):
            runner.representatives(1)

    def test_payments_past_the_run(self, explorer):
        runner = explorer.oracle_run.runner
        with pytest.raises(ReproError, match=f"payment {runner.calls + 1} "):
            runner.fingerprint_at(runner.calls + 1)
        with pytest.raises(ReproError, match="payment 0 "):
            runner.fingerprint_at(0)

    def test_policy_run_records_no_raw_fingerprint(self, explorer):
        runner = explorer.execute(
            (), fingerprint_policy=FingerprintPolicy()).runner
        assert runner.fingerprints == []
        assert len(runner.projected) == runner.calls
        runner.signature_at(1)
        with pytest.raises(ReproError,
                           match=r"payment 1 .*record_from=1.*projected"):
            runner.fingerprint_at(1)
        with pytest.raises(ReproError, match="raw fingerprint"):
            runner.representatives(1)

    def test_oracle_run_after_por_search_has_raw_fingerprints(self):
        # The POR base run holds projected signatures only; it supplies
        # the oracle outcome but must not stand in for ``oracle_run``.
        explorer = get_scenario("health", "checkpoint").explorer()
        report = explorer.explore(bound=1, por=True)
        assert report.ok
        runner = explorer.oracle_run.runner
        assert runner.fingerprint_policy is None
        assert runner.representatives(1)
        assert explorer.explore(bound=1).ok

    def test_raw_run_records_no_signature(self, explorer):
        runner = explorer.oracle_run.runner
        assert runner.projected == []
        with pytest.raises(ReproError, match="fingerprint_policy"):
            runner.signature_at(1)
        with pytest.raises(ReproError, match="fingerprint_policy"):
            runner.representatives(1, projected=True)


class TestRecordingFollowsReads:
    def test_bound2_por_hashes_only_what_it_reads(self, monkeypatch):
        depth = []
        raw = Counter()
        projected = Counter()
        execute = CrashScheduleExplorer.execute
        state_fingerprint = NonVolatileMemory.state_fingerprint
        fingerprint = FingerprintPolicy.fingerprint

        def counting_execute(self, schedule=(), *args, **kwargs):
            depth.append(len(schedule))
            try:
                return execute(self, schedule, *args, **kwargs)
            finally:
                depth.pop()

        def counting_raw(self):
            raw[depth[-1] if depth else None] += 1
            return state_fingerprint(self)

        def counting_projected(self, nvm):
            projected[depth[-1]] += 1
            return fingerprint(self, nvm)

        monkeypatch.setattr(CrashScheduleExplorer, "execute",
                            counting_execute)
        monkeypatch.setattr(NonVolatileMemory, "state_fingerprint",
                            counting_raw)
        monkeypatch.setattr(FingerprintPolicy, "fingerprint",
                            counting_projected)
        report = get_scenario("ota", "artemis").explorer().explore(
            bound=2, budget=400, stop_on_first=False, por=True)
        assert report.ok and not report.truncated
        assert sum(raw.values()) == 0
        assert projected[2] == 0
        assert projected[0] > 0 and projected[1] > 0


def _report_key(report):
    return (report.ok, report.truncated, report.schedules_checked,
            report.runs_executed, report.pruned_subtrees,
            report.depth1_crash_points, report.baseline_payments,
            [(c.schedule, c.crash_labels, c.crash_categories, c.problems)
             for c in report.counterexamples])


def _record_everything(monkeypatch):
    execute = CrashScheduleExplorer.execute

    def from_first_payment(self, schedule=(), fingerprint_policy=None,
                           record_from=1):
        return execute(self, schedule, fingerprint_policy, record_from=1)

    monkeypatch.setattr(CrashScheduleExplorer, "execute", from_first_payment)


class TestDemandDrivenDifferential:
    @pytest.mark.parametrize("workload,runtime,por,bound", [
        ("ota", "artemis", True, 2),
        ("synthetic", "chain", True, 3),
        ("synthetic", "chain", False, 2),
        ("health", "checkpoint", True, 3),
        ("health", "checkpoint", False, 3),
    ])
    def test_same_report_as_recording_everything(
            self, monkeypatch, workload, runtime, por, bound):
        scenario = get_scenario(workload, runtime)
        kwargs = dict(bound=bound, budget=2000, stop_on_first=False, por=por)
        demand = scenario.explorer().explore(**kwargs)
        with monkeypatch.context() as patch:
            _record_everything(patch)
            full = scenario.explorer().explore(**kwargs)
        assert not demand.truncated
        assert _report_key(demand) == _report_key(full)

    def test_same_counterexamples_under_injected_bug(self, monkeypatch):
        scenario = get_scenario("ota", "artemis")
        kwargs = dict(bound=2, budget=400, stop_on_first=False, por=True)
        with broken_commit_ordering():
            demand = scenario.explorer().explore(**kwargs)
            with monkeypatch.context() as patch:
                _record_everything(patch)
                full = scenario.explorer().explore(**kwargs)
        assert demand.counterexamples
        assert any(label for c in demand.counterexamples
                   for label in c.crash_labels)
        assert _report_key(demand) == _report_key(full)
