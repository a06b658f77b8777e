"""Partial-order reduction: soundness, reach, and determinism.

Three claims are pinned here:

* **Projection soundness** — :class:`FingerprintPolicy` evaluates
  journal recovery symbolically; its pre-crash projection must equal
  the fingerprint actually measured after recovery runs, for every
  journal phase.
* **Verdict preservation** — POR and the unpruned search return
  identical verdicts (differential tests at bounds 1-3), while POR
  reaches bound 4 on the fleet scenarios within the default budget.
* **Determinism** — exploration order and the resulting report are
  byte-stable across interpreter hash seeds (subprocess regression).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import NonVolatileMemory
from repro.verify import (
    CrashScheduleExplorer,
    FingerprintPolicy,
    broken_commit_ordering,
    get_scenario,
)


class TestProjectionSoundness:
    def _journal(self, phase):
        nvm = NonVolatileMemory()
        nvm.alloc("a", 1)
        nvm.alloc("b", {"v": 2})
        journal = CommitJournal(nvm)
        if phase >= 1:
            journal.begin()
        if phase >= 2:
            journal.append("a", 10)
            journal.append("b", {"v": 20})
        if phase >= 3:
            journal.seal()
        return nvm, journal

    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_projection_equals_post_recovery_fingerprint(self, phase):
        nvm, journal = self._journal(phase)
        policy = FingerprintPolicy()
        projected = policy.fingerprint(nvm)
        journal.recover()
        assert policy.fingerprint(nvm) == projected, (
            f"phase {phase}: symbolic recovery diverged from the real one")

    def test_pending_and_committed_project_differently(self):
        nvm_p, _ = self._journal(2)
        nvm_c, _ = self._journal(3)
        policy = FingerprintPolicy()
        # Rolled back vs rolled forward end in different durable states.
        assert policy.fingerprint(nvm_p) != policy.fingerprint(nvm_c)

    def test_time_cells_are_masked(self):
        policy = FingerprintPolicy()
        nvm = NonVolatileMemory()
        nvm.alloc("rt.end_ts", 1.0)
        before = policy.fingerprint(nvm)
        nvm.cell("rt.end_ts").set(99.0)
        assert policy.fingerprint(nvm) == before


class TestVerdictPreservation:
    @pytest.mark.parametrize("workload,runtime,bound", [
        ("health", "checkpoint", 3),
        ("synthetic", "chain", 2),
    ])
    def test_differential_vs_unpruned(self, workload, runtime, bound):
        scen = get_scenario(workload, runtime)
        plain = scen.explorer().explore(bound=bound, budget=4000,
                                        stop_on_first=False)
        por = scen.explorer().explore(bound=bound, budget=4000,
                                      stop_on_first=False, por=True)
        assert not plain.truncated and not por.truncated
        assert por.ok == plain.ok
        assert ([c.schedule for c in por.counterexamples]
                == [c.schedule for c in plain.counterexamples])
        assert por.schedules_checked <= plain.schedules_checked

    def test_ota_bound4_exhaustive_within_default_budget(self):
        report = get_scenario("ota", "artemis").explorer().explore(
            bound=4, budget=400, stop_on_first=False, por=True)
        assert report.ok, report.summary()
        assert not report.truncated
        assert report.bound == 4 and report.por
        assert report.pruned_subtrees > 0

    def test_por_still_catches_injected_bug(self):
        scen = get_scenario("ota", "artemis")
        with broken_commit_ordering():
            report = scen.explorer().explore(bound=2, budget=400, por=True)
        assert not report.ok
        assert len(report.counterexamples[0].schedule) >= 1

    def test_por_rejects_time_sensitive_scenarios(self):
        scen = get_scenario("health", "checkpoint")
        explorer = CrashScheduleExplorer(
            scen.build, run_kwargs=scen.run_kwargs,
            time_sensitive=True, name="timed")
        with pytest.raises(ReproError, match="time_sensitive"):
            explorer.explore(por=True)

    def test_summary_reports_pruning(self):
        report = get_scenario("health", "checkpoint").explorer().explore(
            bound=2, budget=400, stop_on_first=False, por=True)
        assert "POR pruned" in report.summary()


_SRC = Path(__file__).resolve().parents[1] / "src"

_DETERMINISM_SCRIPT = """\
from repro.verify import get_scenario
scen = get_scenario("synthetic", "chain")
report = scen.explorer().explore(bound=2, budget={budget},
                                 stop_on_first=False,
                                 strategy={strategy!r}, por=True)
print((report.schedules_checked, report.runs_executed,
       report.pruned_subtrees, report.truncated,
       report.depth1_crash_points,
       [c.schedule for c in report.counterexamples]))
"""


class TestDeterminism:
    def _run(self, hash_seed, strategy, budget):
        script = _DETERMINISM_SCRIPT.format(strategy=strategy, budget=budget)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(_SRC),
                     PYTHONHASHSEED=str(hash_seed)),
            check=True,
        )
        return result.stdout

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_report_stable_across_hash_seeds(self, strategy):
        # A truncating budget makes exploration *order* observable in
        # the report: if child ordering leaked dict/set iteration, the
        # schedules checked before the cutoff would differ.
        first = self._run(0, strategy, budget=25)
        second = self._run(424242, strategy, budget=25)
        assert first == second

    def test_same_process_repeatability(self):
        scen = get_scenario("health", "checkpoint")
        a = scen.explorer().explore(bound=2, budget=100,
                                    stop_on_first=False, por=True)
        b = scen.explorer().explore(bound=2, budget=100,
                                    stop_on_first=False, por=True)
        assert (a.schedules_checked, a.pruned_subtrees) == \
            (b.schedules_checked, b.pruned_subtrees)
        assert a.summary() == b.summary()
