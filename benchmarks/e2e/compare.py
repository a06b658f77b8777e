"""Compare two sets of benchmark result files, per workload and metric.

::

    python3 benchmarks/e2e/compare.py BASE NEW
    python3 benchmarks/e2e/compare.py BASE NEW --claim fleet-streamed:items_per_s

``BASE`` and ``NEW`` are result files written by ``run.py`` or
directories of them; each file is one run. For every workload and
end-to-end metric both sets contain, the verdict is:

* ``ok`` — NEW's median is not worse than BASE's by more than the
  metric's bound (``BENCHMARK.json``, and ``run.metrics()`` for the
  metrics recorded beside it);
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — either set's spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell — unless every NEW
  run reads better than every BASE run, which is ``ok``.

``failed_frac`` is compared over each whole set — failed operations of
all its runs over attempted ones — and NEW regressed if that fraction
is any higher than BASE's, so a single failing run counts.

``--claim WORKLOAD:METRIC`` checks a claimed gain by the rule for a small
sandbox: at least 10 pairs of runs, alternating which side ran first;
NEW wins at least 9 in 10 pairs (ties count for neither); the gap
between the medians exceeds BASE's interquartile range; and NEW fails
no larger share of its operations on that workload than BASE.

Exit status 1 when a metric regressed or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import Metric, metric, metrics

Run = Dict[str, Any]


def load_runs(paths: Sequence[Path]) -> List[Run]:
    """Result documents from files and directories of ``*.json`` files."""
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    return [json.loads(f.read_text()) for f in files]


def series(runs: Sequence[Run], workload: str,
           metric: str) -> List[Tuple[str, float]]:
    """``(created_utc, value)`` of one metric, in run order."""
    out = []
    for run in runs:
        record = run["workloads"].get(workload, {})
        value = record.get("metrics", {}).get(metric)
        if value is not None:
            out.append((run["created_utc"], float(value["value"])))
    return sorted(out)


def failed_share(runs: Sequence[Run], workload: str) -> float:
    """Failed operations over attempted ones, across all ``runs``.

    A run whose workload record has no counts (a child process died)
    counts as one failed operation.
    """
    failed = attempted = 0
    for run in runs:
        record = run["workloads"].get(workload)
        if record is None:
            continue
        failed += record.get("failed", 1)
        attempted += record.get("attempted", 1)
    return failed / attempted if attempted else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (infinite below two runs)."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1
                                                   else math.inf)


def _better(metric: Metric, a: float, b: float) -> bool:
    """Whether ``a`` reads strictly better than ``b``."""
    return a > b if metric.better == "higher" else a < b


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``: a share of ``base``, or
    an absolute difference for a zero-bound (absolute) metric."""
    diff = new - base if metric.better == "lower" else base - new
    if metric.bound == 0.0 or base == 0.0:
        return diff
    return diff / abs(base)


@dataclass
class Row:
    """One workload × metric verdict; ``base_value`` and ``new_value``
    are the set medians (for ``failed_frac``, the whole-set shares)."""

    workload: str
    metric: Metric
    base: List[float]
    new: List[float]
    base_value: float
    new_value: float
    verdict: str

    def line(self) -> str:
        change = worsening(self.metric, self.base_value, self.new_value)
        return (f"{self.workload:<15} {self.metric.name:<13} "
                f"{self.base_value:>11.5g} {self.new_value:>11.5g}  "
                f"worse by {change:+.3f}  "
                f"spread {spread(self.base):.3f}/{spread(self.new):.3f}  "
                f"bound {self.metric.bound:g}  {self.verdict}")


def verdict(metric: Metric, base: Sequence[float],
            new: Sequence[float]) -> str:
    """The verdict on a metric with a relative bound."""
    if all(_better(metric, n, b) for n in new for b in base):
        return "ok"
    if max(spread(base), spread(new)) > metric.bound:
        return "unresolved"
    worse = worsening(metric, statistics.median(base),
                      statistics.median(new))
    return "regressed" if worse > metric.bound else "ok"


def compare_sets(base: Sequence[Run], new: Sequence[Run]) -> List[Row]:
    rows = []
    workloads = sorted({w for run in base for w in run["workloads"]}
                       & {w for run in new for w in run["workloads"]})
    for workload in workloads:
        for m in metrics():
            b = [v for _, v in series(base, workload, m.name)]
            n = [v for _, v in series(new, workload, m.name)]
            if m.name == "failed_frac":
                shares = (failed_share(base, workload),
                          failed_share(new, workload))
                rows.append(Row(workload, m, b, n, *shares,
                                "regressed" if shares[1] > shares[0]
                                else "ok"))
            elif b and n:
                rows.append(Row(workload, m, b, n,
                                statistics.median(b), statistics.median(n),
                                verdict(m, b, n)))
    return rows


def check_claim(base: Sequence[Run], new: Sequence[Run], workload: str,
                metric_name: str) -> Tuple[bool, str]:
    """The small-sandbox rule for claiming that NEW improved a metric."""
    claimed = metric(metric_name)
    base_failed = failed_share(base, workload)
    new_failed = failed_share(new, workload)
    if new_failed > base_failed:
        return False, (f"NEW failed {new_failed:.4g} of its operations, "
                       f"BASE {base_failed:.4g}")
    b = series(base, workload, metric_name)
    n = series(new, workload, metric_name)
    timeline = sorted([(t, "base", v) for t, v in b]
                      + [(t, "new", v) for t, v in n])
    pairs = [timeline[i:i + 2] for i in range(0, len(timeline) - 1, 2)]
    if len(pairs) < 10:
        return False, f"{len(pairs)} pairs; the rule needs at least 10"
    if len(b) != len(n) or any({p[0][1], p[1][1]} != {"base", "new"}
                               for p in pairs):
        return False, "runs do not form base/new pairs in run order"
    firsts = [p[0][1] for p in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        return False, "pairs do not alternate which side ran first"
    wins = 0
    for pair in pairs:
        side = {s: v for _, s, v in pair}
        wins += _better(claimed, side["new"], side["base"])
    base_values = [v for _, v in b]
    q1, _, q3 = statistics.quantiles(base_values, n=4)
    gap = statistics.median([v for _, v in n]) - statistics.median(
        base_values)
    gap = gap if claimed.better == "higher" else -gap
    summary = (f"{wins}/{len(pairs)} pairs won, median gap {gap:+.5g} "
               f"vs base IQR {q3 - q1:.5g}")
    if wins < 0.9 * len(pairs):
        return False, summary + ": fewer than 9 in 10 wins"
    if gap <= q3 - q1:
        return False, summary + ": gap within the base spread"
    return True, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    base, new = load_runs([args.base]), load_runs([args.new])
    print(f"base: {len(base)} run(s), new: {len(new)} run(s)")
    rows = compare_sets(base, new)
    for row in rows:
        print(row.line())
    failed = any(row.verdict == "regressed" for row in rows)
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        met, why = check_claim(base, new, workload, metric)
        print(f"claim {claim}: {'met' if met else 'NOT MET'} ({why})")
        failed = failed or not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
