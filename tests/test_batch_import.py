"""Importing the batch package must not import numpy, and neither may
a lockstep rollout.

Importing numpy starts BLAS worker threads that keep using CPU, so the
numpy backend imports it on its first call instead; ``HAVE_NUMPY``
still says whether that call can succeed. Only the FSM kernel has a
numpy backend, and no production path runs it.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = """\
import importlib.util
import sys
sys.path.insert(0, {src!r})
import repro.sim.batch
import repro.sim.batch.core
import repro.sim.batch.fsm
from repro.sim.batch import HAVE_NUMPY
assert "numpy" not in sys.modules, "importing repro.sim.batch imported numpy"
assert HAVE_NUMPY == (importlib.util.find_spec("numpy") is not None)
print("ok")
"""

_BLOCKED = """\
import sys
sys.path.insert(0, {src!r})

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
from repro.sim.batch import HAVE_NUMPY, BatchFleetCore
from repro.sim.batch.layout import resolve_backend
assert not HAVE_NUMPY
assert resolve_backend("auto") == "python"
print("ok")
"""


_ROLLOUTS = """\
import multiprocessing
import sys
sys.path.insert(0, {src!r})
from repro.fleet.server import FLEET_SPEC_V2, FleetServer, RolloutPlan
from repro.sim.pool import shutdown_pools

server = FleetServer()
jobs = [1, 2] if "fork" in multiprocessing.get_all_start_methods() else [1]
try:
    for seed_mode in ("per_cohort", "per_device"):
        for expand_limit in (100_000, 0):
            plan = RolloutPlan(waves=(0.5, 1.0), runs=2,
                               max_time_s=4 * 3600.0, max_reboots=200,
                               lockstep=True, seed_mode=seed_mode,
                               expand_limit=expand_limit)
            for n in jobs:
                assert server.rollout(FLEET_SPEC_V2, 8, plan=plan,
                                      jobs=n).ok
finally:
    shutdown_pools()
assert "numpy" not in sys.modules, "a lockstep rollout imported numpy"
print("ok")
"""


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script.format(src=SRC)],
                          capture_output=True, text=True, timeout=120)


def test_importing_the_batch_package_leaves_numpy_unimported():
    proc = _run(_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_blocked_numpy_reads_as_absent():
    proc = _run(_BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_lockstep_rollouts_leave_numpy_unimported():
    proc = _run(_ROLLOUTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
