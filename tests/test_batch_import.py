"""Importing the batch package must not import numpy.

Importing numpy starts BLAS worker threads that keep using CPU, so the
numpy backend imports it on its first call instead; ``HAVE_NUMPY``
still says whether that call can succeed.
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
