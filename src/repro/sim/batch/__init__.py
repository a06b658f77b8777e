"""Lockstep fleet stepping (the mega-fleet cohort core) and the
vectorized struct-of-arrays FSM kernel. See :mod:`repro.sim.batch.core`
for the execution model and the byte-equivalence argument."""

from repro.sim.batch.core import (BatchFleetCore, BatchResult, CohortRun,
                                  LaneResult, run_with_boundaries,
                                  state_digest, weighted_summary)
from repro.sim.batch.fsm import BatchMachineSet, CompiledMachineTable
from repro.sim.batch.layout import (DTYPES, HAVE_NUMPY, BatchArrays, SoAImage,
                                    resolve_backend)

__all__ = [
    "BatchArrays",
    "BatchFleetCore",
    "BatchMachineSet",
    "BatchResult",
    "CohortRun",
    "CompiledMachineTable",
    "DTYPES",
    "HAVE_NUMPY",
    "LaneResult",
    "SoAImage",
    "resolve_backend",
    "run_with_boundaries",
    "state_digest",
    "weighted_summary",
]
