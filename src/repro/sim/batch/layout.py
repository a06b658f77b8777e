"""Struct-of-arrays layouts for the batched fleet core.

Two containers live here:

* :class:`BatchArrays` — a typed column store over a *lane* axis (one
  lane per device). Columns are numpy arrays when numpy is importable
  and plain Python lists otherwise; either way the public interface is
  identical, so the FSM kernel (:mod:`repro.sim.batch.fsm`) and its
  tests never branch on the backend.

* :class:`SoAImage` — a columnar snapshot of a
  :class:`~repro.nvm.memory.NonVolatileMemory`: cell names, values,
  sizes, initials and progress flags as parallel tuples, plus the
  sparse map of corruption records. ``restore()`` rebuilds a live NVM
  holding byte-identical durable state (corruption records are carried
  over verbatim, so a silently corrupted cell stays detectably corrupt
  after the round trip). The journal property tests use it to prove
  that commit/recovery behaves identically on imaged state.

Only :class:`BatchArrays` (and through it the FSM kernel) has a numpy
backend; the lockstep core uses neither container.
"""

from __future__ import annotations

import copy
import importlib.util
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.nvm.memory import NonVolatileMemory

#: Whether the numpy backend is available. numpy itself is imported by
#: the first numpy-backend call, not here: the import starts BLAS worker
#: threads, which importing this package must not.
try:
    HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
except (ImportError, ValueError):  # e.g. a finder that blocks numpy
    HAVE_NUMPY = False

#: Logical column dtypes understood by both backends.
DTYPES = ("int64", "float64", "bool")

_PY_DEFAULTS = {"int64": 0, "float64": 0.0, "bool": False}


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend request to ``"numpy"`` or ``"python"``."""
    if backend == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if backend == "numpy" and not HAVE_NUMPY:
        raise ReproError("numpy backend requested but numpy is unavailable")
    if backend not in ("numpy", "python"):
        raise ReproError(f"unknown batch backend {backend!r}")
    return backend


class BatchArrays:
    """Typed per-field arrays over a device (lane) axis.

    Args:
        n_lanes: number of devices in the batch.
        backend: ``"numpy"``, ``"python"``, or ``"auto"`` (numpy when
            available).
    """

    def __init__(self, n_lanes: int, backend: str = "auto"):
        if n_lanes < 1:
            raise ReproError("a batch needs at least one lane")
        self.n_lanes = n_lanes
        self.backend = resolve_backend(backend)
        self._columns: Dict[str, Any] = {}
        self._dtypes: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def add_column(self, name: str, dtype: str = "float64",
                   fill: Optional[Any] = None) -> None:
        """Allocate one named column, filled with ``fill`` (or the
        dtype's zero value)."""
        if dtype not in DTYPES:
            raise ReproError(f"column {name!r}: unknown dtype {dtype!r}")
        if name in self._columns:
            raise ReproError(f"column {name!r} already exists")
        value = _PY_DEFAULTS[dtype] if fill is None else fill
        if self.backend == "numpy":
            import numpy as np

            self._columns[name] = np.full(self.n_lanes, value,
                                          dtype=np.dtype(dtype))
        else:
            self._columns[name] = [value] * self.n_lanes
        self._dtypes[name] = dtype

    def column(self, name: str) -> Any:
        """The raw backing column (numpy array or list)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ReproError(f"no column {name!r}") from None

    # ------------------------------------------------------------------
    def get(self, name: str, lane: int) -> Any:
        value = self.column(name)[lane]
        dtype = self._dtypes[name]
        # Return native Python scalars so callers never see numpy types
        # leak into telemetry or NVM cells.
        if dtype == "bool":
            return bool(value)
        if dtype == "int64":
            return int(value)
        return float(value)

    def set(self, name: str, lane: int, value: Any) -> None:
        self.column(name)[lane] = value

    def fill(self, name: str, value: Any,
             lanes: Optional[List[int]] = None) -> None:
        """Assign ``value`` to every lane (or just ``lanes``)."""
        col = self.column(name)
        if self.backend == "numpy":
            col[slice(None) if lanes is None else lanes] = value
        else:
            for i in range(self.n_lanes) if lanes is None else lanes:
                col[i] = value


# ---------------------------------------------------------------------------
# Columnar NVM snapshot
# ---------------------------------------------------------------------------


class SoAImage:
    """Columnar image of a non-volatile memory's durable state.

    Parallel tuples (sorted by cell name) of names, values, accounted
    sizes, allocation-time initials and progress flags, plus the
    corruption records and write limits by cell name — the exact durable
    state Surbatovich-style intermittence semantics says must be
    preserved bit-for-bit across the batched/scalar boundary.
    """

    def __init__(self, names: Tuple[str, ...], values: Tuple[Any, ...],
                 sizes: Tuple[int, ...], corrupted: Dict[str, int],
                 initials: Tuple[Any, ...], progress: Tuple[bool, ...],
                 write_limits: Dict[str, Tuple[int, bool]],
                 capacity_bytes: int):
        self.names = names
        self.values = values
        self.sizes = sizes
        self.corrupted = dict(corrupted)
        self.initials = initials
        self.progress = progress
        self.write_limits = dict(write_limits)
        self.capacity_bytes = capacity_bytes

    @classmethod
    def from_nvm(cls, nvm: NonVolatileMemory) -> "SoAImage":
        names = tuple(sorted(nvm._cells))
        return cls(
            names=names,
            values=tuple(copy.deepcopy(nvm._data[n]) for n in names),
            sizes=tuple(nvm._cells[n].size_bytes for n in names),
            corrupted=nvm._corrupted,
            initials=tuple(copy.deepcopy(nvm._initials[n]) for n in names),
            progress=tuple(n in nvm._progress_cells for n in names),
            write_limits=dict(nvm._write_limits),
            capacity_bytes=nvm.capacity_bytes,
        )

    def restore(self) -> NonVolatileMemory:
        """Rebuild a live NVM holding this image's durable state.

        Values, corruption records, initials, sizes, progress flags and
        wear limits all come back verbatim; write counters start from
        zero (they are observability metadata, not durable state — the
        journal recovery path never reads them).
        """
        nvm = NonVolatileMemory(capacity_bytes=self.capacity_bytes)
        for i, name in enumerate(self.names):
            nvm.alloc(name, initial=copy.deepcopy(self.initials[i]),
                      size_bytes=self.sizes[i], progress=self.progress[i])
            nvm._data[name] = copy.deepcopy(self.values[i])
        nvm._corrupted.update(self.corrupted)
        for name, limit in self.write_limits.items():
            if name in nvm._cells:
                nvm._write_limits[name] = limit
        return nvm

    def fingerprint(self) -> int:
        """Same CRC as ``NonVolatileMemory.state_fingerprint`` over the
        imaged cells (names sorted at capture time)."""
        import zlib

        acc = 0
        for name, value in zip(self.names, self.values):
            acc = zlib.crc32(
                repr((name, value)).encode("utf-8", "backslashreplace"), acc)
        return acc

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"SoAImage({len(self.names)} cells)"
