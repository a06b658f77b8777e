"""Dict-like view over a prefix of non-volatile memory.

Monitor state machines keep their state and variables in a mutable
mapping; backing that mapping with NVM makes the whole machine persist
across power failures. Cells are allocated lazily on first write.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.nvm.memory import NonVolatileMemory, PersistentCell


class NVMStore:
    """Mutable-mapping adapter: ``store[key]`` ↔ NVM cell ``prefix.key``.

    Every access still reads the ``__keys__`` cell and gets or sets the
    key's own cell; only the name derivation and the cell lookup are
    cached, per key, for as long as the memory's layout
    (:attr:`~repro.nvm.memory.NonVolatileMemory.layout_version`) holds:
    any allocation or free, by this store or another, drops the cache.
    """

    def __init__(self, nvm: NonVolatileMemory, prefix: str, cell_bytes: int = 8,
                 progress: bool = False):
        self._nvm = nvm
        self._prefix = prefix
        self._cell_bytes = cell_bytes
        self._progress = progress
        # Track which keys belong to this store (NVM itself is shared).
        self._keys_cell = nvm.alloc(f"{prefix}.__keys__", initial=(),
                                    size_bytes=16, progress=progress)
        self._cells: Dict[str, PersistentCell] = {}
        self._layout = nvm.layout_version

    def _cell_name(self, key: str) -> str:
        return f"{self._prefix}.{key}"

    def _cached(self, key: str) -> Optional[PersistentCell]:
        """The cell behind ``key`` as cached in this layout, or ``None``."""
        layout = self._nvm.layout_version
        if layout != self._layout:
            self._cells.clear()
            self._layout = layout
        return self._cells.get(key)

    def __getitem__(self, key: str) -> Any:
        if key not in self._keys_cell.get():
            raise KeyError(key)
        cell = self._cached(key)
        if cell is None:
            cell = self._cells[key] = self._nvm.cell(self._cell_name(key))
        return cell.get()

    def __setitem__(self, key: str, value: Any) -> None:
        cell = self._cached(key)
        if cell is None:
            name = self._cell_name(key)
            if name not in self._nvm:
                self._nvm.alloc(name, initial=None, size_bytes=self._cell_bytes,
                                progress=self._progress)
            cell = self._nvm.cell(name)
            self._cells[key] = cell
            self._layout = self._nvm.layout_version
        keys_cell = self._keys_cell
        if key not in keys_cell.get():
            keys_cell.set(keys_cell.get() + (key,))
        cell.set(value)

    def __delitem__(self, key: str) -> None:
        if key not in self:
            raise KeyError(key)
        self._nvm.free(self._cell_name(key))
        self._keys_cell.set(tuple(k for k in self._keys_cell.get() if k != key))

    def __contains__(self, key: str) -> bool:
        return key in self._keys_cell.get()

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys_cell.get())

    def __len__(self) -> int:
        return len(self._keys_cell.get())

    def keys(self):
        return list(self._keys_cell.get())
