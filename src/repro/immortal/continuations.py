"""Persistent step-sequence execution (local continuations).

An :class:`ImmortalRoutine` runs a list of steps while keeping a program
counter in NVM — the analogue of ImmortalThreads' ``_begin``/``_end``
macros around the generated monitor code (paper Figure 10). If a power
failure interrupts step *i*, the next :meth:`resume` re-executes from
step *i*: steps must therefore be *failure-atomic*, which holds in this
simulation because effects are applied only after the step's energy has
been fully paid (the device raises :class:`~repro.errors.PowerFailure`
inside the payment, before any effect).
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.errors import ReproError
from repro.nvm.memory import NonVolatileMemory

#: Program-counter value meaning "no routine in progress".
_IDLE = -1

Step = Callable[[], None]


class ImmortalRoutine:
    """A restartable sequence of steps with a persistent program counter.

    Usage::

        routine = ImmortalRoutine(nvm, "callMonitor")
        routine.run(steps)          # may raise PowerFailure mid-way
        ...
        if routine.in_progress:     # after reboot
            routine.resume(steps)   # re-runs only the unfinished suffix
    """

    def __init__(self, nvm: NonVolatileMemory, name: str):
        # The persistent PC is the canonical progress cell: it exists to
        # be read back differently after a crash (WAR-exempt).
        self._pc = nvm.alloc(f"imm.{name}.pc", initial=_IDLE, size_bytes=2,
                             progress=True)
        self._total = nvm.alloc(f"imm.{name}.total", initial=0, size_bytes=2,
                                progress=True)
        self.name = name

    @property
    def in_progress(self) -> bool:
        return self._pc.get() != _IDLE

    @property
    def next_step(self) -> int:
        """Index of the first step that has not completed."""
        pc = self._pc.get()
        return 0 if pc == _IDLE else pc

    def run(self, steps: Sequence[Step]) -> None:
        """Start the routine from step 0 (``_begin``).

        Raises :class:`~repro.errors.ReproError` if a previous run is
        still unfinished — callers must :meth:`resume` first, exactly as
        the paper's runtime calls ``monitorFinalize`` before anything
        else after a reboot.
        """
        if self.in_progress:
            raise ReproError(
                f"routine {self.name!r} interrupted at step {self.next_step}; "
                "resume() it before starting a new run"
            )
        self._total.set(len(steps))
        self._pc.set(0)
        self._execute(steps, 0)

    def resume(self, steps: Sequence[Step]) -> bool:
        """Finish an interrupted run; returns ``True`` if there was one.

        The caller must supply the *same* step sequence the interrupted
        run used (the generated monitor's step list is static, so this
        holds by construction).
        """
        if not self.in_progress:
            return False
        if len(steps) != self._total.get():
            raise ReproError(
                f"routine {self.name!r}: resume with {len(steps)} steps, "
                f"but the interrupted run had {self._total.get()}"
            )
        self._execute(steps, self.next_step)
        return True

    def _execute(self, steps: Sequence[Step], start: int) -> None:
        set_pc = self._pc.set
        for i in range(start, len(steps)):
            steps[i]()  # PowerFailure here leaves pc at i — step re-runs
            set_pc(i + 1)
        set_pc(_IDLE)  # _end


class PersistentList:
    """Small NVM-backed append-only list (e.g. verdicts gathered across
    an interrupted monitor call)."""

    def __init__(self, nvm: NonVolatileMemory, name: str, size_bytes: int = 64):
        # Append is a same-cell read-modify-write; duplicate appends
        # after re-execution are deduplicated by the consumer's seq
        # protocol (MonitorGroup.finalize), so the cell is WAR-exempt.
        self._cell = nvm.alloc(f"plist.{name}", initial=(),
                               size_bytes=size_bytes, progress=True)

    def append(self, item: Any) -> None:
        self._cell.set(self._cell.get() + (item,))

    def items(self) -> List[Any]:
        return list(self._cell.get())

    def clear(self) -> None:
        self._cell.set(())

    def __len__(self) -> int:
        return len(self._cell.get())
