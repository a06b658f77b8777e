"""Checkpoint-based intermittent runtime (Mementos/TICS-flavoured).

Execution model:

* volatile state is a plain dict, rebuilt from the last checkpoint on
  every boot;
* a checkpoint copies the volatile dict into NVM, paying a time/energy
  cost proportional to its size; snapshots are **double-buffered** —
  two slots alternate, and a slot becomes current only when its commit
  marker lands, so a power failure mid-checkpoint leaves the previous
  snapshot intact (the classic Mementos/Hibernus consistency rule);
* TICS semantics: each checkpoint records the entry timestamps of any
  open timed regions; on reboot, if the time since a region was entered
  exceeds its expiry, execution is rolled back to the region's start
  instead of the last checkpoint.

Interface-compatible with :class:`~repro.sim.Device` runs, so the same
harness drives task-based and checkpoint-based systems.
"""

from __future__ import annotations

import copy
from typing import Any, Dict

from repro.checkpoint.program import CheckpointProgram
from repro.core.recovery import RecoveryManager
from repro.core.taskrun import guard_mapping, retry_counters, retry_or_trip
from repro.errors import PeripheralError, RuntimeConfigError


class CheckpointRuntime:
    """Executes a :class:`CheckpointProgram` on a simulated device."""

    #: Checkpoint cost: fixed marshalling plus per-entry copy time.
    CHECKPOINT_BASE_S = 0.8e-3
    CHECKPOINT_PER_ENTRY_S = 0.1e-3
    OVERHEAD_POWER_W = 0.35e-3

    def __init__(self, program: CheckpointProgram, device, peripherals=None,
                 retry_policy=None):
        self.program = program
        self._device = device
        self.peripherals = peripherals
        nvm = device.nvm
        prefix = f"ckpt.{program.name}"
        self._retry, self._retry_cell = retry_counters(
            nvm, retry_policy, f"{prefix}.retry.attempts")
        # Double-buffered snapshot slots + the current-slot marker.
        self._slots = [
            nvm.alloc(f"{prefix}.slot0", None, 64),
            nvm.alloc(f"{prefix}.slot1", None, 64),
        ]
        self._current_slot = nvm.alloc(f"{prefix}.current", -1, 1,
                                       progress=True)
        self._finished = nvm.alloc(f"{prefix}.finished", False, 1,
                                   progress=True)
        # Volatile execution state (lost on power failure).
        self._pc: int = 0
        self._state: Dict = {}
        self._region_entries: Dict[str, float] = {}
        self._restored = False
        # Checkpoint systems have no redo journal — the double-buffered
        # slot flip is their commit point — but they share the boot-time
        # corruption scan and the slot-marker invariant.
        self.recovery = RecoveryManager(nvm)
        self.recovery.guard(f"{prefix}.")
        self.recovery.add_invariant(
            "ckpt.current slot legal",
            lambda: (self._current_slot.get() in (-1, 0, 1)
                     and self._slot_valid(self._current_slot.get())),
            self._repair_slot,
        )
        guard_mapping(self.recovery, self._retry_cell, "ckpt.retry.attempts")

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished.get()

    def boot(self, device) -> None:
        """Run the recovery scan, then rebuild volatile state."""
        self._device = device
        self.recovery.on_boot(device)
        self._restore()

    def begin_run(self, device) -> None:
        self._device = device
        self._current_slot.set(-1)
        self._finished.set(False)
        self._pc = 0
        self._state = {}
        self._region_entries = {}
        self._restored = True

    # ------------------------------------------------------------------
    def _slot_valid(self, slot: Any) -> bool:
        """True if ``slot`` is -1 or names a structurally sound snapshot."""
        if slot == -1:
            return True
        if slot not in (0, 1):
            return False
        snapshot = self._slots[slot].get()
        return (
            isinstance(snapshot, dict)
            and isinstance(snapshot.get("state"), dict)
            and isinstance(snapshot.get("regions"), dict)
            and isinstance(snapshot.get("pc"), int)
            and not isinstance(snapshot.get("pc"), bool)
            and 0 <= snapshot["pc"] <= len(self.program)
        )

    def _repair_slot(self) -> None:
        """Fall back to the other buffer if it is sound, else restart.

        Losing at most one checkpoint interval is the strongest
        guarantee double buffering can give once a snapshot is damaged.
        """
        for candidate in (0, 1):
            if candidate != self._current_slot.get() and self._slot_valid(candidate):
                self._current_slot.set(candidate)
                return
        self._current_slot.set(-1)

    def _restore(self) -> None:
        """Rebuild volatile state from the last committed snapshot and
        apply TICS expiration rules."""
        slot = self._current_slot.get()
        if slot < 0:
            self._pc = 0
            self._state = {}
            self._region_entries = {}
        else:
            # Deep-copied both ways so block bodies mutating nested
            # values can never reach into the persisted snapshot.
            snapshot = self._slots[slot].get()
            self._pc = snapshot["pc"]
            self._state = copy.deepcopy(snapshot["state"])
            self._region_entries = dict(snapshot["regions"])
            self._apply_expirations()
        self._restored = True

    def _apply_expirations(self) -> None:
        now = self._device.now()
        for region in self.program.regions_containing(self._pc):
            key = region.first
            entered = self._region_entries.get(key)
            if entered is None:
                continue
            if now - entered > region.expiry_s:
                # Expired: re-enter the region from its first block.
                self._device.trace.record(
                    self._device.sim_clock.now(), "monitor_action",
                    action="regionRestart", source=f"tics:{key}",
                    task=self.program.blocks[self._pc].name)
                self._pc = self.program.index_of(region.first)
                self._region_entries.pop(key, None)

    # ------------------------------------------------------------------
    def loop_iteration(self, device) -> None:
        self._device = device
        if self.finished:
            return
        if not self._restored:
            raise RuntimeConfigError("loop_iteration before boot()")
        if self.peripherals is not None:
            self.peripherals.bind(device, sense_power_w=self.OVERHEAD_POWER_W)
        block = self.program.blocks[self._pc]

        # Entering a timed region stamps its entry time (volatile until
        # the next checkpoint persists it, exactly like TICS's timekeeper
        # writes).
        for region in self.program.regions_containing(self._pc):
            if self.program.index_of(region.first) == self._pc:
                self._region_entries[region.first] = device.now()

        device.trace.record(device.sim_clock.now(), "task_start",
                            task=block.name, path=1)
        device.consume(block.duration_s, block.power_w, "app")
        if block.body is not None:
            # Volatile state is snapshotted so a peripheral fault cannot
            # leave a half-mutated dict behind; there is no transaction
            # to roll back in a checkpoint system.
            snapshot = copy.deepcopy(self._state)
            try:
                block.body(self._state)
            except PeripheralError as exc:
                self._state = snapshot
                self._handle_peripheral_failure(block, exc)
                return
        if self._retry.attempts(block.name):
            self._retry.clear(block.name)
        device.trace.record(device.sim_clock.now(), "task_end",
                            task=block.name, path=1)
        self._advance_past(block)

    def _handle_peripheral_failure(self, block, exc: PeripheralError) -> None:
        """Retry a peripheral-failed block; skip it when retries exhaust.

        The skipped block's result is flagged in volatile state
        (``degraded.<block>``), persisted by the next checkpoint.
        """
        device = self._device
        if not retry_or_trip(self._retry, device, block.name, exc,
                             self.OVERHEAD_POWER_W):
            return
        self._state[f"degraded.{block.name}"] = True
        device.trace.record(device.sim_clock.now(), "task_skip",
                            task=block.name, path=1, source="watchdog")
        self._advance_past(block)

    def _advance_past(self, block) -> None:
        """Checkpoint after ``block`` if the program asks, then move on."""
        if block.name in self.program.checkpoint_after:
            self._checkpoint()
        self._pc += 1
        if self._pc >= len(self.program):
            self._finished.set(True)

    def _checkpoint(self) -> None:
        device = self._device
        entries = len(self._state) + len(self._region_entries) + 1
        device.consume(
            self.CHECKPOINT_BASE_S + entries * self.CHECKPOINT_PER_ENTRY_S,
            self.OVERHEAD_POWER_W, "runtime")
        # Write into the inactive slot, then flip the marker: a failure
        # before the flip leaves the old snapshot current.
        target = (self._current_slot.get() + 1) % 2
        self._slots[target].set({
            "pc": self._pc + 1,
            "state": copy.deepcopy(self._state),
            "regions": dict(self._region_entries),
        })
        self._current_slot.set(target)
        device.trace.record(device.sim_clock.now(), "checkpoint",
                            block=self.program.blocks[self._pc].name)
