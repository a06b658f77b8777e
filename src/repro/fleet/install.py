"""Crash-safe bundle installation: A/B slots, journaled activation,
boot-loop rollback, and per-property state migration.

The install state machine (see ``docs/fleet.md``) is built from three
primitives, each failure-atomic on its own:

1. **Staging** — the new bundle's payload is written into the standby
   slot with a single durable cell write. The active slot is untouched;
   a crash leaves the device running the old version.
2. **Activation** — one journaled transaction (through the *same*
   commit journal the runtime's task commits use) flips the active
   pointer, zeroes the boot-loop counter, raises the probation flag and
   writes the **migration intention log**: the machines whose NVM state
   must be reset (changed semantics) or dropped (removed properties).
   The journal seal is the linearization point — a crash anywhere in
   the protocol rolls the whole activation back or forward; the active
   pointer and the migration log can never disagree.
3. **Migration roll-forward** — on every boot (and immediately after a
   live swap) :meth:`BundleInstaller.finish_migration` replays the
   intention log: machine resets are idempotent, so a crash mid-
   migration just replays it until the log is cleared — a torn monitor
   set (half old state, half new) is unreachable.

Rollback is the same activation transaction pointed back at the old
slot, triggered automatically when the boot-loop counter passes its
threshold while the new version is on probation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import FleetError
from repro.fleet.bundle import CompatDiff, MonitorBundle, compat_diff
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import NonVolatileMemory
from repro.nvm.transaction import Transaction

#: A new version must survive this many boots without completing a run
#: before the boot-loop watchdog rolls it back.
DEFAULT_BOOT_LOOP_THRESHOLD = 8


class BundleInstaller:
    """Double-buffered A/B monitor slots with atomic activation.

    Durable cells (under ``name``, default ``"slots"``):

    * ``slots.a`` / ``slots.b`` — bundle payloads (or ``None``).
    * ``slots.active`` — ``"a"``/``"b"``/``None``; the installed set.
    * ``slots.boot_count`` — boots since activation while on probation.
    * ``slots.probation`` — True until the new version completes a run.
    * ``slots.migrate`` — the migration intention log
      (``{"reset": [...], "drop": [...]}``) or ``None`` when no
      migration is outstanding.
    """

    def __init__(
        self,
        nvm: NonVolatileMemory,
        journal: Optional[CommitJournal] = None,
        boot_loop_threshold: int = DEFAULT_BOOT_LOOP_THRESHOLD,
        name: str = "slots",
    ):
        if boot_loop_threshold < 1:
            raise FleetError("boot_loop_threshold must be >= 1")
        self._nvm = nvm
        self._journal = journal
        self.boot_loop_threshold = boot_loop_threshold
        self.name = name
        self._slot_a = nvm.alloc(f"{name}.a", None, 64)
        self._slot_b = nvm.alloc(f"{name}.b", None, 64)
        self._active = nvm.alloc(f"{name}.active", None, 1)
        self._boot_count = nvm.alloc(f"{name}.boot_count", 0, 2, progress=True)
        self._probation = nvm.alloc(f"{name}.probation", False, 1,
                                    progress=True)
        self._migrate = nvm.alloc(f"{name}.migrate", None, 16, progress=True)
        #: slot -> (payload object, slot write count, decoded bundle).
        self._decoded: Dict[str, Tuple[object, int, MonitorBundle]] = {}

    # ------------------------------------------------------------------
    # Slot access
    # ------------------------------------------------------------------
    def _slot_cell(self, which: str):
        return self._slot_a if which == "a" else self._slot_b

    @property
    def active_slot(self) -> Optional[str]:
        return self._active.get()

    @property
    def standby_slot(self) -> str:
        return "b" if self.active_slot == "a" else "a"

    def _bundle_in(self, which: Optional[str]) -> Optional[MonitorBundle]:
        """The bundle in slot ``which``, decoded once per slot write.

        The decode is reused while the slot holds the same payload
        object with the same write count: identity catches a corrupted
        slot, the count a payload mutated in place and written back. A
        decode error is raised again on every call.
        """
        if which is None:
            return None
        cell = self._slot_cell(which)
        payload = cell.get()
        if payload is None:
            return None
        count = self._nvm.writes_to(cell.name)
        memo = self._decoded.get(which)
        if memo is None or memo[0] is not payload or memo[1] != count:
            memo = (payload, count, MonitorBundle.from_payload(payload))
            self._decoded[which] = memo
        return memo[2]

    def active_bundle(self) -> Optional[MonitorBundle]:
        return self._bundle_in(self.active_slot)

    def standby_bundle(self) -> Optional[MonitorBundle]:
        return self._bundle_in(self.standby_slot)

    @property
    def active_version(self) -> Optional[int]:
        bundle = self.active_bundle()
        return None if bundle is None else bundle.version

    # ------------------------------------------------------------------
    # Install protocol
    # ------------------------------------------------------------------
    def install_initial(self, bundle: MonitorBundle) -> None:
        """Factory provisioning: install into slot A, no probation.

        Not crash-atomic by design — this models the flashing station,
        not an over-the-air update.
        """
        self._slot_a.set(bundle.payload())
        self._active.set("a")
        self._probation.set(False)
        self._boot_count.set(0)
        self._migrate.set(None)

    def stage(self, bundle: MonitorBundle) -> str:
        """Write the bundle into the standby slot; returns the slot name.

        A single durable cell write: a crash leaves either the old
        standby content or the complete new payload, and the active
        pointer never references the standby slot.
        """
        slot = self.standby_slot
        self._slot_cell(slot).set(bundle.payload())
        return slot

    def activate(self, spend=None, on_step=None) -> CompatDiff:
        """Atomically make the staged bundle active (journaled flip).

        One transaction stages the pointer flip, the probation state and
        the migration intention log, then commits through the shared
        journal — ``spend``/``on_step`` expose every step as a crash
        point exactly like a task commit. Returns the compatibility
        diff the migration log was derived from.
        """
        staged = self.standby_bundle()
        if staged is None:
            raise FleetError("no staged bundle to activate")
        old = self.active_bundle()
        diff = compat_diff(old, staged)
        txn = Transaction(self._nvm, journal=self._journal)
        txn.stage(self._active.name, self.standby_slot)
        txn.stage(self._boot_count.name, 0)
        txn.stage(self._probation.name, True)
        txn.stage(self._migrate.name,
                  {"reset": list(diff.changed), "drop": list(diff.removed)})
        txn.commit(spend=spend, on_step=on_step)
        return diff

    # ------------------------------------------------------------------
    # Migration roll-forward
    # ------------------------------------------------------------------
    @property
    def migration_pending(self) -> bool:
        return bool(self._migrate.get())

    def finish_migration(self, monitor, device=None) -> List[str]:
        """Replay the migration intention log against ``monitor``.

        Idempotent: machine resets write initial state, dropped-cell
        frees skip missing cells, and the log is cleared only after all
        of it has been applied — a crash mid-migration replays the whole
        log on the next boot. Returns a description of what was done.
        """
        marker = self._migrate.get()
        if not marker:
            return []
        actions: List[str] = []
        known = {m.name for m in getattr(monitor, "machines", ())}
        for machine in marker.get("reset", ()):
            if machine in known:
                monitor.reset_machine(machine)
                actions.append(f"reset:{machine}")
        for machine in marker.get("drop", ()):
            prefix = f"{monitor.name}.{machine}."
            dropped = False
            for cell_name in list(self._nvm):
                if cell_name.startswith(prefix):
                    self._nvm.free(cell_name)
                    dropped = True
            if dropped:
                actions.append(f"drop:{machine}")
        self._migrate.set(None)
        if device is not None and actions:
            device.trace.record(
                device.sim_clock.now(), "ota_migrate", actions=actions,
            )
        return actions

    # ------------------------------------------------------------------
    # Boot-loop watchdog
    # ------------------------------------------------------------------
    @property
    def probation(self) -> bool:
        return bool(self._probation.get())

    @property
    def boot_count(self) -> int:
        return int(self._boot_count.get())

    def record_boot(self) -> int:
        """Count one boot while on probation; returns the new count."""
        if not self.probation:
            return 0
        count = self.boot_count + 1
        self._boot_count.set(count)
        return count

    def rollback_needed(self) -> bool:
        return (self.probation
                and self.boot_count >= self.boot_loop_threshold
                and self.standby_bundle() is not None)

    def rollback(self, spend=None, on_step=None) -> Optional[int]:
        """Journaled flip back to the previous slot; returns its version.

        The reverse migration log resets machines whose semantics
        changed between the versions and drops machines the rolled-back
        version introduced, so the restored monitor set is exactly as
        consistent as a fresh install of the old version.
        """
        current = self.active_bundle()
        previous = self.standby_bundle()
        if previous is None:
            # Nothing to return to: stop the watchdog from spinning.
            self._probation.set(False)
            self._boot_count.set(0)
            return None
        diff = compat_diff(current, previous)
        txn = Transaction(self._nvm, journal=self._journal)
        txn.stage(self._active.name, self.standby_slot)
        txn.stage(self._boot_count.name, 0)
        txn.stage(self._probation.name, False)
        txn.stage(self._migrate.name,
                  {"reset": list(diff.changed), "drop": list(diff.removed)})
        txn.commit(spend=spend, on_step=on_step)
        return previous.version

    def mark_healthy(self) -> None:
        """The active version completed a run: end probation."""
        if self.probation:
            self._probation.set(False)
        if self.boot_count:
            self._boot_count.set(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        active = self.active_bundle()
        standby = self.standby_bundle()
        return {
            "active_slot": self.active_slot,
            "active_version": None if active is None else active.version,
            "active_hash": None if active is None else active.content_hash,
            "standby_version": None if standby is None else standby.version,
            "probation": self.probation,
            "boot_count": self.boot_count,
            "migration_pending": self.migration_pending,
        }
