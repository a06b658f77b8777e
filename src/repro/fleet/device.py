"""Device-side OTA: an updatable wrapper around the ARTEMIS runtime.

:class:`UpdatableRuntime` composes the pieces of the update pipeline
around an unmodified :class:`~repro.core.runtime.ArtemisRuntime`:

* each loop iteration first gives the :class:`~repro.fleet.transport.
  OtaTransport` one chunk attempt, so the download interleaves with the
  application exactly like a real radio stack would;
* a completed transfer is decoded (full bundle or delta against the
  installed version), integrity-checked, staged into the standby slot,
  and queued for activation via
  :meth:`~repro.core.runtime.ArtemisRuntime.request_monitor_swap` — the
  journaled pointer flip and the in-memory monitor rebuild happen only
  at a path boundary (§4.1.3);
* every boot resolves the shared commit journal first, runs the
  boot-loop watchdog (automatic rollback past the threshold), rebuilds
  the in-memory monitor from the active slot when the version changed,
  and rolls the migration intention log forward.

Everything durable lives in the transport staging area, the A/B slots
and the journal, so a power failure at any point leaves the device
either running the old monitor set or the new one — never a mixture.
The wrapper's ``_swap_queued`` and ``_monitor_version`` and the inner
runtime's queued swap are volatile on a real device. The simulator
reboots the same objects, so they survive an injected crash: a swap
queued before the crash still applies at the next path boundary, and a
real device's path of losing it and staging the bundle again after
reboot is never executed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.monitor import ArtemisMonitor
from repro.core.runtime import ArtemisRuntime
from repro.errors import FleetError
from repro.fleet.bundle import BundleDelta, apply_delta, decode_wire
from repro.fleet.install import BundleInstaller
from repro.fleet.transport import OtaTransport
from repro.nvm.journal import (
    RECOVERED_CORRUPT,
    RECOVERED_ROLLED_BACK,
    RECOVERED_ROLLED_FORWARD,
)
from repro.spec.validator import load_properties


class UpdatableRuntime:
    """An ARTEMIS runtime that can receive and install monitor updates.

    Args:
        runtime: the wrapped :class:`~repro.core.runtime.ArtemisRuntime`
            (built from the currently installed bundle's spec).
        installer: A/B slot manager; its active bundle must match the
            monitor the wrapped runtime was built with.
        transport: NVM-staged chunk receiver.
        monitor_backend: backend used when rebuilding monitors from a
            newly activated spec.
    """

    def __init__(
        self,
        runtime: ArtemisRuntime,
        installer: BundleInstaller,
        transport: OtaTransport,
        monitor_backend: str = "generated",
    ):
        self.inner = runtime
        self.installer = installer
        self.transport = transport
        self._backend = monitor_backend
        self._monitor_name = runtime.monitor.name
        #: Version of the bundle the in-memory monitor was built from.
        self._monitor_version = installer.active_version
        #: The update currently offered by the server: (wire, version).
        self._offer: Optional[Tuple[bytes, int]] = None
        self._swap_queued = False
        # Recovery must also checksum-verify the update subsystem's own
        # durable state (slots, staging area) on every boot.
        runtime.recovery.guard(f"{installer.name}.")
        runtime.recovery.guard(f"{transport.name}.")

    # ------------------------------------------------------------------
    # Runtime protocol (delegated to the wrapped ARTEMIS runtime)
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.inner.finished

    @property
    def monitor(self):
        return self.inner.monitor

    @property
    def app(self):
        return self.inner.app

    @property
    def monitor_version(self) -> Optional[int]:
        return self._monitor_version

    def begin_run(self, device) -> None:
        self.inner.begin_run(device)

    def boot(self, device) -> None:
        # Resolve the shared journal before touching any slot state: an
        # activation (or task commit) interrupted mid-protocol must be
        # rolled back or forward before anyone reads the active pointer.
        outcome = self.inner.journal.recover()
        self._publish_journal(device, outcome)
        # A durably finished run proves the active version healthy even
        # when the crash landed after the final commit but before the
        # live mark_healthy — otherwise post-completion crashes would
        # keep counting boots and could roll back a working version.
        if self.inner.finished and self.installer.probation:
            self.installer.mark_healthy()
        if self.installer.rollback_needed():
            restored = self.installer.rollback()
            device.trace.record(
                device.sim_clock.now(), "ota_rollback",
                version=restored, boots=self.installer.boot_loop_threshold,
            )
        else:
            self.installer.record_boot()
        self._sync_monitor(device)
        self.inner.boot(device)
        # The inner boot's status recovery may itself conclude the run
        # (crash landed inside the final end-of-run bookkeeping): that
        # also proves the active version healthy.
        if self.inner.finished and self.installer.probation:
            self.installer.mark_healthy()

    def loop_iteration(self, device) -> None:
        self._ota_step(device)
        self.inner.loop_iteration(device)
        if self.inner.finished and self.installer.probation:
            # The active version survived a full application run.
            self.installer.mark_healthy()

    # ------------------------------------------------------------------
    # Server-facing
    # ------------------------------------------------------------------
    def push(self, wire: bytes, version: int) -> None:
        """Offer an update; delivery interleaves with the main loop."""
        self._offer = (bytes(wire), int(version))

    @property
    def update_outcome(self) -> str:
        """``"installed"``, ``"failed"``, ``"pending"`` or ``"none"``."""
        if self._offer is None:
            return "none"
        _wire, version = self._offer
        if self.installer.active_version == version:
            return "installed"
        if self.transport.failed:
            return "failed"
        return "pending"

    # ------------------------------------------------------------------
    # Update pipeline
    # ------------------------------------------------------------------
    def _ota_step(self, device) -> None:
        if self._offer is None:
            return
        wire, version = self._offer
        active_version = self.installer.active_version
        if active_version is not None and version <= active_version:
            return  # already running this (or a newer) version
        if self.transport.failed:
            return  # livelock guard abandoned the link; keep the old set
        self.transport.offer(wire, version)
        if not self.transport.complete:
            self.transport.step(device)
            if not self.transport.complete:
                return
        if self._swap_queued:
            return
        try:
            decoded = decode_wire(self.transport.assemble())
            if isinstance(decoded, BundleDelta):
                base = self.installer.active_bundle()
                if base is None:
                    raise FleetError("delta update with no installed base")
                bundle = apply_delta(base, decoded)
            else:
                bundle = decoded
            if bundle.version != version:
                raise FleetError(
                    f"bundle claims version {bundle.version}, "
                    f"offer said {version}"
                )
        except FleetError as exc:
            # Corrupted or mismatched payload: drop the transfer whole.
            # The active slot was never touched.
            device.trace.record(
                device.sim_clock.now(), "ota_reject", reason=str(exc),
            )
            self.transport.reset()
            self._offer = None
            return
        self.installer.stage(bundle)
        self.inner.request_monitor_swap(self._do_swap)
        self._swap_queued = True

    def _do_swap(self, runtime: ArtemisRuntime) -> None:
        """Runs at a path boundary: journaled activation + live rebuild.

        Idempotent: if a crash interrupted a previous attempt and the
        journal already rolled the activation forward, the staged slot
        now holds the *older* version and the swap is a no-op — so the
        runtime may safely retry a queued swap until it succeeds.
        """
        device = runtime._device
        staged = self.installer.standby_bundle()
        active = self.installer.active_bundle()
        if staged is None or (active is not None
                              and staged.version <= active.version):
            self._swap_queued = False
            return
        self.installer.activate(spend=runtime._spend_commit_step,
                                on_step=runtime._commit_labels())
        device.trace.record(
            device.sim_clock.now(), "ota_activate", version=staged.version,
        )
        self._swap_queued = False
        self._sync_monitor(device)

    def _sync_monitor(self, device) -> None:
        """Make the in-memory monitor match the active slot.

        Rebuilding is keyed on the installed version, so replaying this
        on every boot is free when nothing changed; after an activation
        (or a rollback) it regenerates the machines from the active
        spec — unchanged machines reattach to their NVM state, and the
        migration log then resets the ones whose semantics changed.
        """
        active = self.installer.active_bundle()
        if active is not None and active.version != self._monitor_version:
            props = load_properties(active.spec, self.inner.app)
            monitor = ArtemisMonitor(props, device.nvm,
                                     backend=self._backend,
                                     name=self._monitor_name)
            self.inner.attach_monitor(monitor, props)
            self._monitor_version = active.version
            device.trace.record(
                device.sim_clock.now(), "ota_switch", version=active.version,
            )
        self.installer.finish_migration(self.inner.monitor, device)

    def _publish_journal(self, device, outcome: str) -> None:
        """Mirror :class:`~repro.core.recovery.RecoveryManager`'s journal
        counters — the wrapper recovers the journal first, so the inner
        recovery pass sees it clean and must not double-count."""
        t = device.sim_clock.now()
        if outcome == RECOVERED_ROLLED_BACK:
            device.result.torn_commits += 1
            device.trace.record(t, "torn_commit", outcome="rolled_back")
        elif outcome == RECOVERED_ROLLED_FORWARD:
            device.result.journal_replays += 1
            device.trace.record(t, "journal_replay", outcome="rolled_forward")
        elif outcome == RECOVERED_CORRUPT:
            device.result.torn_commits += 1
            device.result.corruptions_detected += 1
            device.trace.record(t, "torn_commit", outcome="corrupt_journal")
