"""OTA transport: lossy, energy-charged, crash-resumable chunk delivery.

A bundle crosses the radio in fixed-size chunks, stop-and-wait: one
chunk attempt per runtime loop iteration, each attempt paying airtime to
the shared ``"radio"`` energy category (the same one
:class:`~repro.core.deployments.RemoteMonitorRuntime` charges). Loss is
modelled with the seeded :class:`~repro.peripherals.faults.SensorFault`
machinery, so a chunk-loss schedule is reproducible from its seed.

Received chunks persist in an NVM staging area immediately — a transfer
interrupted by a power failure resumes from its durable high-water mark
(``<name>.next``) instead of restarting. Losses are counted per chunk by
an NVM-backed :class:`~repro.core.retry.RetrySupervisor`: a link that
keeps eating the same chunk (a dead radio, a jammed channel) trips the
livelock guard and durably marks the transfer failed, exactly like the
task-retry watchdog in :mod:`repro.core.retry` — the device keeps its
installed monitor set rather than retrying forever.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from repro.core.deployments import RadioLink
from repro.core.retry import RetryPolicy, RetrySupervisor
from repro.errors import FleetError, PeripheralError
from repro.nvm.memory import NonVolatileMemory
from repro.peripherals.faults import SensorFault


class ChunkLoss(SensorFault):
    """Seeded chunk-loss model for the OTA link.

    ``rate`` is the per-chunk loss probability; ``windows`` model
    deterministic outages (the device walks behind a wall). A lost chunk
    is retransmitted after backoff — it never corrupts the staging area.
    """

    KIND = "chunk_loss"
    SILENT = False

    def perturb(self, sensor: str, t: float, value, last_good):
        raise PeripheralError(sensor, self.KIND, t)


def split_chunks(wire: bytes, chunk_size: int) -> List[bytes]:
    if chunk_size < 1:
        raise FleetError(f"chunk size must be >= 1, got {chunk_size}")
    return [wire[i:i + chunk_size] for i in range(0, len(wire), chunk_size)]


def transfer_outcomes(loss: SensorFault, chunks: int,
                      max_attempts: int) -> Tuple[bool, ...]:
    """The outcomes (``True`` = lost) that a transfer of ``chunks``
    chunks draws from ``loss``, under a livelock guard of
    ``max_attempts``.

    It must stop exactly where :meth:`OtaTransport.step` stops drawing:
    after the ``chunks``-th delivery (``"complete"``) or after
    ``max_attempts`` consecutive losses of one chunk (``"failed"``). A
    delivery resets the loss run, as ``step`` clears the chunk's
    counter. Each outcome is one :meth:`~repro.peripherals.faults.
    SensorFault.fires` draw, which reads no time as long as ``loss`` has
    no windows (a fleet build gives it none), so a device whose model
    gives these outcomes makes exactly these draws, or a prefix of them
    if its run ends first.
    """
    outcomes: List[bool] = []
    delivered = lost = 0
    while delivered < chunks and lost < max_attempts:
        fired = loss.fires(0.0)
        outcomes.append(fired)
        if fired:
            lost += 1
        else:
            delivered += 1
            lost = 0
    return tuple(outcomes)


class OtaTransport:
    """Receiver side of a chunked bundle transfer, staged in NVM.

    Durable cells (under ``name``, default ``"ota"``):

    * ``ota.desc`` — descriptor of the transfer in flight (version,
      size, chunk count, CRC of the full wire blob); identifies a
      transfer across reboots so progress is only reused for the same
      bytes.
    * ``ota.chunk.<i>`` — received chunk payloads.
    * ``ota.next`` — in-order high-water mark; chunks below it are
      durably staged.
    * ``ota.failed`` — set when the livelock guard aborts the transfer.
    * ``ota.retry.attempts`` — per-chunk loss counters
      (:class:`~repro.core.retry.RetrySupervisor`).

    Ordering makes every step crash-safe: a chunk cell is written
    *before* ``next`` advances, so a crash between the two re-receives
    the same chunk into the same cell — an idempotent overwrite.
    """

    def __init__(
        self,
        nvm: NonVolatileMemory,
        radio: RadioLink = RadioLink(),
        loss: Optional[SensorFault] = None,
        retry_policy: Optional[RetryPolicy] = None,
        chunk_size: int = 256,
        name: str = "ota",
    ):
        if chunk_size < 1:
            raise FleetError(f"chunk size must be >= 1, got {chunk_size}")
        self.radio = radio
        self.loss = loss
        self.chunk_size = chunk_size
        self.name = name
        self._nvm = nvm
        # Transfer identity latch, in-order cursor, one-way abort
        # switch: all three are crash-progress cells by design (read
        # back after a reboot to resume, not re-derived), hence exempt
        # from the WAR oracle.
        self._desc = nvm.alloc(f"{name}.desc", None, 16, progress=True)
        self._next = nvm.alloc(f"{name}.next", 0, 2, progress=True)
        self._failed = nvm.alloc(f"{name}.failed", False, 1, progress=True)
        self._retry = RetrySupervisor(
            nvm, retry_policy or RetryPolicy(max_attempts=8),
            cell_name=f"{name}.retry.attempts",
        )
        self._chunks: Optional[List[bytes]] = None  # volatile send queue

    # ------------------------------------------------------------------
    # Offering a transfer (server side of the link)
    # ------------------------------------------------------------------
    def offer(self, wire: bytes, version: int) -> None:
        """Make ``wire`` the transfer in flight; resumes if it already is.

        If the durable descriptor matches (same version, size, CRC) the
        staged progress survives — this is the resume-across-reboot
        path. Anything else (first offer, a different bundle) restarts
        the staging area.
        """
        self._chunks = split_chunks(wire, self.chunk_size)
        desc = {
            "version": int(version),
            "size": len(wire),
            "chunks": len(self._chunks),
            "chunk_size": self.chunk_size,
            "crc": zlib.crc32(wire) & 0xFFFFFFFF,
        }
        if self._desc.get() != desc:
            self._desc.set(desc)
            self._next.set(0)
            self._failed.set(False)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def in_progress(self) -> bool:
        return self._desc.get() is not None and not self.complete

    @property
    def complete(self) -> bool:
        desc = self._desc.get()
        return desc is not None and self._next.get() >= desc["chunks"]

    @property
    def failed(self) -> bool:
        return bool(self._failed.get())

    @property
    def version(self) -> Optional[int]:
        desc = self._desc.get()
        return None if desc is None else desc["version"]

    @property
    def received_chunks(self) -> int:
        return int(self._next.get())

    # ------------------------------------------------------------------
    # One chunk attempt per loop iteration
    # ------------------------------------------------------------------
    def step(self, device) -> str:
        """Attempt delivery of the next chunk; returns the outcome tag.

        Outcomes: ``"idle"`` (nothing offered / already done or failed),
        ``"delivered"``, ``"lost"``, ``"complete"`` (this step delivered
        the final chunk), ``"failed"`` (livelock guard tripped).
        """
        desc = self._desc.get()
        if desc is None or self.failed or self.complete or self._chunks is None:
            return "idle"
        idx = self._next.get()
        key = f"chunk{idx}"
        t = device.sim_clock.now()
        # Airtime is paid whether or not the chunk survives the channel.
        device.consume(self.radio.round_trip_s, self.radio.power_w, "radio")
        if self.loss is not None and self.loss.fires(t):
            attempt = self._retry.record_failure(key)
            policy = self._retry.policy
            if attempt >= policy.max_attempts:
                # Livelock guard: durably abandon the transfer.
                self._retry.clear(key)
                self._failed.set(True)
                device.trace.record(
                    device.sim_clock.now(), "ota_abort",
                    chunk=idx, attempts=attempt, version=desc["version"],
                )
                return "failed"
            device.trace.record(
                device.sim_clock.now(), "ota_chunk_lost",
                chunk=idx, attempt=attempt, version=desc["version"],
            )
            backoff = policy.backoff_s(key, attempt)
            if backoff > 0.0:
                # Idle wait with the radio parked: time passes, no draw.
                device.consume(backoff, 0.0, "radio")
            return "lost"
        data = self._chunks[idx]
        cell_name = f"{self.name}.chunk.{idx}"
        if cell_name not in self._nvm:
            self._nvm.alloc(cell_name, initial=b"", size_bytes=len(data))
        self._nvm.cell(cell_name).set(data)
        self._next.set(idx + 1)
        self._retry.clear(key)
        device.trace.record(
            device.sim_clock.now(), "ota_chunk",
            chunk=idx, of=desc["chunks"], version=desc["version"],
        )
        if self.complete:
            device.trace.record(
                device.sim_clock.now(), "ota_complete",
                chunks=desc["chunks"], version=desc["version"],
            )
            return "complete"
        return "delivered"

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def assemble(self) -> bytes:
        """Reassemble the staged chunks; CRC-checked against the offer.

        Raises :class:`~repro.errors.FleetError` on any mismatch — a
        corrupted staging area yields a rejected blob, never a
        half-trusted one.
        """
        desc = self._desc.get()
        if desc is None or not self.complete:
            raise FleetError("no completed transfer to assemble")
        parts = []
        for i in range(desc["chunks"]):
            cell_name = f"{self.name}.chunk.{i}"
            if cell_name not in self._nvm:
                raise FleetError(f"staging area missing chunk {i}")
            part = self._nvm.cell(cell_name).get()
            if not isinstance(part, bytes):
                raise FleetError(f"staged chunk {i} is not bytes")
            parts.append(part)
        wire = b"".join(parts)
        if len(wire) != desc["size"]:
            raise FleetError(
                f"reassembled size {len(wire)} != offered {desc['size']}"
            )
        if zlib.crc32(wire) & 0xFFFFFFFF != desc["crc"]:
            raise FleetError("reassembled bundle fails transfer CRC")
        return wire

    def reset(self) -> None:
        """Durably abandon the transfer in flight (staging is reusable)."""
        self._desc.set(None)
        self._next.set(0)
        self._failed.set(False)
