"""Crash schedules and the device scheduler that executes them.

A *crash schedule* is a strictly increasing tuple of 1-based energy
payment indices: ``(12, 40)`` means "inject a brown-out at the 12th
payment, reboot, then inject another at the 40th payment counted from
the start of the run". Because every component of the simulation is
deterministic, a schedule identifies one intermittent execution
completely — the conformance checker (:mod:`repro.verify.explorer`)
enumerates schedules instead of executions.

:class:`CrashScheduleRunner` is the object plugged into
:attr:`~repro.sim.Device.scheduler`. Besides injecting the scheduled
failures it records, per payment index:

* the payment's consumption category;
* the semantic label of the commit step paying, when the runtime
  forwarded one via :meth:`annotate` (see
  :meth:`repro.nvm.transaction.Transaction.commit`); and
* from payment ``record_from`` on, the crash-state fingerprint *just
  before* the payment — the exact durable state a crash at that index
  would reboot from, which is what makes state-hash pruning possible.
  That is the raw NVM
  :meth:`~repro.nvm.memory.NonVolatileMemory.state_fingerprint`, or,
  with a :class:`FingerprintPolicy`, the recovery-projected search
  signature instead.

A raw fingerprint encodes and hashes the whole NVM. A projected one
re-encodes only the cells changed since the previous one and reuses the
other cells' encodings (:meth:`FingerprintPolicy.fingerprint`); the
value is the same as encoding every cell. The explorer only ever
extends a run past its last crash, and never extends a run at the
bound, so it asks for fingerprints from the payment after the last
crash, or for none.
"""

from __future__ import annotations

import weakref
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.nvm.journal import (
    STATUS_COMMITTED,
    STATUS_IDLE,
    STATUS_PENDING,
    entries_checksum,
)
from repro.verify.oracle import (
    ACTION_KINDS,
    is_time_cell,
    mask_time_fields,
    normalized_action,
)

#: A crash schedule: strictly increasing 1-based payment indices.
Schedule = Tuple[int, ...]


def validate_schedule(schedule: Iterable[int]) -> Schedule:
    """Normalise and validate a crash schedule."""
    out = tuple(int(i) for i in schedule)
    if any(i < 1 for i in out):
        raise ReproError(f"crash schedule {out} has non-positive indices")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ReproError(f"crash schedule {out} is not strictly increasing")
    return out


def _crc(payload: object, acc: int = 0) -> int:
    return zlib.crc32(repr(payload).encode("utf-8", "backslashreplace"), acc)


class FingerprintPolicy:
    """Recovery-projected, time-masked crash-state fingerprints.

    The raw per-payment fingerprint hashes the durable state *as is* —
    including a mid-commit journal full of redo entries, and cells whose
    values are wall-clock timestamps. Both inflate the number of
    distinct crash states without changing what a crash actually leads
    to:

    * **Recovery projection.** A crash never resumes from the raw
      durable state; it resumes from what boot-time recovery makes of
      it. Projecting each journal through its own recovery rules — a
      *pending* journal's entries are dropped, a *committed* journal's
      entries are overlaid onto their cells, journal bookkeeping cells
      are normalised to idle — collapses every interior crash point of
      one commit into the two states that matter (before the seal /
      after the seal). The projection is exact, not heuristic: it is
      :meth:`repro.nvm.journal.CommitJournal.recover` evaluated
      symbolically.
    * **Time masking.** Cells holding bare timestamps
      (:func:`repro.verify.oracle.is_time_cell`) and timestamp-named
      dict fields (:func:`repro.verify.oracle.mask_time_fields`) are
      masked, matching the equivalence policy's own time-insensitivity:
      the outcome comparison never looks at them, so crash states
      differing only there have equal verdicts for every continuation.
      Only valid for ``time_sensitive=False`` scenarios — the explorer
      refuses the combination otherwise.

    Two payments with equal projected fingerprints reboot into the same
    post-recovery durable state, hence (deterministic simulation, time
    masked) the same future.
    """

    def __init__(self,
                 mask_cell: Callable[[str], bool] = is_time_cell,
                 normalize: Callable[[object], object] = mask_time_fields):
        self.mask_cell = mask_cell
        self.normalize = normalize
        # The memo serves one NVM and cell layout at a time: a runner
        # fingerprints its device's NVM at every payment, and a search
        # runs one schedule at a time. It holds the NVM weakly, and only
        # one: the search frontier keeps its runs' devices alive, so a
        # memo per NVM would grow with it.
        self._memo_nvm: Optional[weakref.ref] = None
        self._memo_layout = -1
        #: Sorted unmasked cell names and journal bases of the layout.
        self._names: List[str] = []
        self._bases: List[str] = []
        #: name -> (value object, write count, record bytes).
        self._records: Dict[str, Tuple[object, int, bytes]] = {}

    # ------------------------------------------------------------------
    def _journal_bases(self, nvm) -> List[str]:
        bases = []
        for name, _ in nvm.raw_items():
            if name.endswith(".status"):
                base = name[: -len(".status")]
                if f"{base}.entries" in nvm and f"{base}.applied" in nvm:
                    bases.append(base)
        return sorted(bases)

    def _sync(self, nvm) -> None:
        """Point the memo at ``nvm`` and its current cell layout; any
        other NVM, or any cell allocated or freed since, starts it
        afresh."""
        if (self._memo_nvm is None or self._memo_nvm() is not nvm
                or self._memo_layout != nvm.layout_version):
            self._memo_nvm = weakref.ref(nvm)
            self._memo_layout = nvm.layout_version
            self._names = sorted(name for name, _ in nvm.raw_items()
                                 if not self.mask_cell(name))
            self._bases = self._journal_bases(nvm)
            self._records = {}

    def _record(self, name: str, value: object) -> bytes:
        return repr((name, self.normalize(value))).encode(
            "utf-8", "backslashreplace")

    def project(self, nvm) -> Dict[str, object]:
        """The durable state a crash *now* would reboot into.

        Returns cell overrides relative to the raw state: journal cells
        normalised to their post-recovery (idle) values, plus the
        roll-forward overlay of any sealed-but-unapplied entries.
        """
        self._sync(nvm)
        overrides: Dict[str, object] = {}
        for base in self._bases:
            status = nvm.raw_get(f"{base}.status")
            entries = tuple(nvm.raw_get(f"{base}.entries", ()))
            if status == STATUS_IDLE:
                continue
            if status == STATUS_COMMITTED and (
                    entries_checksum(entries)
                    == nvm.raw_get(f"{base}.checksum", 0)):
                # Roll forward: recovery will apply every entry.
                for cell_name, value in entries:
                    overrides[cell_name] = value
            # Pending (roll back), corrupt (discard) and rolled-forward
            # journals all end recovery in the same idle bookkeeping.
            overrides[f"{base}.status"] = STATUS_IDLE
            overrides[f"{base}.entries"] = ()
            overrides[f"{base}.checksum"] = 0
            overrides[f"{base}.applied"] = 0
        return overrides

    def fingerprint(self, nvm) -> int:
        """CRC-32 of the projected, masked durable state.

        The CRC runs over one record per unmasked cell, in name order:
        ``repr((name, normalized value))``. A payment changes only a few
        cells, so each cell's record is kept and reused while the cell
        holds the same object with the same write count: identity
        catches a corrupted cell, the count an object mutated in place
        and written back, and allocating or freeing a cell drops every
        record. Journal-overridden cells are recomputed every time.
        Values are read raw, so an attached access log sees nothing.
        """
        overrides = self.project(nvm)
        names = self._names
        data = nvm._data
        extra = [name for name in overrides
                 if name not in data and not self.mask_cell(name)]
        if extra:  # staged first writes to cells not yet allocated
            names = sorted(names + extra)
        writes = nvm._cell_writes
        records = self._records
        parts = []
        for name in names:
            if name in overrides:
                parts.append(self._record(name, overrides[name]))
                continue
            value = data[name]
            count = writes.get(name, 0)
            memo = records.get(name)
            if memo is None or memo[0] is not value or memo[1] != count:
                memo = records[name] = (value, count,
                                        self._record(name, value))
            parts.append(memo[2])
        # crc32(a + b) == crc32(b, crc32(a)): the same value as chaining
        # one CRC over the records.
        return zlib.crc32(b"".join(parts))


class CrashScheduleRunner:
    """Injects brown-outs at scheduled payment indices and records
    crash-point metadata for the explorer.

    Args:
        schedule: payment indices to crash at (may be empty — then the
            runner only observes).
        record_from: first payment index whose crash state is
            fingerprinted; ``None`` fingerprints none, for plain replay
            runs where only the injection matters. Categories and
            commit-step labels are recorded at every payment regardless.
        time_sensitive: include the (rounded) simulation time in the
            recorded fingerprint. Costs pruning power — time advances
            monotonically — but is required for workloads whose
            behaviour genuinely depends on absolute time.
        fingerprint_policy: when given, record *projected* fingerprints
            (see :class:`FingerprintPolicy`) and per-payment search
            signatures for the explorer's partial-order reduction
            instead of raw fingerprints.
    """

    def __init__(self, schedule: Iterable[int] = (),
                 record_from: Optional[int] = 1,
                 time_sensitive: bool = False,
                 fingerprint_policy: Optional[FingerprintPolicy] = None):
        self.schedule = validate_schedule(schedule)
        self._crash_at = frozenset(self.schedule)
        self.record_from = record_from
        self.time_sensitive = time_sensitive
        self.fingerprint_policy = fingerprint_policy
        self.calls = 0
        self.crashes = 0
        # The next four lists hold payment k's crash state at position
        # k - record_from.
        #: Raw durable state a crash at each payment would reboot from
        #: (only without a fingerprint_policy).
        self.fingerprints: List[int] = []
        #: *Post-recovery* state a crash at each payment would lead to
        #: (only with a fingerprint_policy).
        self.projected: List[int] = []
        #: CRC of the normalised corrective-action prefix emitted
        #: before each payment (only with a fingerprint_policy).
        self.action_crcs: List[int] = []
        #: Application-runs count at each payment (only with a policy).
        self.runs_done: List[int] = []
        #: categories[k-1] is payment k's consumption category.
        self.categories: List[str] = []
        #: payment index -> commit-step label (only labelled steps).
        self.labels: Dict[int, str] = {}
        self._pending_label: Optional[str] = None
        self._device = None
        self._fp_cache_key: Optional[Tuple[int, int]] = None
        self._fp_cache_value: int = 0
        self._proj_cache_key: Optional[Tuple[int, int]] = None
        self._proj_cache_value: int = 0
        self._trace_pos = 0
        self._action_crc = 0

    # ------------------------------------------------------------------
    # Device-facing protocol
    # ------------------------------------------------------------------
    def bind(self, device) -> "CrashScheduleRunner":
        """Attach to ``device`` (sets ``device.scheduler``)."""
        self._device = device
        device.scheduler = self
        return self

    def annotate(self, label: str) -> None:
        """Label the *next* payment (called by commit protocols)."""
        self._pending_label = label

    def before_consume(self, duration_s: float, power_w: float,
                       category: str) -> bool:
        """Count one payment; True tells the device to brown out."""
        self.calls += 1
        self.categories.append(category)
        if self._pending_label is not None:
            self.labels[self.calls] = self._pending_label
            self._pending_label = None
        if self.record_from is not None and self.calls >= self.record_from:
            if self.fingerprint_policy is None:
                self.fingerprints.append(self._fingerprint())
            else:
                self.projected.append(self._projected_fingerprint())
                self.action_crcs.append(self._advance_action_crc())
                self.runs_done.append(self._device.result.runs_completed)
        if self.calls in self._crash_at:
            self.crashes += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def _fingerprint(self) -> int:
        nvm = self._device.nvm
        key = (len(nvm), nvm.write_count)
        if key != self._fp_cache_key:
            self._fp_cache_key = key
            self._fp_cache_value = nvm.state_fingerprint()
        fp = self._fp_cache_value
        if self.time_sensitive:
            fp = hash((fp, round(self._device.sim_clock.now(), 9)))
        return fp

    def _projected_fingerprint(self) -> int:
        nvm = self._device.nvm
        key = (len(nvm), nvm.write_count)
        if key != self._proj_cache_key:
            self._proj_cache_key = key
            self._proj_cache_value = self.fingerprint_policy.fingerprint(nvm)
        return self._proj_cache_value

    def _advance_action_crc(self) -> int:
        """Running CRC of the normalised corrective-action prefix.

        Mirrors :func:`repro.verify.oracle._normalized_actions` event by
        event, but incrementally — each recorded payment only hashes the
        trace events recorded since the previous one. It advances over
        trace positions, not payments, so its value at the first
        recorded payment covers the whole prefix whatever ``record_from``.
        """
        events = self._device.trace.events
        crc = self._action_crc
        for event in events[self._trace_pos:]:
            if event.kind in ACTION_KINDS:
                crc = _crc(normalized_action(event), crc)
        self._trace_pos = len(events)
        self._action_crc = crc
        return crc

    # ------------------------------------------------------------------
    # Post-run queries used by the explorer
    # ------------------------------------------------------------------
    def _position(self, index: int, projected: bool) -> int:
        """Where payment ``index``'s crash state sits in the recorded
        lists; raises unless the runner fingerprinted it that way."""
        has_policy = self.fingerprint_policy is not None
        if (projected == has_policy and self.record_from is not None
                and self.record_from <= index <= self.calls):
            return index - self.record_from
        if projected != has_policy:
            why = ("it records projected signatures only" if has_policy
                   else "it has no fingerprint_policy")
        elif self.record_from is None:
            why = "it fingerprints no payment"
        else:
            why = f"it fingerprints payments {self.record_from}..{self.calls}"
        kind = "search signature" if projected else "raw fingerprint"
        raise ReproError(
            f"no {kind} recorded for payment {index} "
            f"(record_from={self.record_from}): {why}")

    def fingerprint_at(self, index: int) -> int:
        """Durable-state fingerprint a crash at payment ``index`` sees."""
        return self.fingerprints[self._position(index, projected=False)]

    def label_at(self, index: int) -> Optional[str]:
        return self.labels.get(index)

    def category_at(self, index: int) -> str:
        return self.categories[index - 1]

    def signature_at(self, index: int) -> Tuple[int, int, int]:
        """Search signature of the crash point at payment ``index``.

        ``(projected fingerprint, action-prefix CRC, runs completed)``:
        two crash points with equal signatures have (a) identical
        post-recovery durable state, hence identical futures, and (b)
        identical observable pasts — so crashing at either, with any
        continuation, yields the same verdict. The explorer's
        partial-order reduction prunes whole subtrees on this equality.
        Requires a ``fingerprint_policy``.
        """
        pos = self._position(index, projected=True)
        return (self.projected[pos], self.action_crcs[pos],
                self.runs_done[pos])

    def representatives(self, start: int, stop: Optional[int] = None,
                        projected: bool = False) -> List[int]:
        """One payment index per distinct crash state in [start, stop].

        Scans the recorded fingerprints and keeps the *first* index of
        every run of equal fingerprints — crashing anywhere else in the
        run reboots from the identical durable state, so one
        representative covers the whole class. With ``projected=True``
        the scan uses the recovery-projected fingerprints instead
        (requires a ``fingerprint_policy``): interior crash points of a
        journaled commit then collapse into their post-recovery
        classes. Every index in the window must have been recorded.
        """
        stop = self.calls if stop is None else min(stop, self.calls)
        out: List[int] = []
        last_fp: Optional[object] = None
        for index in range(max(start, 1), stop + 1):
            if projected:
                # Full signature, not just the state: an action emitted
                # between two durably-identical payments still makes
                # their crashes observably different.
                fp: object = self.signature_at(index)
            else:
                fp = self.fingerprint_at(index)
            if last_fp is None or fp != last_fp:
                out.append(index)
                last_fp = fp
        return out
