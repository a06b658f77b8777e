"""Formal memory-model oracles over NVM access logs.

"Towards a Formal Foundation of Intermittent Computing" (Surbatovich et
al., OOPSLA '20) proves that an intermittent execution is equivalent to
some continuous execution exactly when (a) no re-executed code observes
its own earlier non-volatile writes — the *write-after-read* (WAR)
hazard — and (b) every re-execution repeats the first attempt's writes
— *idempotence*. Both properties are decidable from the memory access
log of a single intermittent run, which is what
:class:`MemoryModelChecker` does: it reads an
:class:`~repro.nvm.accesslog.AccessLog` and passes a verdict without
ever running a continuous-power twin.

**WAR oracle.** Within one failure-atomic region (the work between two
commit points), a cell whose first direct (``via == "task"``) access is
a read and which is later written directly is a WAR hazard: if a crash
lands after the write, the region re-executes and its read now observes
the post-write value, diverging from every continuous execution. The
hazard is *latent* wherever the pattern occurs and *manifest* when the
region actually was interrupted and recovery rolled back (or found the
journal clean/corrupt) — i.e. the region really does re-execute against
its own residue. Three cell classes are exempt:

* journal cells (the commit protocol's own state — prefix-matched
  against the journals observed in the log);
* writes applied ``via`` the journal's roll-forward or boot recovery
  (they *are* the commit, not the program); and
* cells allocated with ``progress=True`` — declared crash-progress
  linearization points (task PCs, cursors, retry counters, A/B
  switches) in the DINO/Alpaca tradition of manual WAR exemptions:
  their whole job is to be read, advanced, and re-read differently
  after a crash.

**Idempotence oracle.** A region interrupted before its commit point
re-executes from the top. Deterministic re-execution must *stage* the
same write intents, in the same order, with the same (normalized)
values: the interrupted attempt's stage sequence must be a prefix of
the re-execution's. Direct writes are excluded here — progress cells
legitimately differ between attempts — so the oracle compares
``OP_STAGE`` events only. A re-execution cut short by the next crash
before reaching the first attempt's length is *inconclusive*, not a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.nvm.accesslog import (
    OP_CLEAR,
    OP_READ,
    OP_RECOVER,
    OP_STAGE,
    OP_WRITE,
    VIA_TASK,
    AccessEvent,
    AccessLog,
)

#: Recovery outcomes after which the interrupted region re-executes.
#: ``rolled_forward`` means the commit linearized — the region is done
#: and nothing re-executes, so hazards in it cannot manifest.
_REEXEC_OUTCOMES = frozenset({"clean", "rolled_back", "corrupt"})


@dataclass
class Finding:
    """One memory-model verdict element."""

    #: ``"war"`` or ``"idempotence"``.
    kind: str
    #: The offending cell (WAR) or first diverging cell (idempotence).
    cell: Optional[str]
    #: Where the offending region ran.
    epoch: int
    region: int
    #: True when the log proves the hazard was exercised (the region was
    #: interrupted and re-executed); False for latent WAR patterns.
    manifest: bool
    detail: str = ""

    def describe(self) -> str:
        state = "manifest" if self.manifest else "latent"
        where = f"epoch {self.epoch}, region {self.region}"
        head = f"{self.kind.upper()} [{state}] cell {self.cell!r} ({where})"
        return f"{head}: {self.detail}" if self.detail else head


@dataclass
class MemoryModelReport:
    """Verdict of one :meth:`MemoryModelChecker.check` pass."""

    findings: List[Finding] = field(default_factory=list)
    #: power failures observed in the log.
    crashes: int = 0
    #: failure-atomic regions the oracles examined.
    checked_regions: int = 0
    #: comparisons the log could not finish (e.g. re-execution itself
    #: interrupted). Inconclusive is not a pass — rerun with a schedule
    #: that lets the re-execution complete.
    inconclusive: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no *manifest* finding was recorded."""
        return not any(f.manifest for f in self.findings)

    @property
    def manifest_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.manifest]

    @property
    def latent_findings(self) -> List[Finding]:
        return [f for f in self.findings if not f.manifest]

    def describe(self) -> str:
        lines = [
            f"memory model: {'OK' if self.ok else 'VIOLATION'} "
            f"({self.crashes} crashes, {self.checked_regions} regions, "
            f"{len(self.findings)} findings, "
            f"{len(self.inconclusive)} inconclusive)"
        ]
        lines.extend("  " + f.describe() for f in self.findings)
        lines.extend(f"  INCONCLUSIVE: {msg}" for msg in self.inconclusive)
        return "\n".join(lines)


class MemoryModelChecker:
    """WAR / idempotence oracle over a recorded access log.

    Args:
        progress_cells: names exempt from the WAR oracle (pass
            :attr:`NonVolatileMemory.progress_cells`; the convenience
            helpers below wire this automatically).
        extra_journal_prefixes: additional cell-name prefixes to treat
            as commit-protocol infrastructure, on top of the journals
            the log saw markers for.
        latent: also report WAR patterns in regions that were *not*
            interrupted. Latent findings never fail :attr:`ok`, but a
            single crash-free run with ``latent=True`` surveys every
            region for hazards a crash could expose.
    """

    def __init__(self, progress_cells: Iterable[str] = (),
                 extra_journal_prefixes: Iterable[str] = (),
                 latent: bool = False):
        self.progress_cells: FrozenSet[str] = frozenset(progress_cells)
        self.extra_journal_prefixes = tuple(extra_journal_prefixes)
        self.latent = latent

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self, log: AccessLog) -> MemoryModelReport:
        report = MemoryModelReport()
        journal_prefixes = log.journal_prefixes() + self.extra_journal_prefixes
        epochs = self._split_epochs(log.events)
        report.crashes = max(0, len(epochs) - 1)

        for epoch_idx, events in enumerate(epochs):
            interrupted = epoch_idx < len(epochs) - 1
            regions = self._split_regions(events)
            if not regions:
                continue
            last_region = max(regions)
            reexecutes = False
            if interrupted:
                outcomes = self._boot_outcomes(epochs[epoch_idx + 1])
                reexecutes = not any(o == "rolled_forward" for o in outcomes)
            for region_id in sorted(regions):
                report.checked_regions += 1
                manifest = (interrupted and reexecutes
                            and region_id == last_region)
                if manifest or self.latent:
                    self._check_war(regions[region_id], journal_prefixes,
                                    manifest, report)
            if interrupted and reexecutes:
                self._check_idempotence(
                    regions[last_region],
                    epochs[epoch_idx + 1],
                    report,
                )
        return report

    # ------------------------------------------------------------------
    # Log slicing
    # ------------------------------------------------------------------
    @staticmethod
    def _split_epochs(events: Sequence[AccessEvent]) -> List[List[AccessEvent]]:
        epochs: List[List[AccessEvent]] = []
        for event in events:
            while event.epoch >= len(epochs):
                epochs.append([])
            epochs[event.epoch].append(event)
        return epochs

    @staticmethod
    def _split_regions(
        events: Sequence[AccessEvent],
    ) -> Dict[int, List[AccessEvent]]:
        regions: Dict[int, List[AccessEvent]] = {}
        for event in events:
            regions.setdefault(event.region, []).append(event)
        return regions

    @staticmethod
    def _boot_outcomes(next_epoch: Sequence[AccessEvent]) -> List[str]:
        """Recovery outcomes of the boot that follows a crash.

        The boot block ends when task execution resumes — at the first
        staged write or journal ``begin``; recover markers after that
        belong to later commits, not to this crash.
        """
        outcomes: List[str] = []
        for event in next_epoch:
            if event.op == OP_STAGE or event.op == "begin":
                break
            if event.op == OP_RECOVER and event.detail is not None:
                outcomes.append(event.detail)
        return outcomes

    # ------------------------------------------------------------------
    # WAR oracle
    # ------------------------------------------------------------------
    def _exempt(self, cell: str, journal_prefixes: Tuple[str, ...]) -> bool:
        if cell in self.progress_cells:
            return True
        return any(cell.startswith(p) for p in journal_prefixes)

    def _check_war(self, region: Sequence[AccessEvent],
                   journal_prefixes: Tuple[str, ...], manifest: bool,
                   report: MemoryModelReport) -> None:
        first_access: Dict[str, str] = {}
        flagged: set = set()
        for event in region:
            if event.via != VIA_TASK:
                continue
            if event.op == OP_READ:
                first_access.setdefault(event.cell, OP_READ)
            elif event.op == OP_WRITE:
                prior = first_access.setdefault(event.cell, OP_WRITE)
                if (prior == OP_READ and event.cell not in flagged
                        and not self._exempt(event.cell, journal_prefixes)):
                    flagged.add(event.cell)
                    report.findings.append(Finding(
                        kind="war",
                        cell=event.cell,
                        epoch=event.epoch,
                        region=event.region,
                        manifest=manifest,
                        detail=(
                            "read before direct write in one region; "
                            + ("crash landed after the write and the "
                               "region re-executed against its own "
                               "residue" if manifest else
                               "a crash after the write would replay "
                               "the region against its own residue")
                        ),
                    ))

    # ------------------------------------------------------------------
    # Idempotence oracle
    # ------------------------------------------------------------------
    @staticmethod
    def _stages(region: Sequence[AccessEvent]) -> List[Tuple[str, Optional[int]]]:
        return [(e.cell, e.value_sig) for e in region if e.op == OP_STAGE]

    def _check_idempotence(self, attempt1: Sequence[AccessEvent],
                           next_epoch: Sequence[AccessEvent],
                           report: MemoryModelReport) -> None:
        a1 = self._stages(attempt1)
        if not a1:
            return  # nothing was staged before the crash: vacuously idempotent
        epoch = attempt1[0].epoch if attempt1 else 0
        region_id = attempt1[0].region if attempt1 else 0

        # The re-execution is the first region of the next epoch that
        # stages anything (boot bookkeeping uses direct writes only) —
        # *and* whose staged cells overlap the interrupted attempt's.
        # The overlap test matters: an unrelated commit queued before
        # the crash may linearize at the boot path boundary ahead of
        # the re-execution (e.g. a pending OTA activation staging
        # ``slots.*``), and comparing the attempt against that
        # interleaved commit would report a phantom divergence. If no
        # staging region overlaps, fall back to the first one — a
        # re-execution that stages a completely different footprint is
        # exactly the divergence the oracle exists to flag.
        attempt_cells = {c for c, _ in a1}
        regions = self._split_regions(next_epoch)
        reexec_id: Optional[int] = None
        fallback_id: Optional[int] = None
        for rid in sorted(regions):
            staged = {e.cell for e in regions[rid] if e.op == OP_STAGE}
            if not staged:
                continue
            if fallback_id is None:
                fallback_id = rid
            if staged & attempt_cells:
                reexec_id = rid
                break
        if reexec_id is None:
            reexec_id = fallback_id
        if reexec_id is None:
            report.inconclusive.append(
                f"region {region_id} (epoch {epoch}): re-execution staged "
                "nothing before the next crash"
            )
            return
        reexec = regions[reexec_id]
        a2 = self._stages(reexec)
        completed = any(e.op == OP_CLEAR for e in reexec)

        for i, ((c1, s1), (c2, s2)) in enumerate(zip(a1, a2)):
            if c1 != c2 or s1 != s2:
                report.findings.append(Finding(
                    kind="idempotence",
                    cell=c2,
                    epoch=epoch,
                    region=region_id,
                    manifest=True,
                    detail=(
                        f"re-execution diverged at staged write {i}: "
                        f"first attempt staged {c1!r} (sig "
                        f"{s1 if s1 is None else format(s1, '08x')}), "
                        f"re-execution staged {c2!r} (sig "
                        f"{s2 if s2 is None else format(s2, '08x')})"
                    ),
                ))
                return
        if len(a2) < len(a1):
            if completed:
                report.findings.append(Finding(
                    kind="idempotence",
                    cell=a1[len(a2)][0],
                    epoch=epoch,
                    region=region_id,
                    manifest=True,
                    detail=(
                        f"re-execution committed after {len(a2)} staged "
                        f"writes but the first attempt had already staged "
                        f"{len(a1)} before crashing"
                    ),
                ))
            else:
                report.inconclusive.append(
                    f"region {region_id} (epoch {epoch}): re-execution "
                    f"interrupted after {len(a2)}/{len(a1)} staged writes"
                )


# ---------------------------------------------------------------------------
# Convenience: run a scenario under the checker
# ---------------------------------------------------------------------------

def run_memory_model(build, schedule: Tuple[int, ...] = (),
                     run_kwargs: Optional[dict] = None,
                     latent: bool = False) -> MemoryModelReport:
    """Build, run under ``schedule``, and memory-model-check one scenario.

    ``build`` is a ``() -> (device, runtime)`` factory as used by
    :class:`~repro.verify.explorer.CrashScheduleExplorer`. The access
    log normalizes values with
    :func:`~repro.verify.oracle.mask_time_fields` so re-execution
    timestamp drift does not register as divergence.
    """
    from repro.verify.oracle import is_time_cell, mask_time_fields
    from repro.verify.schedule import CrashScheduleRunner

    device, runtime = build()
    log = AccessLog(normalize=mask_time_fields, mask_cells=is_time_cell)
    device.nvm.attach_access_log(log)
    CrashScheduleRunner(schedule, record_from=None).bind(device)
    device.run(runtime, **(run_kwargs or {}))
    checker = MemoryModelChecker(
        progress_cells=device.nvm.progress_cells, latent=latent)
    return checker.check(log)
