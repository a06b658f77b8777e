"""The memoized projected fingerprint equals the chained-CRC original.

:meth:`FingerprintPolicy.fingerprint` keeps one record per cell and
reuses it while the cell holds the same object with the same write
count, and caches the sorted names and journal bases per allocation
layout, for one NVM at a time. :func:`reference_fingerprint` is the
original, kept verbatim: one CRC chained over the sorted records,
computed afresh by a new policy.

The property drives two NVMs with random interleaved operations, so
the single-slot memo is evicted whenever the target switches, and
compares the two after every step. The operations cover every way a
durable state changes: allocation, free and re-allocation (same and
other names, same sizes), writes of new objects and of objects mutated
in place, silent corruption, growth, time-masked cells, and every
journal phase, including partially applied roll-forwards and entries
for cells not allocated yet. Fingerprinting must leave an attached
access log untouched.
"""

import gc
import weakref
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NVMError
from repro.nvm.accesslog import AccessLog
from repro.nvm.journal import CommitJournal
from repro.nvm.memory import NonVolatileMemory
from repro.verify import FingerprintPolicy, get_scenario


def _crc(payload, acc=0):
    return zlib.crc32(repr(payload).encode("utf-8", "backslashreplace"), acc)


def reference_fingerprint(nvm):
    """The pre-memo ``FingerprintPolicy.fingerprint`` body, verbatim."""
    self = FingerprintPolicy()  # fresh: nothing memoized to lean on
    overrides = self.project(nvm)
    acc = 0
    names = {name for name, _ in nvm.raw_items()}
    names.update(overrides)
    for name in sorted(names):
        if self.mask_cell(name):
            continue
        value = overrides[name] if name in overrides else nvm.raw_get(name)
        acc = _crc((name, self.normalize(value)), acc)
    return acc


#: Cells the operations allocate, write and free. ``rt.end_ts`` is a
#: masked time cell; journal entries may target any of them, allocated
#: or not.
USER_CELLS = ("a", "b", "c", "chan.x", "chan.y", "rt.end_ts")

OPS = ("alloc", "swap", "realloc", "set", "mutate_set", "corrupt", "grow",
       "journal", "begin", "append", "seal", "apply", "clear", "recover")

_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, width=16), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from(["x", "y"])),
    st.dictionaries(st.sampled_from(["t", "timestamp", "v"]),
                    st.integers(0, 3), max_size=2),
)

_ops = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 1),
                          st.integers(0, 63), _values, st.integers(0, 7)),
                max_size=40)


class _Crash(Exception):
    pass


def _crash_after(steps):
    left = [steps]

    def spend():
        if left[0] == 0:
            raise _Crash
        left[0] -= 1
    return spend


class _Target:
    """One NVM under test, its journal (once opened) and access log."""

    def __init__(self, with_journal):
        self.nvm = NonVolatileMemory()
        self.log = AccessLog()
        self.nvm.attach_access_log(self.log)
        self.journal = CommitJournal(self.nvm) if with_journal else None

    def user_cells(self):
        return [name for name in USER_CELLS if name in self.nvm]

    def pick(self, names, i):
        return names[i % len(names)] if names else None

    def apply(self, kind, i, value, n):
        nvm, journal = self.nvm, self.journal
        users = self.user_cells()
        if kind == "alloc":
            nvm.alloc(USER_CELLS[i % len(USER_CELLS)], value)
        elif kind == "swap":
            # Free one cell and allocate another of the same size: the
            # cell count and used bytes both stay the same.
            old = self.pick(users, i)
            free = [name for name in USER_CELLS if name not in nvm]
            if old is not None and free:
                size = nvm.cell(old).size_bytes
                nvm.free(old)
                nvm.alloc(self.pick(free, n), value, size_bytes=size)
        elif kind == "realloc":
            name = self.pick(users, i)
            if name is not None:
                size = nvm.cell(name).size_bytes
                held = nvm.raw_get(name)
                nvm.free(name)
                if n % 2 and isinstance(held, list):
                    held.append(n)  # the same object, changed meanwhile
                    value = held
                nvm.alloc(name, value, size_bytes=size)
        elif kind == "set":
            name = self.pick(users, i)
            if name is not None:
                nvm.cell(name).set(value)
        elif kind == "mutate_set":
            name = self.pick(users, i)
            if name is not None:
                held = nvm.raw_get(name)
                if isinstance(held, list):
                    held.append(n)
                elif isinstance(held, dict):
                    held["v"] = n
                else:
                    held = [held]
                nvm.cell(name).set(held)
        elif kind == "corrupt":
            # Any cell, the journal's too; but an empty entries tuple
            # would flip into a string no journal step can append to.
            name = self.pick(sorted(nvm), i)
            if name is not None and nvm.raw_get(name) != ():
                nvm.corrupt(name, bit=n)
        elif kind == "grow":
            name = self.pick(sorted(nvm), i)
            if name is not None:
                nvm.grow(name, nvm.cell(name).size_bytes + n)
        elif kind == "journal":
            if journal is None:
                self.journal = CommitJournal(nvm)
        elif journal is None:
            return
        elif kind == "begin":
            journal.begin()
        elif kind == "append":
            journal.append(USER_CELLS[i % len(USER_CELLS)], value)
        elif kind == "seal":
            journal.seal()
        elif kind == "apply":
            try:
                journal.apply(spend=_crash_after(n % 4))
            except _Crash:
                pass  # partially applied: ``applied`` < len(entries)
        elif kind == "clear":
            journal.clear()
        elif kind == "recover":
            journal.recover()


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
# Each rule's smallest witness, always run: corruption keeps the write
# count, an in-place mutation written back keeps the object, a swap
# keeps the cell count and used bytes, a re-allocation can bring back
# the very object it held, another NVM can share the layout version,
# and a sealed journal applied in part rolls forward into a cell not
# allocated yet.
@example(ops=[("alloc", 1, 0, [1], 0), ("corrupt", 1, 0, None, 0)])
@example(ops=[("alloc", 1, 0, [1], 0), ("mutate_set", 1, 0, None, 5)])
@example(ops=[("alloc", 1, 0, 1, 0), ("swap", 1, 0, 2, 0)])
@example(ops=[("alloc", 1, 0, [1], 0), ("realloc", 1, 0, None, 1)])
@example(ops=[("alloc", 0, 0, 1, 0), ("journal", 1, 0, None, 0),
              ("alloc", 1, 1, 2, 0), ("set", 0, 0, 3, 0)])
@example(ops=[("begin", 0, 0, None, 0), ("append", 0, 3, [7], 0),
              ("append", 0, 0, 5, 0), ("seal", 0, 0, None, 0),
              ("apply", 0, 0, None, 1), ("recover", 0, 0, None, 0)])
def test_memoized_fingerprint_matches_reference(ops):
    policy = FingerprintPolicy()
    targets = [_Target(with_journal=True), _Target(with_journal=False)]
    for kind, k, i, value, n in ops:
        target = targets[k]
        try:
            target.apply(kind, i, value, n)
        except NVMError:
            pass  # e.g. append while idle, begin while in flight
        logged = len(target.log)
        got = policy.fingerprint(target.nvm)
        assert len(target.log) == logged, "fingerprinting touched the log"
        assert got == reference_fingerprint(target.nvm), (kind, k, i, value, n)


def test_layout_version_moves_on_alloc_and_free_only():
    nvm = NonVolatileMemory()
    start = nvm.layout_version
    cell = nvm.alloc("a", 1)
    after_alloc = nvm.layout_version
    assert after_alloc != start
    nvm.alloc("a", 1)  # idempotent re-allocation after a reboot
    cell.set(5)
    nvm.grow("a", 64)
    nvm.corrupt("a")
    assert nvm.layout_version == after_alloc
    nvm.free("a")
    assert nvm.layout_version != after_alloc


def test_memo_does_not_keep_a_finished_nvm_alive():
    policy = FingerprintPolicy()
    nvm = NonVolatileMemory()
    nvm.alloc("a", [1])
    policy.fingerprint(nvm)
    gone = weakref.ref(nvm)
    del nvm
    gc.collect()
    assert gone() is None
    fresh = NonVolatileMemory()
    fresh.alloc("a", [2])
    assert policy.fingerprint(fresh) == reference_fingerprint(fresh)


@pytest.mark.parametrize("workload", ["ota", "temporal"])
def test_every_recorded_signature_matches_reference(workload, monkeypatch):
    fingerprint = FingerprintPolicy.fingerprint
    calls = []

    def checked(self, nvm):
        value = fingerprint(self, nvm)
        calls.append(value == reference_fingerprint(nvm))
        return value

    monkeypatch.setattr(FingerprintPolicy, "fingerprint", checked)
    report = get_scenario(workload, "artemis").explorer().explore(
        bound=1, budget=400, stop_on_first=False, por=True)
    assert report.ok and not report.truncated
    assert calls and all(calls)
