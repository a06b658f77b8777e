"""Parallel sweep execution: persistent worker pool + result cache.

The figure-reproduction sweeps are embarrassingly parallel: every grid
point builds a fresh device + runtime and runs it to completion with no
shared state. :func:`run_sweep` shards a
:class:`~repro.sim.experiments.Sweep` grid across worker processes
while keeping the serial contract intact:

* **Determinism** — each point is executed by exactly one worker via the
  same ``Sweep.run_point`` code path as a serial run, and rows are
  reassembled in grid order, so the resulting table is identical to
  ``sweep.run()`` (simulations are deterministic functions of their
  point; randomness enters only through explicit ``seed`` factors).
* **Error attribution** — a failure in a worker comes back as a
  :class:`~repro.sim.experiments.SweepPointError` naming the offending
  point's factor values, exactly as it would serially.
* **Caching** — an optional :class:`ResultCache` keyed by a fingerprint
  of the sweep's *code* (build/metric bytecode, closure cells, partial
  arguments and callable-object state, the package version, and a
  source-tree stamp) plus the point's factor values. Editing any
  source file, changing a captured constant, or moving a factor level
  all change the key, so stale rows can never be replayed; re-running
  an unchanged sweep is pure cache hits.

Parallel work runs on one backend, :class:`PersistentPool`. Workers are
forked **once** and kept alive across calls; they self-schedule chunks
of work from a shared task queue (chunked work-stealing: an idle worker
pulls the next chunk, so a slow chunk never stalls the rest), return
fixed-layout numeric rows through a shared-memory table
(:class:`SharedRowTable`) instead of pickling them through a pipe, and
are detected + re-forked if they die mid-chunk (the dead worker's
claimed chunks are re-queued; chunks that keep killing workers fail
after ``max_chunk_retries``). It is also the execution backend of the
fleet control plane (:mod:`repro.fleet.control`).

**Portability rule.** The pool ships work to its resident workers by
pickling it, so a sweep runs in parallel only when its ``build`` and
``metrics`` are *portable*: module-level functions,
:func:`functools.partial` objects over them, or instances of
module-level classes with ``__call__``. A sweep with a lambda or a
closure still runs — in-process and serially, producing the same
table — unless ``strategy="persistent"`` demands the pool, which then
raises :class:`PoolError`. On platforms without ``fork`` every sweep
runs serially.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import inspect
import json
import multiprocessing
import os
import pickle
import struct
import threading
import time
import types
from multiprocessing import resource_tracker
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro
from repro.errors import ReproError
from repro.sim.experiments import Sweep, SweepPointError

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Cache format version; bump to invalidate every existing entry.
_CACHE_FORMAT = 1


# ---------------------------------------------------------------------------
# Fingerprinting: what makes a cached row reusable
# ---------------------------------------------------------------------------


def _put(h: "hashlib._Hash", data: Union[str, bytes]) -> None:
    """Mix one field in behind its length, so adjacent fields cannot run
    together: the fields ``1``, ``23`` and ``12``, ``3`` hash apart."""
    if isinstance(data, str):
        data = data.encode("utf-8", "backslashreplace")
    h.update(b"%d:" % len(data))
    h.update(data)


def _update_value(h: "hashlib._Hash", value: Any, depth: int) -> None:
    """Mix one captured value in: callables by behaviour, the rest by
    repr."""
    if callable(value):
        _update_callable(h, value, depth + 1)
    else:
        _put(h, repr(value))


def _update_code(h: "hashlib._Hash", code: types.CodeType) -> None:
    """Bytecode, names and constants. Nested code objects (lambdas,
    comprehensions) are hashed recursively: their repr embeds a memory
    address, which would make the fingerprint differ per process."""
    _put(h, "<code>")
    _put(h, code.co_code)
    _put(h, repr(code.co_names))
    _put(h, f"<consts {len(code.co_consts)}>")
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _update_code(h, const)
        else:
            _put(h, repr(const))


def _update_callable(h: "hashlib._Hash", fn: Any, depth: int = 0) -> None:
    """Mix a callable's behaviour into the hash.

    A function contributes its compiled code, defaults and —
    recursively — closure cell contents, so two lambdas that differ
    only in a captured constant fingerprint differently. A
    :func:`functools.partial` contributes its function, arguments and
    keywords. A bound method, or an instance of a class with
    ``__call__``, contributes that function and the instance's
    attributes. Anything else (builtins, classes) falls back to its
    repr, which at minimum names it. Every field is length-prefixed.
    """
    if depth > 4:  # cycle guard for pathological closure graphs
        _put(h, "<depth>")
        return
    if isinstance(fn, functools.partial):
        _put(h, f"<partial {len(fn.args)} {len(fn.keywords)}>")
        _update_callable(h, fn.func, depth + 1)
        for arg in fn.args:
            _update_value(h, arg, depth)
        for name in sorted(fn.keywords):
            _put(h, name)
            _update_value(h, fn.keywords[name], depth)
        return
    if inspect.ismethod(fn):
        func, owner = fn.__func__, fn.__self__
    elif getattr(fn, "__code__", None) is None:
        func, owner = getattr(type(fn), "__call__", None), fn
        if getattr(func, "__code__", None) is None:
            _put(h, repr(fn))
            return
    else:
        _put(h, "<function>")
        _update_code(h, fn.__code__)
        _put(h, repr((getattr(fn, "__defaults__", None),
                      getattr(fn, "__kwdefaults__", None))))
        cells = getattr(fn, "__closure__", None) or ()
        _put(h, f"<closure {len(cells)}>")
        for cell in cells:
            try:
                contents = cell.cell_contents
            except ValueError:  # empty cell
                _put(h, "<empty>")
                continue
            _update_value(h, contents, depth)
        return
    # The instance by its attributes; a class (or no ``__dict__``) by repr.
    state = None if isinstance(owner, type) else getattr(owner, "__dict__",
                                                          None)
    _put(h, f"<bound {type(owner).__qualname__}>")
    _update_callable(h, func, depth + 1)
    _put(h, repr(owner) if state is None else f"<attrs {len(state)}>")
    for name in sorted(state or ()):
        _put(h, name)
        _update_value(h, state[name], depth)


def _source_tree_stamp() -> str:
    """Digest of the package source tree (path, size, mtime per file).

    Any edit under ``repro``'s package directory changes the stamp and
    therefore every cache key — coarse, but it guarantees a cached row
    can never outlive the code that produced it.
    """
    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        try:
            stat = path.stat()
        except OSError:
            continue
        rel = path.relative_to(root).as_posix()
        h.update(f"{rel}:{stat.st_size}:{stat.st_mtime_ns};".encode())
    return h.hexdigest()


def fingerprint_hasher() -> "hashlib._Hash":
    """A sha256 seeded with what every result-cache fingerprint shares:
    the cache format, the package version and the source-tree stamp.
    Callers mix in whatever else determines their rows."""
    h = hashlib.sha256()
    h.update(f"format={_CACHE_FORMAT};".encode())
    h.update(f"version={getattr(repro, '__version__', '?')};".encode())
    h.update(_source_tree_stamp().encode())
    return h


def sweep_fingerprint(sweep: Sweep) -> str:
    """Stable fingerprint of everything that determines a sweep's rows
    besides the grid point itself: package version, source tree, the
    build and metric callables, and the run budget."""
    h = fingerprint_hasher()
    _update_callable(h, sweep.build)
    for name in sorted(sweep.metrics):
        _put(h, name)
        _update_callable(h, sweep.metrics[name])
    _put(h, json.dumps(
        {"runs": sweep.runs, "max_time_s": sweep.max_time_s,
         "max_reboots": sweep.max_reboots},
        sort_keys=True,
    ))
    return h.hexdigest()


def _point_token(point: Dict[str, Any]) -> str:
    """Canonical JSON form of a grid point (sorted keys, stable reprs)."""
    try:
        return json.dumps(point, sort_keys=True)
    except (TypeError, ValueError):
        # Non-JSON factor levels (objects, tuples): fall back to repr,
        # which is stable for the value types sweeps actually use.
        return repr(sorted((k, repr(v)) for k, v in point.items()))


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class ResultCache:
    """Content-addressed store of finished sweep rows.

    Layout: ``<root>/<key[:2]>/<key>.json``, one row per file, written
    atomically (temp file + rename) so a killed sweep never leaves a
    torn entry. Only rows that survive a JSON round-trip unchanged are
    cached — anything else silently stays uncached rather than coming
    back subtly different (e.g. tuples as lists).
    """

    def __init__(self, root: Union[str, os.PathLike] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def key_for(self, fingerprint: str, point: Dict[str, Any]) -> str:
        """Cache key of one grid point under one sweep fingerprint."""
        h = hashlib.sha256()
        h.update(fingerprint.encode())
        h.update(_point_token(point).encode("utf-8", "backslashreplace"))
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for ``key``, or ``None`` (counts hit/miss)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        row = doc.get("row") if isinstance(doc, dict) else None
        if not isinstance(row, dict):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, key: str, row: Dict[str, Any]) -> bool:
        """Store a row; returns False (and stores nothing) if the row
        does not round-trip through JSON byte-identically."""
        try:
            encoded = json.dumps({"format": _CACHE_FORMAT, "row": row})
            if json.loads(encoded)["row"] != row:
                return False
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(encoded, encoding="utf-8")
        os.replace(tmp, path)
        return True

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _normalize_cache(cache: Any) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    raise ReproError(f"cannot use {cache!r} as a result cache")


# ---------------------------------------------------------------------------
# Shared-memory result tables
# ---------------------------------------------------------------------------


class SharedRowTable:
    """Fixed-layout float64 result table in POSIX shared memory.

    One row of ``n_fields`` doubles per work item. Workers write rows
    in place (``struct.pack_into`` at their item's slot); the parent
    reads them back without any pickling or pipe traffic. Falls back to
    ``None`` (queue transport) when :mod:`multiprocessing.shared_memory`
    is unavailable.
    """

    def __init__(self, n_rows: int, n_fields: int):
        from multiprocessing import shared_memory

        self.n_rows = n_rows
        self.n_fields = n_fields
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, n_rows * n_fields * 8))
        self.name = self._shm.name

    @staticmethod
    def create(n_rows: int, n_fields: int) -> Optional["SharedRowTable"]:
        if n_rows <= 0 or n_fields <= 0:
            return None
        try:
            return SharedRowTable(n_rows, n_fields)
        except Exception:
            return None

    def read_row(self, slot: int) -> Tuple[float, ...]:
        return struct.unpack_from(f"{self.n_fields}d", self._shm.buf,
                                  slot * self.n_fields * 8)

    def destroy(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except Exception:
            pass

    @staticmethod
    def write_remote(name: str, n_fields: int, slot: int,
                     values: Sequence[float]) -> None:
        """Worker-side write into the parent's table (attach by name)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            struct.pack_into(f"{n_fields}d", shm.buf, slot * n_fields * 8,
                             *values)
        finally:
            shm.close()


# ---------------------------------------------------------------------------
# Persistent worker pool (chunked work-stealing)
# ---------------------------------------------------------------------------


class PoolError(ReproError):
    """The persistent pool could not complete a run."""


class PoolItemError:
    """Per-item failure returned in place of a result under
    :meth:`PersistentPool.run`'s ``return_errors`` mode.

    Carries the worker-side verdict so the caller can decide to retry
    the item (the control plane re-runs it inline) or raise.
    """

    __slots__ = ("tag", "payload")

    def __init__(self, tag: str, payload: Any):
        self.tag = tag
        self.payload = payload

    def to_exception(self, item: Any) -> Exception:
        if self.tag == "errsweep":
            stage, point, cause = self.payload
            return SweepPointError(stage, point, cause)
        return PoolError(f"task failed for item {item!r}: {self.payload}")

    def __repr__(self) -> str:
        return f"PoolItemError({self.tag!r}, {self.payload!r})"


def _pool_worker(task_q, result_q) -> None:
    """Worker loop: pull chunks from the shared queue until ``stop``.

    Each chunk message carries its own pickled context (small — a task
    descriptor, not the work), so a worker forked at pool creation can
    execute work that was defined afterwards. Per-item failures come
    back as verdicts; only a hard crash (signal, ``os._exit``) kills
    the worker, and the parent detects that and re-queues the chunk.
    """
    ctx_cache: Dict[bytes, Any] = {}
    pid = os.getpid()
    while True:
        msg = task_q.get()
        if msg[0] == "stop":
            return
        _, chunk_id, ctx_digest, ctx_bytes, pairs, shm_name, n_fields = msg
        result_q.put(("claim", chunk_id, pid))
        try:
            task = ctx_cache.get(ctx_digest)
            if task is None:
                task = pickle.loads(ctx_bytes)
                ctx_cache[ctx_digest] = task
        except BaseException as exc:
            result_q.put(("chunkerr", chunk_id, pid, repr(exc)))
            continue
        out: List[Tuple[Any, ...]] = []
        for slot, item in pairs:
            try:
                value = task(item)
            except SweepPointError as exc:
                out.append(("errsweep", slot,
                            (exc.stage, exc.point, exc.cause)))
                continue
            except BaseException as exc:
                out.append(("err", slot, repr(exc)))
                continue
            written = False
            if shm_name is not None:
                encode = getattr(task, "encode_row", None)
                if encode is not None:
                    try:
                        SharedRowTable.write_remote(shm_name, n_fields, slot,
                                                    encode(value))
                        written = True
                    except Exception:
                        written = False
            out.append(("okshm", slot, None) if written
                       else ("ok", slot, value))
        result_q.put(("done", chunk_id, pid, out))


class PersistentPool:
    """Long-lived fork pool with chunked work-stealing.

    Workers are forked once (lazily, on first :meth:`run`) and reused
    across calls — the fix for the fork-per-call overhead that made
    sharded sweeps slower than serial runs on small grids. Work arrives
    as (picklable) *task contexts* applied to picklable items:

    >>> pool = PersistentPool(jobs=4)
    >>> rows = pool.run(some_module_level_callable, [0, 1, 2, 3])

    Scheduling is self-balancing: the items are split into
    ``~4 x jobs`` chunks pushed onto one shared queue, and each idle
    worker steals the next chunk, so a slow chunk delays only the
    worker that claimed it. Results return through a shared-memory
    row table when the task provides ``encode_row``/``decode_row``
    (fixed float64 layout, no pickling), otherwise through the result
    queue. A worker that dies mid-chunk is detected by liveness
    polling; its claimed chunks are re-queued and a replacement is
    forked (``restarts`` counts these). A chunk that keeps killing
    workers fails the run after ``max_chunk_retries`` attempts instead
    of looping forever.
    """

    def __init__(self, jobs: int, restart: bool = True,
                 max_chunk_retries: int = 3):
        if jobs < 1:
            raise PoolError("jobs must be >= 1")
        self.jobs = jobs
        self.restart = restart
        self.max_chunk_retries = max_chunk_retries
        self.forks = 0
        self.restarts = 0
        self.chunks_dispatched = 0
        self._ctx = multiprocessing.get_context("fork")
        self._task_q = None
        self._result_q = None
        self._workers: List[Any] = []
        self._chunk_seq = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._closed:
            raise PoolError("pool is closed")
        if self._task_q is None:
            self._task_q = self._ctx.Queue()
            # Results travel over a SimpleQueue on purpose: its put()
            # is a synchronous, lock-protected pipe write, so a worker
            # that hard-crashes right after reporting cannot lose the
            # message in a feeder-thread buffer the way mp.Queue does —
            # the claim/done protocol the death detector relies on
            # would otherwise be unreliable.
            self._result_q = self._ctx.SimpleQueue()
        self._workers = [w for w in self._workers if w.is_alive()]
        while len(self._workers) < self.jobs:
            self._spawn()

    def _spawn(self) -> None:
        # Fork after the parent's resource tracker runs, so workers share
        # it: a worker's attach to a result table then registers with the
        # tracker the parent's unlink unregisters from.
        resource_tracker.ensure_running()
        worker = self._ctx.Process(
            target=_pool_worker, args=(self._task_q, self._result_q),
            daemon=True)
        worker.start()
        self._workers.append(worker)
        self.forks += 1

    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.is_alive())

    def close(self) -> None:
        """Stop the workers and drop the queues (idempotent)."""
        with self._lock:
            if self._task_q is not None:
                for _ in self._workers:
                    try:
                        self._task_q.put(("stop",))
                    except Exception:
                        pass
            deadline = time.monotonic() + 2.0
            for worker in self._workers:
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
                if worker.is_alive():
                    worker.terminate()
            if self._task_q is not None:
                self._task_q.close()
                self._task_q.cancel_join_thread()
            if self._result_q is not None:
                self._result_q.close()
            self._workers = []
            self._task_q = self._result_q = None
            self._closed = True

    # -- execution ---------------------------------------------------------
    def run(self, task: Callable[[Any], Any], items: Sequence[Any],
            chunk_size: Optional[int] = None,
            timeout: Optional[float] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            return_errors: bool = False) -> List[Any]:
        """Apply ``task`` to every item; results in item order.

        ``task`` must be picklable (a module-level callable or a
        picklable instance with ``__call__``). Per-item exceptions
        re-raise in the parent after the run drains (first item order
        wins); :class:`~repro.sim.experiments.SweepPointError` survives
        with its attribution intact. ``on_result(index, value)`` fires
        in the parent as each result lands (arrival order), which is
        what the control plane's streaming ingestion hooks into. With
        ``return_errors=True`` failed items come back as
        :class:`PoolItemError` placeholders instead of aborting the run
        (``on_result`` never fires for them).
        """
        items = list(items)
        if not items:
            return []
        with self._lock:
            return self._run_locked(task, items, chunk_size, timeout,
                                    on_result, return_errors)

    def _run_locked(self, task, items, chunk_size, timeout, on_result,
                    return_errors=False):
        self._ensure_workers()
        ctx_bytes = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        ctx_digest = hashlib.sha256(ctx_bytes).digest()
        n_fields = int(getattr(task, "shm_row_size", 0) or 0)
        table = (SharedRowTable.create(len(items), n_fields)
                 if n_fields > 0 else None)
        if chunk_size is None:
            chunk_size = max(1, -(-len(items) // (self.jobs * 4)))
        chunks: Dict[int, List[Tuple[int, Any]]] = {}
        for start in range(0, len(items), chunk_size):
            self._chunk_seq += 1
            chunks[self._chunk_seq] = [
                (slot, items[slot])
                for slot in range(start, min(start + chunk_size, len(items)))
            ]
        try:
            return self._collect(task, items, chunks, ctx_digest, ctx_bytes,
                                 table, n_fields, timeout, on_result,
                                 return_errors)
        finally:
            if table is not None:
                table.destroy()

    def _post(self, chunk_id, pairs, ctx_digest, ctx_bytes, table, n_fields):
        self._task_q.put(("chunk", chunk_id, ctx_digest, ctx_bytes, pairs,
                          table.name if table is not None else None, n_fields))
        self.chunks_dispatched += 1

    def _collect(self, task, items, chunks, ctx_digest, ctx_bytes, table,
                 n_fields, timeout, on_result, return_errors=False):
        results: List[Any] = [None] * len(items)
        done_slots = [False] * len(items)
        errors: Dict[int, Tuple[str, Any]] = {}
        outstanding = dict(chunks)
        claimed: Dict[int, int] = {}
        attempts: Dict[int, int] = {c: 1 for c in chunks}
        shm_slots: List[int] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        for chunk_id, pairs in chunks.items():
            self._post(chunk_id, pairs, ctx_digest, ctx_bytes, table,
                       n_fields)
        while outstanding:
            if deadline is not None and time.monotonic() > deadline:
                raise PoolError(
                    f"pool run timed out with {len(outstanding)} chunks "
                    f"outstanding")
            if not self._result_q._reader.poll(0.05):
                self._reap_dead(outstanding, claimed, attempts, ctx_digest,
                                ctx_bytes, table, n_fields)
                continue
            msg = self._result_q.get()
            kind = msg[0]
            if kind == "claim":
                _, chunk_id, pid = msg
                claimed[chunk_id] = pid
            elif kind == "chunkerr":
                _, chunk_id, pid, cause = msg
                raise PoolError(f"worker {pid} could not load the task "
                                f"context: {cause}")
            elif kind == "done":
                _, chunk_id, pid, out = msg
                if chunk_id not in outstanding:
                    continue  # duplicate after a conservative re-queue
                del outstanding[chunk_id]
                claimed.pop(chunk_id, None)
                for verdict in out:
                    tag, slot, payload = verdict
                    if done_slots[slot]:
                        continue
                    done_slots[slot] = True
                    if tag == "ok":
                        results[slot] = payload
                    elif tag == "okshm":
                        shm_slots.append(slot)
                    else:
                        errors[slot] = (tag, payload)
                    if on_result is not None and tag in ("ok", "okshm"):
                        value = results[slot]
                        if tag == "okshm":
                            value = task.decode_row(table.read_row(slot))
                            results[slot] = value
                        on_result(slot, value)
        for slot in shm_slots:
            if results[slot] is None:
                results[slot] = task.decode_row(table.read_row(slot))
        if errors:
            if return_errors:
                for slot, (tag, payload) in errors.items():
                    results[slot] = PoolItemError(tag, payload)
            else:
                slot = min(errors)
                tag, payload = errors[slot]
                if tag == "errsweep":
                    stage, point, cause = payload
                    raise SweepPointError(stage, point, cause)
                raise PoolError(f"task failed for item {items[slot]!r}: "
                                f"{payload}")
        return results

    def _reap_dead(self, outstanding, claimed, attempts, ctx_digest,
                   ctx_bytes, table, n_fields) -> None:
        """Re-queue chunks claimed by dead workers; fork replacements."""
        dead = [w for w in self._workers if not w.is_alive()]
        if not dead:
            return
        dead_pids = {w.pid for w in dead}
        self._workers = [w for w in self._workers if w.is_alive()]
        if not self.restart and not self._workers:
            raise PoolError("all pool workers died and restart is disabled")
        lost = [cid for cid, pid in claimed.items()
                if pid in dead_pids and cid in outstanding]
        for chunk_id in lost:
            attempts[chunk_id] += 1
            if attempts[chunk_id] > self.max_chunk_retries:
                raise PoolError(
                    f"chunk {chunk_id} crashed its worker "
                    f"{self.max_chunk_retries} times; giving up")
            claimed.pop(chunk_id, None)
            self._post(chunk_id, outstanding[chunk_id], ctx_digest,
                       ctx_bytes, table, n_fields)
        if self.restart:
            while len(self._workers) < self.jobs:
                self._spawn()
                self.restarts += 1


#: Shared persistent pools, one per worker count; reused across sweeps,
#: fleet waves, and benchmark trials so the fork cost is paid once.
_POOLS: Dict[int, PersistentPool] = {}


def get_pool(jobs: int) -> PersistentPool:
    """The shared :class:`PersistentPool` for ``jobs`` workers."""
    pool = _POOLS.get(jobs)
    if pool is None or pool._closed:
        pool = PersistentPool(jobs)
        _POOLS[jobs] = pool
    return pool


def shutdown_pools() -> None:
    """Close every shared pool (atexit hook; also handy in tests)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def portable(task: Any) -> bool:
    """Whether ``task`` pickles, which the persistent pool needs to ship
    it to its workers (see the portability rule in the module
    docstring)."""
    try:
        pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def _run_or_error(sweep: Sweep, point: Dict[str, Any]) -> Any:
    try:
        return sweep.run_point(point)
    except SweepPointError as exc:
        return exc


def _execute_points(sweep: Sweep, points: List[Dict[str, Any]], jobs: int,
                    strategy: str = "auto") -> List[Any]:
    """One outcome per point, in order: its row, or the exception that
    failed it (a :class:`~repro.sim.experiments.SweepPointError`).

    ``auto`` uses the persistent pool when ``jobs > 1``, ``fork`` is
    available, there is more than one point and the sweep is portable;
    otherwise it runs the points in-process. ``persistent`` raises
    :class:`PoolError` instead of falling back when there is work and
    the sweep does not pickle; ``serial`` never uses the pool. Every
    point runs either way, so a failure does not cost the other rows.
    """
    if strategy not in ("auto", "persistent", "serial"):
        raise ReproError(f"unknown pool strategy {strategy!r}")
    if not points:
        return []
    if strategy == "persistent" and not _fork_available():
        raise PoolError("persistent pool needs the fork start method")
    pooled = (strategy != "serial" and jobs > 1 and len(points) > 1
              and _fork_available())
    if pooled and not portable(sweep):
        if strategy == "persistent":
            raise PoolError(
                "sweep is not portable (closures in build/metrics); the "
                "persistent pool needs picklable callables")
        pooled = False
    if not pooled:
        return [_run_or_error(sweep, point) for point in points]
    outcomes = get_pool(jobs).run(sweep.run_point, points,
                                  return_errors=True)
    return [out.to_exception(point) if isinstance(out, PoolItemError)
            else out for out, point in zip(outcomes, points)]


def run_sweep(sweep: Sweep, jobs: int = 1, cache: Any = None,
              strategy: str = "auto") -> List[Dict[str, Any]]:
    """Execute a sweep grid across ``jobs`` workers, through ``cache``.

    Returns the same row list, in the same order, as ``sweep.run()``.
    Every point runs and every row that succeeds is cached; then the
    first (grid-order) failing point raises its
    :class:`~repro.sim.experiments.SweepPointError`. ``strategy`` is
    ``auto`` (the persistent pool for portable sweeps, else in-process),
    ``persistent`` (the pool or :class:`PoolError`), or ``serial``.
    """
    cache = _normalize_cache(cache)
    points = sweep.points()
    rows: List[Optional[Dict[str, Any]]] = [None] * len(points)
    keys: Dict[int, str] = {}
    pending: List[int] = []
    if cache is not None:
        fingerprint = sweep_fingerprint(sweep)
        for idx, point in enumerate(points):
            key = cache.key_for(fingerprint, point)
            keys[idx] = key
            cached = cache.get(key)
            if cached is not None:
                rows[idx] = cached
            else:
                pending.append(idx)
    else:
        pending = list(range(len(points)))

    outcomes = _execute_points(sweep, [points[i] for i in pending], jobs,
                               strategy)
    failure: Optional[Exception] = None
    for idx, outcome in zip(pending, outcomes):
        if isinstance(outcome, Exception):
            failure = failure or outcome
            continue
        rows[idx] = outcome
        if cache is not None:
            cache.put(keys[idx], outcome)
    if failure is not None:
        raise failure
    return rows  # type: ignore[return-value]
