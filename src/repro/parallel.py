"""Multi-process sharded execution of the SMP prefilter.

The prefilter is embarrassingly parallel across *documents*: each filter
session is isolated state over one document, and compiled plans are shared,
hashable and rebuildable from their (DTD, paths, backend) key through the
plan cache.  This module shards a multi-document workload across a
persistent pool of worker processes:

* :class:`EngineSpec` -- a picklable description of an engine.  Workers
  rebuild the engine once, at startup, through the existing plan cache
  (under the ``fork`` start method the parent's compiled tables are
  inherited for free; under ``spawn`` the spec is pickled and recompiled).
* :class:`WorkerPool` -- ``jobs`` persistent worker processes, each with
  its own task queue (sticky routing for serving sessions) and a shared
  result pipe drained by a collector thread that resolves
  :class:`concurrent.futures.Future` objects in the parent.
* :func:`execute_corpus` -- the corpus driver: submits one task per
  document (bounded in-flight, so record-split corpora stream), and yields
  per-document outcomes **in corpus order** regardless of completion order
  -- the order-preserving merge that makes parallel output byte-identical
  to sequential execution.
* :class:`RemoteSession` -- a streaming filter session living inside a
  worker process (``feed``/``finish`` block on the worker's reply).  The
  asyncio bridge (:func:`repro.aio.serve` with ``workers=N``) dispatches
  these through ``run_in_executor`` so the CPU work leaves the event loop.

Inside each worker, document ingestion runs the zero-copy path: one
recycled :class:`~repro.core.sources.BufferPool` buffer per worker is
filled via ``readinto`` and fed borrowed to the byte-native session.  A
record stream already in memory is not shipped at all: its records cross
the process boundary as ``("span", start, end)`` offsets, and the workers,
forked with the stream as a ``Process`` argument, read each record from
their inherited copy (see :func:`execute_corpus`).

The user-facing surface is :class:`repro.api.Engine` with
``mode="parallel"`` (and ``python -m repro --jobs N``); this module is the
machinery underneath.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import pickle
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import multiprocessing
from multiprocessing.reduction import ForkingPickler

from repro import faults
from repro.core.sources import BufferPool, RetryPolicy, is_transient
from repro.core.stats import RunStatistics
from repro.dtd.model import Dtd
from repro.errors import QueryError, ReproError

__all__ = [
    "DocumentFailure",
    "DocumentOutcome",
    "EngineSpec",
    "ParallelExecutionError",
    "RemoteSession",
    "WorkerPool",
    "default_jobs",
    "execute_corpus",
]

#: Worker command tags (first tuple element of a task-queue message).
_DOC = "doc"
_OPEN = "open"
_FEED = "feed"
_FINISH = "finish"
_CLOSE = "close"

#: How many documents may be in flight per worker before the corpus driver
#: waits for the oldest one -- bounds memory when sharding a record-split
#: stream whose blobs live in the task queue.
_PENDING_PER_WORKER = 4

#: Grace period between teardown escalation steps (``terminate`` has been
#: sent / ``kill`` has been sent -> how long to wait for the exit).
_KILL_GRACE = 5.0


def default_jobs() -> int:
    """The default worker count: the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return max(1, os.cpu_count() or 1)


class ParallelExecutionError(ReproError):
    """A sharded run failed; names the failing document.

    ``document`` is the failing path (or record name), ``original`` the
    worker-side exception when it could be pickled back (also attached as
    ``__cause__``), and ``worker_traceback`` the worker's formatted
    traceback for post-mortem logging.  ``transient`` marks failures a
    resubmission could clear -- a worker that died mid-task, an expired
    per-document deadline, or a transient I/O error
    (:func:`repro.core.sources.is_transient`) -- as opposed to a poisoned
    document that will fail the same way every time.  ``attempts`` counts
    how many times the document was tried when retry was enabled.
    """

    def __init__(
        self,
        message: str,
        *,
        document: str | None = None,
        original: BaseException | None = None,
        worker_traceback: str | None = None,
        transient: bool = False,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.document = document
        self.original = original
        self.worker_traceback = worker_traceback
        self.transient = transient
        self.attempts = attempts


# ----------------------------------------------------------------------
# Engine specification (what crosses the process boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _QuerySpec:
    """One query of an :class:`EngineSpec`, in plan-cache key terms."""

    paths: tuple[str, ...]
    backend: str
    add_default_paths: bool
    label: str


@dataclass(frozen=True)
class EngineSpec:
    """A picklable engine description rebuilt via the shared plan cache.

    Captures exactly the plan-cache key of every query (paths, backend,
    default-path flag) plus the DTD, so a worker's :meth:`build` resolves
    to one compilation per distinct query per process -- prebuilt plans are
    re-derived from their compiled path set rather than shipped.
    """

    dtd: Dtd
    queries: tuple[_QuerySpec, ...]
    mode: str = "auto"

    @classmethod
    def from_engine(cls, engine) -> "EngineSpec":
        """The spec of a :class:`repro.api.Engine` (any mode)."""
        specs = []
        for query in engine.queries:
            if query._prebuilt is not None:
                plan = query._prebuilt
                specs.append(_QuerySpec(
                    paths=tuple(str(path) for path in plan.paths),
                    backend=plan.backend,
                    add_default_paths=False,
                    label=query.label,
                ))
            else:
                specs.append(_QuerySpec(
                    paths=query.paths,
                    backend=query.backend,
                    add_default_paths=query.add_default_paths,
                    label=query.label,
                ))
        mode = engine.mode if engine.mode in ("search", "shared") else "auto"
        return cls(dtd=engine.dtd, queries=tuple(specs), mode=mode)

    def build(self):
        """Compile the engine in this process (plans come from the cache)."""
        from repro import api

        return api.Engine(
            [
                api.Query.from_paths(
                    self.dtd,
                    spec.paths,
                    backend=spec.backend,
                    add_default_paths=spec.add_default_paths,
                    label=spec.label,
                )
                for spec in self.queries
            ],
            mode=self.mode,
        )

    @property
    def labels(self) -> list[str]:
        return [spec.label for spec in self.queries]


# ----------------------------------------------------------------------
# Per-document results
# ----------------------------------------------------------------------
@dataclass
class DocumentFailure:
    """One quarantined document of a corpus run (``on_error != "raise"``).

    ``name`` is the document path or record name, ``attempts`` how many
    times it was tried (retry included), and ``error`` the final
    :class:`ParallelExecutionError` -- its ``original``/``worker_traceback``
    carry the root cause.
    """

    index: int
    name: str
    attempts: int
    error: ParallelExecutionError

    @property
    def cause(self) -> BaseException:
        """The most specific exception available for this failure."""
        return self.error.original or self.error


@dataclass
class DocumentOutcome:
    """One document's share of a corpus run, in worker-neutral terms.

    ``failure`` is set (and ``outputs``/``stats`` are empty) when the
    document was quarantined under ``on_error="collect"``.
    """

    index: int
    name: str
    outputs: list[bytes]
    stats: list[RunStatistics]
    scan_stats: RunStatistics | None = None
    failure: DocumentFailure | None = None


def _document_payload_source(payload, pools: dict[int, BufferPool], buffer):
    """Resolve a picklable document descriptor to a :class:`repro.api.Source`.

    Path documents are read with the chunk size their corpus source
    recorded in the payload, through a recycled buffer pool of exactly
    that size (one pool per distinct chunk size per worker).  Span
    documents are a window on ``buffer``, the record stream they index.
    """
    from repro import api

    kind = payload[0]
    if kind == "path":
        _, path, chunk_size = payload
        pool = pools.get(chunk_size)
        if pool is None:
            pool = pools[chunk_size] = BufferPool(chunk_size, capacity=2)
        return api.Source.from_file(path, chunk_size=chunk_size, pool=pool)
    if kind == "blob":
        return api.Source.from_bytes(payload[1])
    if kind == "span":
        return api.Source.from_bytes(_span_view(payload, buffer))
    raise ReproError(f"unknown document payload kind {kind!r}")


def _span_view(payload, buffer) -> memoryview:
    """The record a ``("span", start, end)`` payload names, in place."""
    if buffer is None:
        raise ReproError(
            "a span payload indexes an in-memory record stream; run "
            "Source.from_records corpora through Engine.run"
        )
    _, start, end = payload
    return memoryview(buffer)[start:end]


def _shippable(payload, buffer, pool: "WorkerPool"):
    """``payload`` in a form ``pool``'s workers can resolve.

    Workers forked with ``buffer`` read a span in place; for any other
    pool (a non-``fork`` start method, a borrowed pool built without the
    stream) this is the one place a span is copied into a blob.
    """
    if payload[0] != "span" or (buffer is not None
                                and pool._buffer is buffer):
        return payload
    return ("blob", _span_view(payload, buffer).tobytes())


def _run_document(engine, payload, pools: dict[int, BufferPool], buffer):
    """Filter one document; returns the (outputs, stats, scan_stats) triple."""
    source = _document_payload_source(payload, pools, buffer)
    run = engine.run(source, binary=True)
    return (
        [result.output for result in run.results],
        [result.stats for result in run.results],
        run.scan_stats,
    )


def _describe_error(error: BaseException):
    """A picklable description of a worker-side failure."""
    text = traceback.format_exc()
    transient = is_transient(error)
    try:
        pickle.dumps(error)
    except Exception:
        return (None, f"{type(error).__name__}: {error}", text, transient)
    return (error, str(error), text, transient)


def _worker_error(description) -> ParallelExecutionError:
    """Rebuild a worker-side failure description as a raisable error."""
    original, message, worker_traceback, transient = description
    error = ParallelExecutionError(
        message,
        original=original,
        worker_traceback=worker_traceback,
        transient=transient,
    )
    if original is not None:
        error.__cause__ = original
    return error


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(spec: EngineSpec, tasks, results,
                 fault_plan=None, worker_uid: int = 0, buffer=None) -> None:
    """Worker loop: build the engine once, execute commands until sentinel.

    ``fault_plan`` is the :class:`repro.faults.FaultPlan` armed in the
    parent when the pool was created (``None`` in production): armed here
    with a per-worker scope so every worker -- including respawned ones,
    which get a fresh ``worker_uid`` -- draws its own deterministic fault
    sequence.  ``buffer`` is the record stream span payloads index,
    inherited at fork.
    """
    if fault_plan is not None:
        faults.arm(fault_plan, scope=f"worker-{worker_uid}")
    engine = spec.build()
    pools: dict[int, BufferPool] = {}
    sessions: dict = {}
    while True:
        command = tasks.get()
        if command is None:
            break
        kind = command[0]
        if kind == _DOC and fault_plan is not None:
            faults.worker_chaos()
        try:
            if kind == _DOC:
                _, request_id, name, payload = command
                results.put((request_id, True, _run_document(
                    engine, payload, pools, buffer
                )))
            elif kind == _OPEN:
                _, request_id, session_id, binary = command
                sessions[session_id] = engine.open(binary=binary)
                results.put((request_id, True, None))
            elif kind == _FEED:
                _, request_id, session_id, chunk = command
                results.put((request_id, True, sessions[session_id].feed(chunk)))
            elif kind == _FINISH:
                _, request_id, session_id = command
                session = sessions.pop(session_id)
                outputs = session.finish()
                results.put((request_id, True, (outputs, session.stats,
                                                session.scan_stats)))
            elif kind == _CLOSE:
                session = sessions.pop(command[1], None)
                if session is not None:
                    session.close()
        except BaseException as error:  # noqa: BLE001 - shipped to the caller
            if kind == _DOC or kind == _FEED or kind == _FINISH or kind == _OPEN:
                results.put((command[1], False, _describe_error(error)))


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class _ResultPipe:
    """The one channel all workers send their replies up to the collector.

    Unlike a ``multiprocessing.Queue`` it has no feeder thread: the sending
    thread pickles and writes each message whole, under the lock, before it
    goes on.  So a worker that dies between commands (an injected crash, a
    segfault in its next document) never leaves the shared lock held or a
    message half written, which would stall every other worker's replies;
    and a reply leaves as soon as it is ready, not when a feeder thread
    next wins the GIL from the worker's next document.
    """

    def __init__(self, context) -> None:
        self._reader, self._writer = context.Pipe(duplex=False)
        self._lock = context.Lock()

    def put(self, message) -> None:
        data = ForkingPickler.dumps(message)
        with self._lock:
            self._writer.send_bytes(data)

    def wake(self) -> None:
        """Send the reader a ``None``, once every worker has exited.

        Without the lock: no writer is left to interleave with, and a
        worker killed mid-write may have left the lock held.
        """
        self._writer.send_bytes(ForkingPickler.dumps(None))

    def get(self, timeout: float):
        """The next message; ``queue.Empty`` after ``timeout`` seconds."""
        if not self._reader.poll(timeout):
            raise queue.Empty
        return ForkingPickler.loads(self._reader.recv_bytes())

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("identifier", "uid", "process", "tasks", "outstanding",
                 "sessions")

    def __init__(self, identifier: int, uid: int, process, tasks) -> None:
        self.identifier = identifier
        self.uid = uid
        self.process = process
        self.tasks = tasks
        self.outstanding: set[int] = set()
        self.sessions: int = 0


class WorkerPool:
    """A persistent, supervised pool of filter worker processes.

    Each worker holds the compiled engine once and executes whole-document
    tasks (:meth:`submit_document`) or long-lived streaming sessions
    (:meth:`open_session`).  One task queue per worker gives sticky routing
    (a session's commands always reach its worker, in order); one shared
    result pipe feeds a collector thread that resolves the returned
    futures.  Use as a context manager, or call :meth:`close` /
    :meth:`terminate`.

    **Supervision** (``supervise=True``, the default): a worker that dies
    mid-task -- crash, OOM kill, injected fault -- is detected by the
    collector's liveness pass, its in-flight futures fail with a
    *transient* :class:`ParallelExecutionError` (so :func:`execute_corpus`
    can resubmit under a :class:`~repro.core.sources.RetryPolicy`), and a
    replacement process is spawned into the same slot so the pool never
    shrinks.  Streaming sessions are worker-resident state and cannot be
    transparently replayed: their commands fail with a transient error and
    the caller re-opens.  Teardown escalates ``join(timeout)`` →
    ``terminate()`` → ``kill()`` so a hung worker (even one ignoring
    ``SIGTERM``) can never leak past :meth:`close`/:meth:`terminate`.
    """

    def __init__(
        self,
        engine,
        jobs: int,
        *,
        start_method: str | None = None,
        supervise: bool = True,
        shutdown_timeout: float = 30.0,
        _buffer=None,
    ) -> None:
        if jobs < 1:
            raise QueryError(f"a worker pool needs jobs >= 1, got {jobs}")
        spec = engine if isinstance(engine, EngineSpec) \
            else EngineSpec.from_engine(engine)
        self.spec = spec
        self.jobs = jobs
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(start_method)
        # The record stream span payloads index: a Process argument, which
        # fork hands every worker (respawned ones too) without pickling.
        # Other start methods would pickle it per worker, so their pools go
        # without and receive spans as blobs.
        self._buffer = _buffer if start_method == "fork" else None
        self._results = _ResultPipe(self._context)
        self._lock = threading.Lock()
        self._futures: dict[int, tuple] = {}
        self._request_ids = itertools.count()
        self._session_ids = itertools.count()
        self._worker_uids = itertools.count()
        self._supervise = supervise
        self._shutdown_timeout = shutdown_timeout
        self._fault_plan = faults.active()
        self._retired_queues: list = []
        self._closed = False
        self._workers: list[_Worker] = []
        for identifier in range(jobs):
            self._workers.append(self._spawn(identifier))
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-pool-collector"
        )
        self._collector.start()

    def _spawn(self, identifier: int) -> _Worker:
        """Start one worker process for slot ``identifier``."""
        uid = next(self._worker_uids)
        tasks = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(self.spec, tasks, self._results, self._fault_plan, uid,
                  self._buffer),
            daemon=True,
            name=f"repro-filter-worker-{identifier}",
        )
        process.start()
        return _Worker(identifier, uid, process, tasks)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, worker: _Worker, build_command: Callable[[int], tuple],
                  *, sticky: bool = False):
        future = concurrent.futures.Future()
        with self._lock:
            if self._closed:
                raise ReproError("the worker pool is closed")
            current = self._workers[worker.identifier]
            if worker is not current or not worker.process.is_alive():
                if sticky or not self._supervise:
                    raise ParallelExecutionError(
                        f"worker {worker.identifier} died unexpectedly",
                        transient=True,
                    )
                # Supervised stateless dispatch: route to the slot's current
                # worker.  It may itself be dead (not yet repaired) -- the
                # liveness pass then fails the future as transient and the
                # corpus driver resubmits.
                worker = current
            request_id = next(self._request_ids)
            self._futures[request_id] = (future, worker)
            worker.outstanding.add(request_id)
        worker.tasks.put(build_command(request_id))
        return future

    def submit_document(self, name: str, payload):
        """Queue one document; returns a Future of the worker triple.

        Documents go to the worker with the fewest outstanding tasks, so a
        skewed corpus (one huge document) does not idle the other workers.
        """
        with self._lock:
            worker = min(self._workers, key=lambda w: len(w.outstanding))
        if self._supervise and not worker.process.is_alive():
            # Repair eagerly instead of queueing onto a corpse.
            self._check_liveness()
            with self._lock:
                worker = min(self._workers, key=lambda w: len(w.outstanding))
        return self._dispatch(
            worker, lambda request_id: (_DOC, request_id, name, payload)
        )

    def open_session(self, *, binary: bool = True) -> "RemoteSession":
        """Open a streaming filter session inside the least-loaded worker."""
        if self._supervise:
            with self._lock:
                repair = any(
                    not worker.process.is_alive() for worker in self._workers
                )
            if repair:
                self._check_liveness()
        with self._lock:
            worker = min(self._workers, key=lambda w: w.sessions)
            worker.sessions += 1
            session_id = next(self._session_ids)
        try:
            future = self._dispatch(
                worker,
                lambda request_id: (_OPEN, request_id, session_id, binary),
            )
            future.result()
        except BaseException:
            # A failed open must not skew least-loaded routing forever.
            with self._lock:
                worker.sessions -= 1
            raise
        return RemoteSession(self, worker, session_id, self.spec.labels)

    def abandon(self, future) -> bool:
        """Kill the worker holding ``future``'s request (deadline expiry).

        The worker is presumed hung, so it is SIGKILLed outright; the
        liveness pass fails its in-flight futures with a transient error
        and (under supervision) spawns a replacement into the slot.
        Returns ``False`` when the future was no longer in flight --
        i.e. it completed in the race window and nothing was killed.
        """
        with self._lock:
            worker = None
            for entry in self._futures.values():
                if entry[0] is future:
                    worker = entry[1]
                    break
        if worker is None:
            return False
        process = worker.process
        if process.is_alive():
            process.kill()
            process.join(timeout=_KILL_GRACE)
        self._check_liveness()
        return True

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            try:
                message = self._results.get(timeout=0.2)
            except queue.Empty:
                if self._check_liveness():
                    return
                continue
            if message is None:
                return
            request_id, ok, value = message
            with self._lock:
                entry = self._futures.pop(request_id, None)
                if entry is not None:
                    entry[1].outstanding.discard(request_id)
            if entry is None:
                continue
            future = entry[0]
            if ok:
                future.set_result(value)
            else:
                future.set_exception(_worker_error(value))

    def _check_liveness(self) -> bool:
        """Repair dead workers; returns True when collection is done.

        A dead worker's in-flight futures fail with a *transient*
        :class:`ParallelExecutionError` (the task may simply not have been
        attempted); under supervision a replacement process is spawned into
        the slot so pool capacity is restored.  The dead worker's task
        queue is retired, not closed: a racing dispatch may still hold a
        reference, and its items are abandoned with the dead worker anyway
        (every affected future is failed here).
        """
        with self._lock:
            if self._closed and not self._futures:
                return True
            dead: list[tuple] = []
            for slot, worker in enumerate(self._workers):
                if worker.process.is_alive():
                    continue
                for request_id in list(worker.outstanding):
                    entry = self._futures.pop(request_id, None)
                    if entry is not None:
                        dead.append((entry[0], worker.identifier))
                worker.outstanding.clear()
                if self._supervise and not self._closed:
                    self._retired_queues.append(worker.tasks)
                    self._workers[slot] = self._spawn(worker.identifier)
        for future, identifier in dead:
            future.set_exception(ParallelExecutionError(
                f"worker {identifier} died before finishing its task "
                "(killed or crashed hard)",
                transient=True,
            ))
        return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop the workers (waits for queued tasks to finish).

        Workers get the shutdown sentinel and ``shutdown_timeout`` seconds
        to drain; whatever is still alive is escalated ``terminate()`` →
        ``kill()``, so a hung worker (a blocked ``feed``, a masked
        ``SIGTERM``) can delay shutdown but never prevent it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            worker.tasks.put(None)
        self._escalate(self._shutdown_timeout)
        self._results.wake()
        self._collector.join(timeout=5)
        self._fail_outstanding("the worker pool was closed")
        self._release_queues()

    def terminate(self) -> None:
        """Kill the workers immediately (queued tasks are abandoned).

        ``terminate()`` (SIGTERM) is escalated to ``kill()`` (SIGKILL) for
        any worker that does not exit within the shutdown timeout.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._escalate(0.0)
        self._results.wake()
        self._collector.join(timeout=5)
        self._fail_outstanding("the worker pool was terminated")
        self._release_queues()

    def _escalate(self, join_timeout: float) -> None:
        """``join(timeout)`` → ``terminate()`` → ``kill()`` the workers."""
        if join_timeout > 0:
            deadline = time.monotonic() + join_timeout
            for worker in self._workers:
                remaining = deadline - time.monotonic()
                worker.process.join(timeout=max(0.0, remaining))
        stubborn = [w for w in self._workers if w.process.is_alive()]
        for worker in stubborn:
            worker.process.terminate()
        grace = min(self._shutdown_timeout, _KILL_GRACE)
        deadline = time.monotonic() + max(0.1, grace)
        for worker in stubborn:
            remaining = deadline - time.monotonic()
            worker.process.join(timeout=max(0.0, remaining))
        hardened = [w for w in stubborn if w.process.is_alive()]
        for worker in hardened:
            worker.process.kill()
        for worker in hardened:
            worker.process.join(timeout=_KILL_GRACE)

    def _release_queues(self) -> None:
        """Close the queues without joining their feeder threads.

        A task queue may still buffer items whose worker is gone (a killed
        pool, a crashed worker); its feeder thread then blocks forever on
        the full pipe, and the default exit-time ``join_thread`` would hang
        interpreter shutdown on it.  The data is intentionally abandoned --
        every affected future was already failed.
        """
        for tasks in self._retired_queues:
            tasks.close()
            tasks.cancel_join_thread()
        self._retired_queues.clear()
        for worker in self._workers:
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
        self._results.close()

    def _fail_outstanding(self, reason: str) -> None:
        with self._lock:
            entries = list(self._futures.values())
            self._futures.clear()
            for worker in self._workers:
                worker.outstanding.clear()
        for future, _worker in entries:
            if not future.done():
                future.set_exception(ParallelExecutionError(reason))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()


# ----------------------------------------------------------------------
# Remote streaming sessions (the serving bridge's worker mode)
# ----------------------------------------------------------------------
class RemoteSession:
    """A filter session running inside a worker process.

    ``feed``/``finish`` block until the worker replied (dispatch them
    through ``run_in_executor`` from asyncio); commands of one session are
    routed to one worker in order, so per-session output ordering is
    exactly that of an in-process session.
    """

    def __init__(self, pool: WorkerPool, worker: _Worker, session_id: int,
                 labels: list[str]) -> None:
        self._pool = pool
        self._worker = worker
        self._session_id = session_id
        self.labels = list(labels)
        self._open = True

    def feed(self, chunk) -> list:
        """Process one chunk in the worker; returns per-query new output."""
        chunk = bytes(chunk) if isinstance(chunk, (bytearray, memoryview)) \
            else chunk
        future = self._pool._dispatch(
            self._worker,
            lambda request_id: (_FEED, request_id, self._session_id, chunk),
            sticky=True,
        )
        return future.result()

    def finish(self) -> list:
        """Finish in the worker; returns the remaining per-query output."""
        future = self._pool._dispatch(
            self._worker,
            lambda request_id: (_FINISH, request_id, self._session_id),
            sticky=True,
        )
        outputs, self.stats, self.scan_stats = future.result()
        self._open = False
        with self._pool._lock:
            self._worker.sessions -= 1
        return outputs

    def close(self) -> None:
        """Drop the worker-side session (idempotent; no reply expected)."""
        if not self._open:
            return
        self._open = False
        with self._pool._lock:
            self._worker.sessions -= 1
            closed = self._pool._closed
        if not closed and self._worker.process.is_alive():
            self._worker.tasks.put((_CLOSE, self._session_id))


# ----------------------------------------------------------------------
# Corpus execution
# ----------------------------------------------------------------------
_ON_ERROR_POLICIES = ("raise", "skip", "collect")


def _check_on_error(on_error: str) -> None:
    if on_error not in _ON_ERROR_POLICIES:
        raise QueryError(
            f"on_error must be one of {_ON_ERROR_POLICIES}, got {on_error!r}"
        )


def execute_corpus(
    engine,
    documents: Iterable[tuple[str, tuple]],
    *,
    jobs: int,
    pool: WorkerPool | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
    deadline: float | None = None,
    _buffer=None,
) -> Iterator[DocumentOutcome]:
    """Shard ``documents`` across ``jobs`` workers; yield outcomes in order.

    ``documents`` yields ``(name, payload)`` work items (see
    ``Source.documents``); ``("span", start, end)`` payloads index the
    in-memory record stream :meth:`repro.api.Engine.run` passes along
    privately.  An owned pool's forked workers inherit that stream and
    read spans in place; a borrowed ``pool`` built without it, or one
    whose workers were not forked, gets each span copied into a blob as
    it is submitted.  Results are yielded strictly in corpus order --
    a late-finishing early document holds back later ones (the
    order-preserving merge) -- while submission stays ahead by a bounded
    in-flight window, so workers never idle waiting for the merge.

    Fault tolerance:

    ``retry``
        A :class:`~repro.core.sources.RetryPolicy`: a document whose
        failure is *transient* (its worker died, its deadline expired, or
        the underlying error is retryable I/O) is resubmitted after the
        policy's backoff, up to ``retry.retries`` times.  Resubmission
        happens at the head of the merge, so corpus order -- and therefore
        byte-identity with a sequential run -- is preserved.
    ``on_error``
        What to do with a document that (still) fails: ``"raise"`` aborts
        the run (the default, and the pre-fault-tolerance behavior);
        ``"skip"`` drops it silently; ``"collect"`` yields a
        :class:`DocumentOutcome` whose ``failure`` field quarantines the
        document (path, attempts, cause) while the run continues.
    ``deadline``
        Per-document wall-clock budget in seconds.  An expired document's
        worker is presumed hung and killed (SIGKILL -- it may be ignoring
        ``SIGTERM``), the slot is respawned, and the document is treated
        as a transient failure (so ``retry`` applies).  Ignored by the
        in-process ``jobs=1`` path, which has no worker to kill.

    ``jobs=1`` (without an explicit ``pool``) runs everything in-process:
    no worker processes, no pickling -- the sequential baseline with the
    same merge semantics.  A failing document raises
    :class:`ParallelExecutionError` naming it, whatever the mode.
    """
    _check_on_error(on_error)
    if pool is None and jobs <= 1:
        yield from _execute_in_process(
            engine, documents, retry=retry, on_error=on_error,
            buffer=_buffer,
        )
        return
    owned = pool is None
    if owned:
        pool = WorkerPool(engine, jobs, _buffer=_buffer)
    try:
        # Entries are [index, name, payload, future, attempts]; the payload
        # is kept so a transient failure can be resubmitted.
        pending: deque[list] = deque()
        limit = max(2, pool.jobs * _PENDING_PER_WORKER)
        iterator = enumerate(documents)
        exhausted = False
        while True:
            while not exhausted and len(pending) < limit:
                try:
                    index, (name, payload) = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                payload = _shippable(payload, _buffer, pool)
                pending.append(
                    [index, name, payload,
                     pool.submit_document(name, payload), 1]
                )
            if not pending:
                break
            entry = pending.popleft()
            index, name, payload = entry[0], entry[1], entry[2]
            outcome = error = None
            while True:
                try:
                    outputs, stats, scan_stats = entry[3].result(
                        timeout=deadline
                    )
                    outcome = DocumentOutcome(
                        index=index, name=name, outputs=outputs,
                        stats=stats, scan_stats=scan_stats,
                    )
                    break
                except concurrent.futures.TimeoutError:
                    if not pool.abandon(entry[3]) and entry[3].done():
                        continue  # completed in the race window
                    error = ParallelExecutionError(
                        f"document {name!r} exceeded the {deadline} s "
                        "deadline (worker killed)",
                        document=name,
                        transient=True,
                    )
                except ParallelExecutionError as failure:
                    error = failure
                if (error.transient and retry is not None
                        and entry[4] <= retry.retries):
                    time.sleep(retry.delay(entry[4]))
                    entry[4] += 1
                    try:
                        entry[3] = pool.submit_document(name, payload)
                    except ParallelExecutionError as failure:
                        error = failure
                        break
                    continue
                break
            if outcome is not None:
                yield outcome
                continue
            error.attempts = entry[4]
            if on_error == "raise":
                if error.document is None:
                    error.document = name
                raise _named(error, name) from error.original
            if on_error == "collect":
                yield DocumentOutcome(
                    index=index, name=name, outputs=[], stats=[],
                    failure=DocumentFailure(
                        index=index, name=name, attempts=entry[4],
                        error=_named(error, name),
                    ),
                )
    except BaseException:
        # Errors and abandoned iteration must not wait for the queued rest
        # of the corpus; an owned pool is killed, a borrowed one is the
        # caller's to manage.
        if owned:
            pool.terminate()
        raise
    else:
        if owned:
            pool.close()


def _named(error: ParallelExecutionError, name: str) -> ParallelExecutionError:
    """The pool error re-raised with the failing document named."""
    if name in str(error):
        return error
    renamed = ParallelExecutionError(
        f"filtering {name!r} failed: {error.original or error}",
        document=name,
        original=error.original,
        worker_traceback=error.worker_traceback,
        transient=error.transient,
        attempts=error.attempts,
    )
    return renamed


def _execute_in_process(
    engine,
    documents,
    *,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
    buffer=None,
) -> Iterator[DocumentOutcome]:
    """The ``jobs=1`` fallback: same semantics, current process, no pickling."""
    _check_on_error(on_error)
    if isinstance(engine, EngineSpec):
        built = engine.build()
    elif engine.mode == "parallel":
        # A parallel-mode engine has no per-document sessions of its own;
        # rebuild it in an executable mode (plans come from the cache).
        built = EngineSpec.from_engine(engine).build()
    else:
        # The caller's engine already holds compiled plans: use it as is.
        built = engine
    pools: dict[int, BufferPool] = {}
    for index, (name, payload) in enumerate(documents):
        attempts = 1
        while True:
            try:
                outputs, stats, scan_stats = _run_document(
                    built, payload, pools, buffer
                )
                outcome = DocumentOutcome(
                    index=index, name=name, outputs=outputs, stats=stats,
                    scan_stats=scan_stats,
                )
                error = None
                break
            except Exception as raw:
                if (is_transient(raw) and retry is not None
                        and attempts <= retry.retries):
                    time.sleep(retry.delay(attempts))
                    attempts += 1
                    continue
                outcome = None
                if isinstance(raw, ParallelExecutionError):
                    error = raw
                else:
                    error = ParallelExecutionError(
                        f"filtering {name!r} failed: {raw}",
                        document=name,
                        original=raw,
                        transient=is_transient(raw),
                        attempts=attempts,
                    )
                    error.__cause__ = raw
                break
        if outcome is not None:
            yield outcome
            continue
        error.attempts = attempts
        if on_error == "raise":
            raise error from error.original
        if on_error == "collect":
            yield DocumentOutcome(
                index=index, name=name, outputs=[], stats=[],
                failure=DocumentFailure(
                    index=index, name=name, attempts=attempts, error=error,
                ),
            )
