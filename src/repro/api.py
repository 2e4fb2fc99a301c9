"""The unified dataflow API: Source → Query → Engine → Sink.

The entry point of the SMP prefilter, for every input kind and
every engine kind, built from four composable pieces:

* :class:`Source` — *where the bytes come from*: text, bytes, files, memory
  maps, stdin, sockets or arbitrary chunk iterables, with uniform
  chunk-size and UTF-8-alignment options (:mod:`repro.core.sources`
  underneath).
* :class:`Query` — *what to project*: an XPath expression or explicit
  projection paths plus the DTD and matcher options.  Hashable, and its
  compiled plan is shared through the existing
  :meth:`~repro.core.prefilter.SmpPrefilter.cached` plan cache.
* :class:`Engine` — one or more queries compiled into an executable plan.
  :meth:`Engine.open` returns a :class:`Session` (``feed``/``finish``/
  ``run``) that supports **live** :meth:`Session.attach` /
  :meth:`Session.detach` of queries mid-document on the shared-scan path.
* :class:`Sink` — *where the projection goes*: collecting buffers, files,
  callbacks or nothing, one per query (labelled) in multi-query runs.

One document, one query, zero to done::

    from repro import Dtd, api

    dtd = Dtd.parse(open("site.dtd").read())
    run = api.Engine(api.Query("//australia//description", dtd)).run(
        api.Source.from_file("site.xml")
    )
    print(run.single.output)

N queries over one shared byte scan, each streaming into its own file::

    engine = api.Engine([api.Query(q, dtd) for q in queries])
    engine.run(api.Source.from_mmap("site.xml"),
               sinks=[api.FileSink(f"out.{i}.xml") for i in range(len(queries))])

Live query management on an open stream::

    session = engine.open(live=True, binary=True)
    for chunk in chunks:
        session.feed(chunk)
        ...
    handle = session.attach(api.Query("//person//name", dtd))  # mid-document
    ...
    session.detach(handle)

The asyncio serving bridge (``await``-based sinks with backpressure and a
one-socket-in / N-labelled-streams-out server) lives in :mod:`repro.aio`.
Durable crash recovery is built in: :meth:`Session.checkpoint` captures a
live session into a :class:`repro.checkpoint.Checkpoint`,
``Engine.open(resume=...)`` restores one, and corpus runs journal merged
documents (``Engine.run(..., journal=path)``) so a killed run resumed with
the same journal skips completed documents with exactly-once output.
"""

from __future__ import annotations

import contextlib
import glob as _glob
import os
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, Union

from repro.checkpoint import (
    Checkpoint,
    CorpusJournal,
    query_fingerprint,
    read_checkpoint,
)
from repro.core.multi import MultiQueryEngine, MultiQuerySession
from repro.core.prefilter import FilterSession, SmpPrefilter
from repro.core.sources import (
    BufferPool,
    RetryPolicy,
    align_utf8_chunks,
    file_chunks,
    open_mmap,
    socket_chunks,
    split_documents,
    split_jsonl,
    split_spans,
    stdin_chunks,
)
from repro.core.stats import CompilationStatistics, RunStatistics
from repro.core.stream import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.dtd.model import Dtd
from repro.errors import CheckpointError, QueryError, ReproError
from repro.projection.extraction import QuerySpec, extract_paths_from_xpath
from repro.projection.paths import ProjectionPath

#: Matcher backend of the dataflow API (the wall-clock oriented choice; the
#: paper's ``"instrumented"`` configuration remains available per query).
DEFAULT_BACKEND = "native"

__all__ = [
    "DEFAULT_BACKEND",
    "CallbackSink",
    "Checkpoint",
    "CollectSink",
    "CorpusRun",
    "DocumentRun",
    "Engine",
    "EngineRun",
    "FileSink",
    "NullSink",
    "Query",
    "QueryHandle",
    "QueryResult",
    "RetryPolicy",
    "Session",
    "Sink",
    "Source",
]


# ----------------------------------------------------------------------
# Source
# ----------------------------------------------------------------------
class Source:
    """A uniform, resource-safe description of chunked document input.

    A source knows how to produce the document's chunks and how long the
    backing resource (file handle, memory map, socket) must stay alive:
    :meth:`open` returns a context manager yielding the chunk iterable, and
    the resource is released only when the context exits — *after* the
    consumer finished the document, so zero-copy windows (mmap) stay valid
    through ``Session.finish``.

    Construct sources through the ``from_*`` class methods (or
    :meth:`Source.of` to auto-dispatch on a raw value).  Sources over
    re-readable inputs (text, bytes, files, maps) may be opened any number
    of times; one-shot streams (stdin, sockets, iterables) raise
    :class:`~repro.errors.ReproError` on a second open.
    """

    #: True for multi-document corpus sources (``from_paths``/``from_dir``/
    #: ``from_records``), which are driven through :meth:`documents` by the
    #: parallel engine instead of :meth:`open`.
    corpus: bool = False

    def __init__(
        self,
        opener: Callable[[], "contextlib.AbstractContextManager[Iterable]"],
        *,
        kind: str,
        repeatable: bool = False,
    ) -> None:
        self._opener = opener
        self.kind = kind
        self.repeatable = repeatable
        self._consumed = False
        self._documents: Callable[[], Iterator] | None = None
        #: The in-memory stream of a ``from_bytes`` source, and of a
        #: ``from_records`` corpus over one (its span payloads index it).
        self._buffer = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Source(kind={self.kind!r}, repeatable={self.repeatable})"

    def open(self) -> "contextlib.AbstractContextManager[Iterable]":
        """A context manager yielding the chunk iterable.

        Resources backing the chunks are held until the context exits, so
        drive the session to completion (including ``finish``) inside it.
        """
        if self._consumed and not self.repeatable:
            raise ReproError(
                f"{self.kind} source was already consumed and cannot be "
                "re-opened"
            )
        self._consumed = True
        return self._opener()

    def chunks(self) -> Iterator:
        """The chunk stream, for consumers that manage no resources.

        Equivalent to iterating inside :meth:`open`; the backing resource
        is released when the iterator is exhausted or closed, so consumers
        that buffer chunk objects beyond the iteration (the mmap zero-copy
        window) must use :meth:`open` instead.
        """
        with self.open() as chunks:
            yield from chunks

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str, *, chunk_size: int | None = None) -> "Source":
        """A ``str`` document (the encode shim); one chunk unless sliced."""
        return cls(
            lambda: contextlib.nullcontext(_sliced(text, chunk_size)),
            kind="text",
            repeatable=True,
        )

    @classmethod
    def from_bytes(
        cls,
        data: "bytes | bytearray | memoryview",
        *,
        chunk_size: int | None = None,
        align_utf8: bool = False,
    ) -> "Source":
        """An in-memory UTF-8 byte document; one chunk unless sliced."""
        self = cls(
            lambda: contextlib.nullcontext(
                _aligned(_sliced(data, chunk_size), align_utf8)
            ),
            kind="bytes",
            repeatable=True,
        )
        self._buffer = data
        return self

    @classmethod
    def from_file(
        cls,
        path: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        align_utf8: bool = False,
        pool: "BufferPool | bool | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> "Source":
        """Binary ``chunk_size`` reads of the file at ``path`` (no decode).

        ``pool`` enables zero-copy buffer reuse: the file is read via
        ``readinto`` into recycled :class:`~repro.core.sources.BufferPool`
        buffers instead of allocating a fresh ``bytes`` per chunk.  Pass a
        pool to share buffers across sources, or ``True`` for a private
        pool sized to ``chunk_size``.  ``retry`` retries transient
        mid-stream I/O errors in place with backoff (a
        :class:`~repro.core.sources.RetryPolicy`); unrecoverable mid-stream
        errors surface as :class:`~repro.errors.SourceError`.
        """
        buffers = _resolve_pool(pool, chunk_size)
        return cls(
            lambda: contextlib.nullcontext(
                _aligned(file_chunks(path, chunk_size, pool=buffers,
                                     retry=retry),
                         align_utf8)
            ),
            kind="file",
            repeatable=True,
        )

    @classmethod
    def from_mmap(cls, path: str, *, chunk_size: int | None = None) -> "Source":
        """A memory-mapped document.

        With the default ``chunk_size=None`` the whole map is handed to the
        consumer as a single chunk: the matchers search the mapped pages
        directly and only projected slices are copied to the heap.  The map
        stays open for the lifetime of the :meth:`open` context.
        """

        @contextlib.contextmanager
        def opener():
            mapping = open_mmap(path)
            try:
                if chunk_size is None:
                    yield (mapping,)
                else:
                    yield (
                        mapping[start:start + chunk_size]
                        for start in range(0, len(mapping), chunk_size)
                    )
            finally:
                mapping.close()

        return cls(opener, kind="mmap", repeatable=True)

    @classmethod
    def from_stdin(
        cls,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        align_utf8: bool = False,
        pool: "BufferPool | bool | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> "Source":
        """The process's binary stdin (one-shot).

        ``pool`` reads via ``readinto`` into recycled buffers, ``retry``
        retries transient mid-stream I/O errors (see :meth:`from_file`).
        """
        buffers = _resolve_pool(pool, chunk_size)
        return cls(
            lambda: contextlib.nullcontext(
                _aligned(stdin_chunks(chunk_size, pool=buffers, retry=retry),
                         align_utf8)
            ),
            kind="stdin",
        )

    @classmethod
    def from_socket(
        cls,
        connection,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        align_utf8: bool = False,
        pool: "BufferPool | bool | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> "Source":
        """Chunks received from anything with ``recv`` (one-shot).

        ``pool`` receives via ``recv_into`` into recycled buffers (see
        :meth:`from_file`); connections without ``recv_into`` fall back to
        plain ``recv``.  ``retry`` retries transient receive errors
        (``ECONNRESET``/timeouts) in place; unrecoverable ones surface as
        :class:`~repro.errors.SourceError` with the byte offset reached.
        """
        buffers = _resolve_pool(pool, chunk_size)
        return cls(
            lambda: contextlib.nullcontext(
                _aligned(socket_chunks(connection, chunk_size, pool=buffers,
                                       retry=retry),
                         align_utf8)
            ),
            kind="socket",
        )

    @classmethod
    def from_iter(
        cls,
        chunks: "Iterable | IO[str] | IO[bytes]",
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        align_utf8: bool = False,
    ) -> "Source":
        """An iterable of chunks or a file-like object (one-shot).

        Whole strings/bytes are sliced, file objects read in ``chunk_size``
        pieces, iterables passed through as produced (see
        :func:`repro.core.stream.iter_chunks`).
        """
        return cls(
            lambda: contextlib.nullcontext(
                _aligned(iter_chunks(chunks, chunk_size), align_utf8)
            ),
            kind="iter",
        )

    # ------------------------------------------------------------------
    # Corpus constructors (multi-document workloads)
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        paths: Sequence[str],
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "Source":
        """A corpus of documents, one per file path, in the given order.

        Corpus sources feed multi-document engine runs -- most usefully
        ``Engine(mode="parallel", jobs=N)``, which shards the documents
        across worker processes; any other engine mode runs them
        sequentially.  The per-document output order is always the corpus
        order, whatever the execution mode.
        """
        path_list = [os.fspath(path) for path in paths]
        if not path_list:
            raise QueryError("a corpus needs at least one document path")

        def documents():
            for path in path_list:
                yield path, ("path", path, chunk_size)

        return cls._corpus(documents, kind="corpus-paths", repeatable=True)

    @classmethod
    def from_dir(
        cls,
        directory: str,
        *,
        pattern: str = "*.xml",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "Source":
        """A corpus of the files matching ``pattern`` under ``directory``.

        Matches are sorted, so the corpus (and therefore the merged output)
        is deterministic regardless of directory enumeration order.
        """
        matches = sorted(_glob.glob(os.path.join(os.fspath(directory), pattern)))
        if not matches:
            raise QueryError(
                f"no documents match {pattern!r} under {os.fspath(directory)!r}"
            )
        return cls.from_paths(matches, chunk_size=chunk_size)

    @classmethod
    def from_records(
        cls,
        source,
        *,
        end_tag: "bytes | str",
        chunk_size: int | None = None,
    ) -> "Source":
        """A corpus from one concatenated record stream (MEDLINE style).

        ``source`` (a :class:`Source` or any raw value :meth:`of`
        understands) carries many complete documents back to back; the
        stream is split at each ``end_tag`` (the records' closing root tag,
        e.g. ``b"</MedlineCitationSet>"``) into one document per record --
        the unit the parallel engine shards across workers.  One-shot
        unless the underlying source is repeatable.

        A stream already in memory (a bytes-like ``source`` or a
        :meth:`from_bytes` source) is split in place into ``("span",
        start, end)`` payloads: no record is copied, and the workers of a
        ``fork``-started parallel engine read each record straight from
        the stream they inherited.  Where a worker cannot see the stream
        (the ``spawn`` start method, a caller-supplied worker pool) a
        span is copied into a ``("blob", bytes)`` payload as it is
        submitted.  Every other source (text, files, iterables) is split
        into blobs as it is read.
        """
        raw = cls.of(source, chunk_size=chunk_size)
        buffer = raw._buffer

        if buffer is not None:
            def documents():
                spans = split_spans(buffer, end_tag)
                for index, (start, end) in enumerate(spans):
                    yield f"record[{index}]", ("span", start, end)
        else:
            def documents():
                with raw.open() as chunks:
                    blobs = split_documents(chunks, end_tag)
                    for index, blob in enumerate(blobs):
                        yield f"record[{index}]", ("blob", blob)

        corpus = cls._corpus(
            documents, kind="corpus-records", repeatable=raw.repeatable
        )
        corpus._buffer = buffer
        return corpus

    @classmethod
    def from_jsonl(
        cls,
        source,
        *,
        transform: Callable,
        chunk_size: int | None = None,
    ) -> "Source":
        """A corpus from a JSON-Lines stream, one record per line.

        ``transform`` maps each raw JSONL record (``bytes``, the line
        without its newline) to the XML document (``bytes`` or ``str``)
        the runtime filters — e.g.
        :func:`repro.workloads.json_records.json_record_to_xml`.  It runs
        in the parent process, so the workers of a parallel engine receive
        ready-made XML blobs and the callable need not be picklable.
        """
        raw = cls.of(source, chunk_size=chunk_size)

        def documents():
            with raw.open() as chunks:
                for index, line in enumerate(split_jsonl(chunks)):
                    blob = transform(line)
                    if isinstance(blob, str):
                        blob = blob.encode("utf-8")
                    yield f"jsonl[{index}]", ("blob", blob)

        return cls._corpus(
            documents, kind="corpus-jsonl", repeatable=raw.repeatable
        )

    @classmethod
    def _corpus(cls, documents: Callable[[], Iterator], *, kind: str,
                repeatable: bool) -> "Source":
        def opener():
            raise ReproError(
                f"{kind} sources hold many documents; run them through an "
                "Engine (e.g. mode='parallel') instead of opening a single "
                "chunk stream"
            )

        self = cls(opener, kind=kind, repeatable=repeatable)
        self.corpus = True
        self._documents = documents
        return self

    def documents(self) -> Iterator[tuple[str, tuple]]:
        """The corpus work items: ``(name, payload)`` per document.

        ``payload`` is the picklable descriptor the parallel workers
        resolve back to a per-document source: ``("path", path,
        chunk_size)`` for :meth:`from_paths`/:meth:`from_dir`, ``("span",
        start, end)`` for :meth:`from_records` over an in-memory stream
        (offsets into that stream, which the engine hands its workers;
        it falls back to a blob where a worker cannot see the stream) and
        ``("blob", bytes)`` for every other record or JSONL source.
        Non-corpus sources raise.
        """
        if self._documents is None:
            raise ReproError(f"{self.kind} source is not a corpus")
        if self._consumed and not self.repeatable:
            raise ReproError(
                f"{self.kind} source was already consumed and cannot be "
                "re-opened"
            )
        self._consumed = True
        return self._documents()

    @classmethod
    def of(cls, source, *, chunk_size: int | None = None) -> "Source":
        """Coerce ``source`` to a :class:`Source`.

        Existing sources pass through; ``str`` becomes :meth:`from_text`,
        bytes-likes :meth:`from_bytes` (both as a single chunk unless
        ``chunk_size`` is given); everything else — file objects, sockets,
        chunk iterables — goes through :meth:`from_iter`.
        """
        if isinstance(source, Source):
            return source
        if isinstance(source, str):
            return cls.from_text(source, chunk_size=chunk_size)
        if isinstance(source, (bytes, bytearray, memoryview)):
            return cls.from_bytes(source, chunk_size=chunk_size)
        return cls.from_iter(
            source, chunk_size=chunk_size or DEFAULT_CHUNK_SIZE
        )


def _sliced(data, chunk_size):
    if chunk_size is None:
        return (data,)
    return iter_chunks(data, chunk_size)


def _resolve_pool(pool: "BufferPool | bool | None",
                  chunk_size: int) -> BufferPool | None:
    """``pool=True`` means a private pool sized to the source's chunks."""
    if pool is True:
        return BufferPool(chunk_size)
    if pool is False:
        return None
    return pool


def _aligned(chunks, align_utf8: bool):
    return align_utf8_chunks(chunks) if align_utf8 else chunks


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
class Query:
    """A hashable query specification: what to project, against which DTD.

    Construct from an XPath expression (projection paths are extracted with
    the Marian & Siméon rules), from explicit projection paths
    (:meth:`from_paths`), from a workload spec (:meth:`from_spec`) or from a
    prebuilt plan (:meth:`from_plan`).  Two equal queries hash equally and
    :meth:`plan` resolves both to the *same* compiled
    :class:`~repro.core.prefilter.SmpPrefilter` through the existing plan
    cache, so engines built over overlapping query sets compile each query
    once.
    """

    __slots__ = (
        "dtd", "paths", "xpath", "backend", "add_default_paths", "label",
        "_prebuilt", "_cached_plan",
    )

    def __init__(
        self,
        xpath: str,
        dtd: Dtd,
        *,
        backend: str = DEFAULT_BACKEND,
        label: str | None = None,
    ) -> None:
        paths = extract_paths_from_xpath(str(xpath))
        self._init(
            dtd=dtd,
            paths=paths,
            xpath=str(xpath),
            backend=backend,
            add_default_paths=False,
            label=str(xpath) if label is None else label,
            prebuilt=None,
        )

    def _init(self, *, dtd, paths, xpath, backend, add_default_paths, label,
              prebuilt) -> None:
        self.dtd = dtd
        self.paths: tuple[str, ...] = tuple(str(path) for path in paths)
        self.xpath = xpath
        self.backend = backend
        self.add_default_paths = add_default_paths
        self.label = label
        self._prebuilt: SmpPrefilter | None = prebuilt
        self._cached_plan: SmpPrefilter | None = prebuilt

    @classmethod
    def from_paths(
        cls,
        dtd: Dtd,
        paths: Sequence[ProjectionPath | str],
        *,
        backend: str = DEFAULT_BACKEND,
        add_default_paths: bool = True,
        label: str | None = None,
    ) -> "Query":
        """A query given directly as projection paths."""
        self = object.__new__(cls)
        path_strings = tuple(str(path) for path in paths)
        self._init(
            dtd=dtd,
            paths=path_strings,
            xpath=None,
            backend=backend,
            add_default_paths=add_default_paths,
            label=" ".join(path_strings) if label is None else label,
            prebuilt=None,
        )
        return self

    @classmethod
    def from_spec(
        cls,
        dtd: Dtd,
        spec: QuerySpec,
        *,
        backend: str = DEFAULT_BACKEND,
        label: str | None = None,
    ) -> "Query":
        """A query from one of the workload specifications (``M2``, ``XM5``...)."""
        self = object.__new__(cls)
        self._init(
            dtd=dtd,
            paths=tuple(str(path) for path in spec.parsed_paths()),
            xpath=spec.xpath,
            backend=backend,
            add_default_paths=False,
            label=spec.name if label is None else label,
            prebuilt=None,
        )
        return self

    @classmethod
    def from_plan(
        cls, prefilter: SmpPrefilter, *, label: str | None = None
    ) -> "Query":
        """Wrap an already-compiled plan (identity-keyed, never recompiled)."""
        self = object.__new__(cls)
        self._init(
            dtd=prefilter.dtd,
            paths=tuple(str(path) for path in prefilter.paths),
            xpath=None,
            backend=prefilter.backend,
            add_default_paths=False,
            label="plan" if label is None else label,
            prebuilt=prefilter,
        )
        return self

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        if self._prebuilt is not None:
            return ("plan", id(self._prebuilt), self.label)
        return (
            id(self.dtd),
            tuple(sorted(self.paths)),
            self.backend,
            self.add_default_paths,
            self.label,
        )

    def __hash__(self) -> int:
        return hash(self._key())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Query(label={self.label!r}, paths={self.paths!r})"

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def plan(self) -> SmpPrefilter:
        """The compiled prefilter, resolved through the shared plan cache."""
        if self._cached_plan is None:
            self._cached_plan = SmpPrefilter.cached(
                self.dtd,
                self.paths,
                backend=self.backend,
                add_default_paths=self.add_default_paths,
            )
        return self._cached_plan


def as_query(query: "Query | SmpPrefilter | str", dtd: Dtd | None = None,
             *, backend: str = DEFAULT_BACKEND) -> Query:
    """Coerce ``query`` to a :class:`Query`.

    Accepts queries, prebuilt plans, and — when ``dtd`` is given — XPath
    strings or workload :class:`~repro.projection.extraction.QuerySpec`
    objects.
    """
    if isinstance(query, Query):
        return query
    if isinstance(query, SmpPrefilter):
        return Query.from_plan(query)
    if isinstance(query, QuerySpec):
        if dtd is None:
            raise QueryError("a QuerySpec needs a DTD to become a Query")
        return Query.from_spec(dtd, query, backend=backend)
    if isinstance(query, str):
        if dtd is None:
            raise QueryError("an XPath string needs a DTD to become a Query")
        return Query(query, dtd, backend=backend)
    raise QueryError(f"cannot interpret {query!r} as a query")


# ----------------------------------------------------------------------
# Sink
# ----------------------------------------------------------------------
class Sink:
    """Where projected fragments go.

    ``write`` receives each fragment as soon as it is safe to emit
    (projected ``bytes`` in binary sessions, incrementally decoded ``str``
    otherwise); ``close`` is called exactly once when the owning session
    finishes or is abandoned.  ``binary`` declares the fragment type the
    sink wants (``None`` = either), which :meth:`Engine.open` uses to pick
    the session's output mode when the caller does not say.

    Sinks are context managers (``close`` on exit) so resource-owning sinks
    compose with ``contextlib.ExitStack``.

    Write boundaries carry no meaning: a sink may only rely on the order of
    its query's bytes and on their concatenation, never on how they are cut
    into ``write`` calls.  The cut differs by path: the pure paths write
    about one fragment per copied token or region, the native shared scan
    up to ~64 KiB per query per kernel call (each query's output buffer is
    handed over whole).  Every fragment is written before the ``feed`` that
    produced it returns, so a checkpoint's flushed sizes, ``aio`` frames
    (one per query per feed or record) and ``CallbackSink`` callers see the
    same bytes on every path.
    """

    #: Chunk-type preference: True = bytes, False = str, None = either.
    binary: bool | None = None

    def write(self, fragment) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; idempotent."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CollectSink(Sink):
    """Accumulate fragments in memory; :meth:`value` joins them.

    The sink is mode-agnostic (``binary=None``); the session it is handed
    to stamps its resolved output mode onto :attr:`binary`, so
    :meth:`value` returns the right empty value even when nothing was
    projected.
    """

    def __init__(self) -> None:
        self.fragments: list = []

    def write(self, fragment) -> None:
        self.fragments.append(fragment)

    def value(self):
        """All fragments as one ``bytes``/``str`` (empty value when none)."""
        if not self.fragments:
            return b"" if self.binary else ""
        empty = b"" if isinstance(self.fragments[0], bytes) else ""
        return empty.join(self.fragments)


class FileSink(Sink):
    """Stream projected bytes into a file.

    ``target`` is a path (opened ``"wb"`` immediately, closed by
    :meth:`close`) or an open file-like object (borrowed: written to, never
    closed, unless ``close_target=True``).
    """

    binary = True

    def __init__(self, target, *, close_target: bool | None = None) -> None:
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            self._stream = open(target, "wb")
            self._owns = True if close_target is None else close_target
        else:
            self._stream = target
            self._owns = bool(close_target)
        self.write = self._stream.write

    def close(self) -> None:
        if self._owns and not self._stream.closed:
            self._stream.close()
        elif not self._owns:
            try:
                self._stream.flush()
            except ValueError:  # pragma: no cover - closed underneath us
                pass


class CallbackSink(Sink):
    """Adapt a plain callable to the sink protocol."""

    def __init__(self, callback: Callable, *, binary: bool | None = None,
                 on_close: Callable[[], None] | None = None) -> None:
        self.write = callback
        self.binary = binary
        self._on_close = on_close

    def close(self) -> None:
        if self._on_close is not None:
            on_close, self._on_close = self._on_close, None
            on_close()


class NullSink(Sink):
    """Discard the projection (statistics-only runs)."""

    def write(self, fragment) -> None:
        pass


AnySinkSpec = Union[Sink, Callable, None]


def _as_sink(sink: AnySinkSpec) -> Sink | None:
    if sink is None or isinstance(sink, Sink):
        return sink
    if callable(sink):
        return CallbackSink(sink)
    raise QueryError(f"cannot interpret {sink!r} as a sink")


def _normalize_sinks(
    sinks: "AnySinkSpec | Sequence[AnySinkSpec] | Mapping[str, AnySinkSpec]",
    labels: Sequence[str],
    *,
    coerce: Callable = _as_sink,
    sink_type: type = Sink,
) -> list | None:
    """One sink slot per query label, in engine order (or None for none).

    ``coerce``/``sink_type`` let :mod:`repro.aio` reuse the same shape
    handling (single sink, sequence, label mapping) for async sinks.
    """
    if sinks is None:
        return None
    if isinstance(sinks, Mapping):
        unknown = set(sinks) - set(labels)
        if unknown:
            raise QueryError(f"sinks for unknown query labels: {sorted(unknown)}")
        return [coerce(sinks.get(label)) for label in labels]
    if isinstance(sinks, sink_type) or callable(sinks):
        if len(labels) != 1:
            raise QueryError(
                f"one sink for {len(labels)} queries; pass a sequence or a "
                "label mapping"
            )
        return [coerce(sinks)]
    sink_list = [coerce(sink) for sink in sinks]
    if len(sink_list) != len(labels):
        raise QueryError(
            f"expected {len(labels)} sinks, got {len(sink_list)}"
        )
    return sink_list


def _resolve_binary(binary: bool | None, sinks: "list | None") -> bool:
    """Pick the session output mode from the sinks' ``binary`` preferences
    (sync or async sinks — only the attribute is read)."""
    if binary is not None:
        return binary
    if sinks:
        preferences = {
            sink.binary for sink in sinks
            if sink is not None and sink.binary is not None
        }
        if len(preferences) > 1:
            raise QueryError(
                "sinks disagree on bytes vs text output; pass binary=... "
                "explicitly"
            )
        if preferences:
            return preferences.pop()
    return False


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class QueryResult:
    """One query's share of an engine run."""

    label: str
    output: "str | bytes"
    stats: RunStatistics
    compilation: CompilationStatistics = field(
        default_factory=CompilationStatistics
    )

    @property
    def output_size(self) -> int:
        """Size of the projected output (characters or bytes)."""
        return len(self.output)


@dataclass
class EngineRun:
    """The result of running an engine over one document."""

    results: list[QueryResult]
    #: The once-paid shared-scan counters (None on the searching path,
    #: where the matcher counters live on the per-query statistics).
    scan_stats: RunStatistics | None = None

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, key) -> QueryResult:
        if isinstance(key, str):
            for result in self.results:
                if result.label == key:
                    return result
            raise KeyError(key)
        return self.results[key]

    @property
    def single(self) -> QueryResult:
        """The only result of a single-query run."""
        if len(self.results) != 1:
            raise QueryError(
                f"run carries {len(self.results)} results; index by label"
            )
        return self.results[0]

    @property
    def labels(self) -> list[str]:
        return [result.label for result in self.results]

    @property
    def outputs(self) -> list:
        return [result.output for result in self.results]


@dataclass
class DocumentRun:
    """One document's share of a corpus run."""

    index: int
    name: str
    run: EngineRun

    @property
    def results(self) -> list[QueryResult]:
        return self.run.results

    def __getitem__(self, key) -> QueryResult:
        return self.run[key]


@dataclass
class CorpusRun:
    """The result of running an engine over a multi-document corpus.

    ``documents`` holds the per-document runs in corpus order;
    ``results`` the per-query aggregate: outputs concatenated across
    documents (in corpus order -- byte-identical to filtering the
    documents sequentially) and statistics summed with
    :meth:`~repro.core.stats.RunStatistics.merge`.  ``jobs`` records the
    worker count the corpus actually ran with (1 = in-process).

    ``failures`` quarantines the documents that failed under
    ``on_error="collect"``: a list of
    :class:`repro.parallel.DocumentFailure` (path/record name, attempt
    count, cause) in corpus order.  Healthy documents' output is unchanged
    by a quarantine; with the default ``on_error="raise"`` the list is
    always empty.
    """

    documents: list[DocumentRun]
    results: list[QueryResult]
    scan_stats: RunStatistics | None = None
    jobs: int = 1
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no document was quarantined."""
        return not self.failures

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, key) -> QueryResult:
        if isinstance(key, str):
            for result in self.results:
                if result.label == key:
                    return result
            raise KeyError(key)
        return self.results[key]

    @property
    def single(self) -> QueryResult:
        """The only aggregate result of a single-query corpus run."""
        if len(self.results) != 1:
            raise QueryError(
                f"run carries {len(self.results)} results; index by label"
            )
        return self.results[0]

    @property
    def labels(self) -> list[str]:
        return [result.label for result in self.results]

    @property
    def outputs(self) -> list:
        return [result.output for result in self.results]

    def document(self, name: str) -> DocumentRun:
        """The run of the document called ``name`` (path or record name)."""
        for document in self.documents:
            if document.name == name:
                return document
        raise KeyError(name)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class Engine:
    """One or more queries compiled into an executable dataflow plan.

    Parameters
    ----------
    queries:
        A :class:`Query` (or prebuilt :class:`SmpPrefilter`), or a sequence
        of them.  All queries must share one DTD object.
    mode:
        ``"search"`` — the single-query searching runtime (Boyer-Moore /
        Commentz-Walter frontier searches; full matcher statistics).  Only
        valid for exactly one query.
        ``"shared"`` — the shared-scan runtime (one union-automaton pass
        feeding N driven streams; supports live attach/detach).
        ``"parallel"`` — the multi-process sharded runtime: :meth:`run`
        takes a *corpus* source (``Source.from_paths``/``from_dir``/
        ``from_records``) and shards its documents across ``jobs`` worker
        processes (:mod:`repro.parallel`), each running byte-native
        sessions over its shard; the order-preserving merge keeps output
        and aggregated statistics byte-identical to sequential execution.
        ``"auto"`` (default) — ``"search"`` for one query, ``"shared"``
        otherwise (and the sequential per-document loop for corpus
        sources).
    jobs:
        Worker process count for ``mode="parallel"`` (default: the CPUs
        available to this process).  ``jobs=1`` runs the corpus in-process,
        with no worker processes and no pickling.

    The engine is immutable and reusable: every :meth:`open`/:meth:`run`
    gets its own session, any number of which may run concurrently.
    """

    def __init__(
        self,
        queries: "Query | SmpPrefilter | Sequence[Query | SmpPrefilter]",
        *,
        mode: str = "auto",
        jobs: int | None = None,
    ) -> None:
        if isinstance(queries, (Query, SmpPrefilter)):
            queries = [queries]
        normalized = [as_query(query) for query in queries]
        if not normalized:
            raise QueryError("an Engine needs at least one query")
        if mode not in ("auto", "search", "shared", "parallel"):
            raise QueryError(f"unknown engine mode {mode!r}")
        if mode == "search" and len(normalized) != 1:
            raise QueryError("mode='search' supports exactly one query")
        if jobs is not None:
            if mode != "parallel":
                raise QueryError("jobs=... needs mode='parallel'")
            if jobs < 1:
                raise QueryError(f"jobs must be >= 1, got {jobs}")
        dtd = normalized[0].dtd
        for query in normalized[1:]:
            if query.dtd is not dtd:
                raise QueryError("all queries of one engine must share a DTD")
        self.queries: tuple[Query, ...] = tuple(normalized)
        self.dtd = dtd
        self.mode = mode
        self.jobs = jobs
        self.labels: list[str] = [query.label for query in normalized]
        self.plans: list[SmpPrefilter] = [query.plan() for query in normalized]
        self._multi: MultiQueryEngine | None = None

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------
    def _shared_engine(self) -> MultiQueryEngine:
        if self._multi is None:
            multi = MultiQueryEngine(
                self.dtd, self.plans, backend=self.queries[0].backend
            )
            multi.labels = list(self.labels)
            self._multi = multi
        return self._multi

    def _query_fingerprints(self) -> list[str]:
        """Stable digests of the engine's query set (checkpoint identity)."""
        return [
            query_fingerprint(query.paths, query.backend,
                              query.add_default_paths, query.label)
            for query in self.queries
        ]

    def open(
        self,
        *,
        sinks: "AnySinkSpec | Sequence[AnySinkSpec] | Mapping[str, AnySinkSpec]" = None,
        binary: bool | None = None,
        live: bool = False,
        resume: "Checkpoint | dict | str | os.PathLike | None" = None,
    ) -> "Session":
        """Open a streaming :class:`Session` for one document.

        ``sinks`` routes each query's fragments to its endpoint (a single
        sink, a sequence in query order, or a ``{label: sink}`` mapping);
        without sinks, ``feed``/``finish`` return the emitted output.
        ``binary`` selects bytes vs text output; ``None`` adopts the sinks'
        preference (default text).  ``live=True`` forces the shared-scan
        machinery even for a single query, enabling mid-document
        :meth:`Session.attach` / :meth:`Session.detach`.

        ``resume`` restores a checkpoint captured by
        :meth:`Session.checkpoint` — a :class:`~repro.checkpoint.Checkpoint`,
        its raw snapshot dictionary, or a checkpoint file path.  The
        engine's query set must match the one the checkpoint was captured
        under (verified by fingerprint; :class:`~repro.errors.CheckpointError`
        otherwise), queries that had been attached mid-document are
        re-attached (their sinks are not persisted — route them again if
        needed), and the session continues exactly where the capture left
        off: feed it the original input from
        ``Checkpoint.input_offset`` on (:func:`repro.checkpoint.resume_chunks`)
        and output and statistics stay byte-identical to an uninterrupted
        run.

        A ``mode="parallel"`` engine has no single-document session of its
        own; its workers open in-process sessions over the same plans (use
        a ``"search"``/``"shared"`` engine, or :func:`repro.parallel.
        WorkerPool.open_session` for a session living in a worker).
        """
        if self.mode == "parallel":
            raise QueryError(
                "mode='parallel' engines run corpus sources; open() needs a "
                "search/shared engine (see repro.parallel.WorkerPool."
                "open_session for worker-resident sessions)"
            )
        resume_data = None
        if resume is not None:
            if isinstance(resume, Checkpoint):
                resume_data = resume.snapshot
            elif isinstance(resume, dict):
                resume_data = resume
            else:
                resume_data = read_checkpoint(os.fspath(resume))
            if resume_data.get("kind") != "session":
                raise CheckpointError(
                    f"cannot resume a {resume_data.get('kind')!r} snapshot "
                    "as a streaming session"
                )
            if list(resume_data.get("query_hashes", ())) != \
                    self._query_fingerprints():
                raise CheckpointError(
                    "checkpoint was captured under a different query set; "
                    "open it with an engine built over the same queries"
                )
            if binary is None:
                binary = bool(resume_data.get("binary", False))
        sink_list = _normalize_sinks(sinks, self.labels)
        resolved_binary = _resolve_binary(binary, sink_list)
        shared = self.mode == "shared" or live or (
            self.mode == "auto" and len(self.queries) > 1
        )
        if resume_data is not None:
            if resolved_binary != bool(resume_data.get("binary", False)):
                raise CheckpointError(
                    "checkpoint was captured in "
                    f"{'binary' if resume_data.get('binary') else 'text'} "
                    "output mode; resume with the same mode"
                )
            shared = resume_data.get("mode") == "shared"
        session = Session(self, sink_list, binary=resolved_binary,
                          shared=shared)
        if resume_data is not None:
            session._restore(resume_data)
        return session

    def run(
        self,
        source,
        *,
        sinks: "AnySinkSpec | Sequence[AnySinkSpec] | Mapping[str, AnySinkSpec]" = None,
        binary: bool | None = None,
        live: bool = False,
        chunk_size: int | None = None,
        measure_memory: bool = False,
        on_error: str = "raise",
        retry: "RetryPolicy | None" = None,
        deadline: float | None = None,
        journal: "str | os.PathLike | None" = None,
    ) -> EngineRun:
        """Run the whole dataflow: open a session, drive ``source``, finish.

        ``source`` may be a :class:`Source` or any raw value
        :meth:`Source.of` understands.  With ``measure_memory`` the peak
        traced allocation lands on the run's scan statistics (shared mode)
        or the single query's statistics (search mode).

        A *corpus* source (``Source.from_paths``/``from_dir``/
        ``from_records``) runs document by document and returns a
        :class:`CorpusRun`: sharded across worker processes on a
        ``mode="parallel"`` engine, sequentially in-process otherwise —
        with byte-identical merged output either way.  Corpus runs take
        the fault-tolerance knobs (see
        :func:`repro.parallel.execute_corpus` for full semantics):
        ``retry`` resubmits documents whose failure was transient (dead
        worker, retryable I/O) with exponential backoff; ``deadline``
        bounds each document's wall-clock seconds (the hung worker is
        killed and replaced); ``on_error`` decides what a (still) failing
        document does — ``"raise"`` aborts the run, ``"skip"`` drops it,
        ``"collect"`` quarantines it into ``CorpusRun.failures`` while
        healthy documents' output is unchanged.

        ``journal`` makes a corpus run *resumable*: every merged document
        success is appended to the JSONL journal at that path
        (:class:`repro.checkpoint.CorpusJournal`), and a run restarted
        with the same journal — e.g. after a hard process kill — replays
        the journaled documents instead of re-executing them, so each
        document's output lands in the merged result exactly once.
        Failed documents are never journaled (they are re-attempted on
        resume, composing with ``retry``/``on_error``); a journal written
        for a different query set or output mode is rejected with
        :class:`~repro.errors.CheckpointError`.
        """
        source = Source.of(source, chunk_size=chunk_size)
        if source.corpus or self.mode == "parallel":
            if not source.corpus:
                raise QueryError(
                    "mode='parallel' shards documents, so it needs a corpus "
                    "Source (from_paths/from_dir/from_records); wrap a "
                    "single document in Source.from_paths([path])"
                )
            if live:
                raise QueryError("live attach/detach is per-session; corpus "
                                 "runs do not support live=True")
            if measure_memory:
                raise QueryError(
                    "measure_memory traces one process; it is not supported "
                    "for corpus runs"
                )
            return self._run_corpus(source, sinks=sinks, binary=binary,
                                    on_error=on_error, retry=retry,
                                    deadline=deadline, journal=journal)
        if on_error != "raise" or retry is not None or deadline is not None \
                or journal is not None:
            raise QueryError(
                "on_error/retry/deadline/journal are corpus-run policies; "
                "single-document sources take a retry= on their "
                "Source.from_* constructor instead (and checkpoint through "
                "Session.checkpoint)"
            )
        if measure_memory:
            tracemalloc.start()
        try:
            session = self.open(sinks=sinks, binary=binary, live=live)
            run = session.run(source)
        finally:
            if measure_memory:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
        if measure_memory:
            target = run.scan_stats if run.scan_stats is not None \
                else run.results[0].stats
            target.peak_memory_bytes = peak
        return run

    def _run_corpus(
        self,
        source: Source,
        *,
        sinks,
        binary: bool | None,
        on_error: str = "raise",
        retry: "RetryPolicy | None" = None,
        deadline: float | None = None,
        journal: "str | os.PathLike | None" = None,
    ) -> CorpusRun:
        """Drive a corpus source document by document (sharded or not).

        The parallel path and the sequential path share this merge loop:
        outcomes arrive in corpus order (see
        :func:`repro.parallel.execute_corpus`), per-query outputs are
        concatenated in that order and statistics summed, so the two paths
        are byte-identical by construction.  With a ``journal``, completed
        documents found in it are replayed instead of re-run and fresh
        successes are appended to it as they merge.
        """
        from repro import parallel

        sink_list = _normalize_sinks(sinks, self.labels)
        resolved_binary = _resolve_binary(binary, sink_list)
        for sink in sink_list or ():
            if sink is not None and sink.binary is None:
                sink.binary = resolved_binary
        if self.mode == "parallel":
            jobs = self.jobs if self.jobs is not None else parallel.default_jobs()
        else:
            jobs = 1
        documents: list[DocumentRun] = []
        failures: list = []
        pieces: list[list] = [[] for _ in self.labels]
        aggregates = [RunStatistics() for _ in self.labels]
        scan_total: RunStatistics | None = None
        journal_store: CorpusJournal | None = None
        try:
            if journal is not None:
                journal_store = CorpusJournal.resume(
                    os.fspath(journal), self._query_fingerprints(),
                    resolved_binary,
                )
                outcomes = self._journaled_outcomes(
                    source, journal_store, jobs=jobs, retry=retry,
                    on_error=on_error, deadline=deadline,
                )
            else:
                outcomes = parallel.execute_corpus(
                    self,
                    source.documents(),
                    jobs=jobs,
                    retry=retry,
                    on_error=on_error,
                    deadline=deadline,
                    _buffer=source._buffer,
                )
            empty_value = b"" if resolved_binary else ""
            for outcome in outcomes:
                if outcome.failure is not None:
                    failures.append(outcome.failure)
                    continue
                doc_results: list[QueryResult] = []
                for index, (label, output, stats) in enumerate(
                    zip(self.labels, outcome.outputs, outcome.stats)
                ):
                    value = output if resolved_binary else output.decode("utf-8")
                    sink = sink_list[index] if sink_list else None
                    if sink is not None:
                        # Sink-routed queries stream: nothing is retained,
                        # neither on the aggregate nor per document (same
                        # contract as Session.run), so corpus memory stays
                        # bounded by one document's output.
                        if value:
                            sink.write(value)
                        value = empty_value
                    elif value:
                        pieces[index].append(value)
                    aggregates[index].merge(stats)
                    doc_results.append(QueryResult(
                        label=label,
                        output=value,
                        stats=stats,
                        compilation=self.plans[index].compilation,
                    ))
                if outcome.scan_stats is not None:
                    if scan_total is None:
                        scan_total = RunStatistics()
                    scan_total.merge(outcome.scan_stats)
                documents.append(DocumentRun(
                    index=outcome.index,
                    name=outcome.name,
                    run=EngineRun(results=doc_results,
                                  scan_stats=outcome.scan_stats),
                ))
        finally:
            if journal_store is not None:
                journal_store.close()
            for sink in sink_list or ():
                if sink is not None:
                    sink.close()
        empty = b"" if resolved_binary else ""
        results = [
            QueryResult(
                label=label,
                output=empty.join(parts),
                stats=aggregate,
                compilation=plan.compilation,
            )
            for label, parts, aggregate, plan in zip(
                self.labels, pieces, aggregates, self.plans
            )
        ]
        return CorpusRun(documents=documents, results=results,
                         scan_stats=scan_total, jobs=jobs,
                         failures=failures)

    def _journaled_outcomes(
        self,
        source: Source,
        journal: CorpusJournal,
        *,
        jobs: int,
        retry: "RetryPolicy | None",
        on_error: str,
        deadline: float | None,
    ) -> Iterator:
        """Corpus outcomes with journal replay/record woven in.

        Documents already recorded in the journal are served from it
        (outputs and statistics exactly as first merged); the rest run
        through :func:`repro.parallel.execute_corpus` as usual, their
        indices mapped back from the compacted work list to corpus
        positions, and each fresh success is journaled before it is
        yielded to the merge.  The two ordered streams interleave back
        into strict corpus order.
        """
        from repro import parallel

        items = list(source.documents())
        completed = journal.completed
        todo = [item for index, item in enumerate(items)
                if index not in completed]
        original_index = [index for index in range(len(items))
                          if index not in completed]
        replay_order = sorted(index for index in completed
                              if 0 <= index < len(items))
        fresh = iter(parallel.execute_corpus(
            self, todo, jobs=jobs, retry=retry, on_error=on_error,
            deadline=deadline, _buffer=source._buffer,
        )) if todo else iter(())
        next_fresh = next(fresh, None)
        replay_at = 0
        while replay_at < len(replay_order) or next_fresh is not None:
            if next_fresh is not None:
                fresh_index = original_index[next_fresh.index]
            else:
                fresh_index = None
            if fresh_index is None or (
                replay_at < len(replay_order)
                and replay_order[replay_at] < fresh_index
            ):
                index = replay_order[replay_at]
                replay_at += 1
                entry = completed[index]
                scan_state = entry.get("scan_stats")
                yield parallel.DocumentOutcome(
                    index=index,
                    name=entry.get("name", f"document[{index}]"),
                    outputs=list(entry.get("outputs", ())),
                    stats=[RunStatistics.from_state(state)
                           for state in entry.get("stats", ())],
                    scan_stats=RunStatistics.from_state(scan_state)
                    if scan_state else None,
                )
                continue
            outcome = next_fresh
            next_fresh = next(fresh, None)
            failure = outcome.failure
            if failure is not None:
                failure = replace(failure, index=fresh_index)
            outcome = replace(outcome, index=fresh_index, failure=failure)
            if outcome.failure is None:
                journal.record(
                    fresh_index,
                    outcome.name,
                    outcome.outputs,
                    [stats.export_state() for stats in outcome.stats],
                    outcome.scan_stats.export_state()
                    if outcome.scan_stats is not None else None,
                )
            yield outcome


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
@dataclass(eq=False)
class QueryHandle:
    """A live query inside a :class:`Session` (returned by ``attach`` too)."""

    session: "Session"
    index: int
    query: Query
    label: str

    @property
    def stats(self) -> RunStatistics:
        """The query's structural statistics so far."""
        return self.session.stats[self.index]

    @property
    def attached_at(self) -> int:
        """Absolute input byte offset the query started observing from."""
        return self.session._attach_offset(self.index)

    @property
    def detached(self) -> bool:
        return self.session._is_detached(self.index)

    @property
    def accepted(self) -> bool:
        """True once the query's runtime automaton reached a final state.

        Queries attached mid-document may legitimately never accept (their
        automaton missed the document root); ``finish`` does not validate
        them — this flag tells.
        """
        return self.session._is_accepted(self.index)


class Session:
    """One document flowing through an engine: feed, finish, attach, detach.

    ``feed(chunk)`` returns the list of newly emitted per-query outputs (in
    handle order; empty entries for sink-routed or detached queries);
    ``finish()`` returns the remaining outputs, validates acceptance and
    closes the sinks.  :meth:`run` drives a whole :class:`Source`.  On the
    shared-scan path (multi-query engines, or ``open(live=True)``)
    :meth:`attach` adds a query mid-document and :meth:`detach` removes one;
    the searching path raises :class:`~repro.errors.QueryError` for both.
    """

    def __init__(
        self,
        engine: Engine,
        sinks: list[Sink | None] | None,
        *,
        binary: bool,
        shared: bool,
    ) -> None:
        self.engine = engine
        self.binary = binary
        self._sinks: list[Sink | None] = list(sinks) if sinks else [
            None for _ in engine.queries
        ]
        for sink in self._sinks:
            if sink is not None and sink.binary is None:
                sink.binary = binary  # mode-agnostic sinks adopt ours
        self._closed = False
        callbacks = [
            None if sink is None else sink.write for sink in self._sinks
        ]
        self._single: FilterSession | None = None
        self._shared: MultiQuerySession | None = None
        if shared:
            self._shared = engine._shared_engine().session(
                sinks=callbacks, binary=binary
            )
        else:
            self._single = engine.plans[0].session(
                sink=callbacks[0], binary=binary
            )
        #: ``(query, label)`` per handle slot.  Handles are built on demand
        #: so the session holds no reference back to itself: a closed
        #: session is freed by reference counting, not by the cyclic GC.
        self._members: list[tuple[Query, str]] = list(
            zip(engine.queries, engine.labels)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def handles(self) -> list[QueryHandle]:
        """One :class:`QueryHandle` per query slot, in feed-output order."""
        return [
            QueryHandle(session=self, index=index, query=query, label=label)
            for index, (query, label) in enumerate(self._members)
        ]

    @property
    def labels(self) -> list[str]:
        return [label for _, label in self._members]

    @property
    def stats(self) -> list[RunStatistics]:
        """Per-query statistics, in handle order."""
        if self._shared is not None:
            return self._shared.stats
        return [self._single.stats]

    @property
    def scan_stats(self) -> RunStatistics | None:
        """The once-paid shared-scan counters (None on the searching path)."""
        if self._shared is not None:
            return self._shared.scan_stats
        return None

    @property
    def buffered_bytes(self) -> int:
        """Input bytes currently retained in the carry-over window."""
        if self._shared is not None:
            return self._shared.buffered_bytes
        return self._single.buffered_bytes

    @property
    def finished(self) -> bool:
        if self._shared is not None:
            return self._shared.finished
        return self._single.finished

    def _attach_offset(self, index: int) -> int:
        if self._shared is not None:
            return self._shared.attach_offset(index)
        return 0

    def _is_detached(self, index: int) -> bool:
        return self._shared is not None and not self._shared.is_attached(index)

    def _is_accepted(self, index: int) -> bool:
        if self._shared is not None:
            return self._shared.accepted(index)
        return self._single.accepted

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk) -> list:
        """Process one chunk; returns per-query emitted output (handle order)."""
        if self._shared is not None:
            return self._shared.feed(chunk)
        return [self._single.feed(chunk)]

    def finish(self) -> list:
        """End of input: validate acceptance, close sinks, return the rest."""
        try:
            if self._shared is not None:
                outputs = self._shared.finish()
            else:
                outputs = [self._single.finish()]
        finally:
            self.close()
        return outputs

    def close(self) -> None:
        """Close every sink exactly once (also safe to call on abandon)."""
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            if sink is not None:
                sink.close()

    # ------------------------------------------------------------------
    # Durable checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: "str | os.PathLike | None" = None) -> Checkpoint:
        """Capture the session's complete resume state.

        Returns a :class:`~repro.checkpoint.Checkpoint` (atomically written
        to ``path`` when given) holding everything a fresh process needs to
        continue this exact run: the carry-over window bytes, tokenizer and
        per-query automaton state — including queries attached or detached
        mid-document — and every statistics counter.  Restore it with
        ``Engine.open(resume=...)`` on an engine built over the same query
        set, re-feed the input from :attr:`Checkpoint.input_offset` on, and
        output and statistics are byte-identical to an uninterrupted run.

        Checkpoints are taken at chunk boundaries (between ``feed`` calls)
        and capture the state exactly as of the last fed byte.  A finished
        or closed session cannot be checkpointed (:class:`~repro.errors.CheckpointError`).
        """
        if self._closed or self.finished:
            raise CheckpointError(
                "cannot checkpoint a finished or closed session"
            )
        if self._shared is not None:
            mode = "shared"
            state = self._shared.export_state()
            streams = state["streams"]
        else:
            mode = "single"
            state = self._single.export_state()
            streams = [state]
        attached = []
        for query, label in self._members[len(self.engine.queries):]:
            attached.append({
                "label": label,
                "paths": list(query.paths),
                "backend": query.backend,
                "add_default_paths": query.add_default_paths,
            })
        snapshot = {
            "kind": "session",
            "mode": mode,
            "binary": self.binary,
            "input_offset": int(state["input_offset"]),
            "query_hashes": self.engine._query_fingerprints(),
            "attached": attached,
            "output_sizes": [self._flushed_size(s) for s in streams],
            "state": state,
        }
        checkpoint = Checkpoint(snapshot)
        if path is not None:
            checkpoint.save(os.fspath(path))
        return checkpoint

    def _flushed_size(self, stream_state: dict) -> int:
        """Output bytes the captured stream had already delivered.

        In text mode the decoder may hold a partial UTF-8 sequence that is
        counted in ``emitted_bytes`` but was not yet part of any returned
        ``str`` — the resume driver truncates prior output to this size
        (measured in encoded bytes).
        """
        emitted = int(stream_state.get("emitted_bytes", 0))
        if not self.binary:
            decoder = stream_state.get("decoder")
            if decoder:
                emitted -= len(decoder[0])
        return emitted

    def _restore(self, data: dict) -> None:
        """Restore a session-kind snapshot into this fresh session."""
        for recipe in data.get("attached", ()):
            query = Query.from_paths(
                self.engine.dtd,
                recipe["paths"],
                backend=recipe["backend"],
                add_default_paths=recipe["add_default_paths"],
                label=recipe["label"],
            )
            self.attach(query, label=recipe["label"])
        state = data.get("state")
        if not isinstance(state, dict):
            raise CheckpointError(
                "session checkpoint carries no state snapshot"
            )
        if self._shared is not None:
            self._shared.import_state(state)
        else:
            self._single.import_state(state)

    def run(self, source) -> EngineRun:
        """Drive a whole :class:`Source` through the session.

        Feeds every chunk inside the source's resource context (so
        zero-copy windows stay valid through ``finish``), closes the sinks
        on every exit path, and returns the per-query results.
        """
        source = Source.of(source)
        pieces: list[list] = [[] for _ in self._members]
        try:
            with source.open() as chunks:
                for chunk in chunks:
                    self._gather(self.feed(chunk), pieces)
                self._gather(self.finish(), pieces)
        finally:
            self.close()
        empty = b"" if self.binary else ""
        results = [
            QueryResult(
                label=label,
                output=empty.join(parts),
                stats=stats,
                compilation=self._compilation(index),
            )
            for index, (label, parts, stats) in enumerate(
                zip(self.labels, pieces, self.stats)
            )
        ]
        return EngineRun(results=results, scan_stats=self.scan_stats)

    def _gather(self, outputs: list, pieces: list[list]) -> None:
        while len(pieces) < len(outputs):
            pieces.append([])
        for index, emitted in enumerate(outputs):
            if emitted:
                pieces[index].append(emitted)

    def _compilation(self, index: int) -> CompilationStatistics:
        if self._shared is not None:
            return self._shared.prefilters[index].compilation
        return self.engine.plans[index].compilation

    # ------------------------------------------------------------------
    # Live query management (shared-scan sessions)
    # ------------------------------------------------------------------
    def attach(
        self,
        query: "Query | SmpPrefilter",
        *,
        sink: AnySinkSpec = None,
        label: str | None = None,
    ) -> QueryHandle:
        """Attach a query to the live stream, mid-document.

        The query starts observing at the session's current dispatch
        frontier (``handle.attached_at``): its output and structural
        statistics equal a fresh session fed only the input from that byte
        offset on.  Only available on shared-scan sessions — open the
        engine with ``mode="shared"`` or ``open(live=True)``.
        """
        if self._shared is None:
            raise QueryError(
                "live attach needs a shared-scan session; build the Engine "
                "with mode='shared' or call open(live=True)"
            )
        query = as_query(query)
        sink_obj = _as_sink(sink)
        index = self._shared.attach(
            query.plan(),
            sink=None if sink_obj is None else sink_obj.write,
            label=label if label is not None else query.label,
        )
        self._sinks.append(sink_obj)
        label = self._shared.labels[index]
        self._members.append((query, label))
        return QueryHandle(session=self, index=index, query=query, label=label)

    def detach(self, handle: QueryHandle):
        """Detach a live query; returns its pending un-taken output.

        The query's statistics freeze and it emits nothing further; its
        handle (and feed slot) remain, reporting ``detached``.
        """
        if self._shared is None:
            raise QueryError("detach needs a shared-scan session")
        if handle.session is not self:
            raise QueryError("handle belongs to a different session")
        return self._shared.detach(handle.index)
