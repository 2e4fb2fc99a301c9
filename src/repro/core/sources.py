"""Byte-oriented input subsystem of the streaming SMP runtime.

The paper reduces XML prefiltering to raw string matching, so the matcher
automata can run directly on the wire/disk representation: UTF-8 bytes.
This module provides the byte sources that feed the byte-native runtime
without ever paying the ``bytes -> str`` decode-and-copy (the user-facing
wrapper with uniform chunk-size/alignment options and resource-safe open
contexts is :class:`repro.api.Source`, built on these generators):

* :func:`file_chunks` -- buffered binary reads of ``chunk_size`` pieces;
* :func:`mmap_chunks` / :func:`open_mmap` -- memory-mapped files: with
  ``chunk_size=None`` the *whole map* becomes the runtime's search buffer
  (searches run against the mapped pages; only output slices materialise);
* :func:`stdin_chunks` -- the process's binary stdin;
* :func:`socket_chunks` -- anything with ``recv`` (sockets, socket-likes);
* :func:`iter_byte_chunks` -- the uniform dispatcher over all byte shapes.

Incremental UTF-8 handling
--------------------------
Byte chunk boundaries fall anywhere, including inside a multi-byte UTF-8
sequence.  The byte-native matchers do not care -- tag keywords are ASCII
and a UTF-8 continuation byte can never start one -- but any place that
*decodes* must respect code-point boundaries:

* :class:`Utf8ChunkAligner` re-aligns a byte-chunk stream so every emitted
  chunk ends on a code-point boundary (it carries the trailing partial
  sequence into the next chunk).  Used to feed ``str`` consumers from byte
  sources without ever splitting a character.
* :class:`Utf8SlidingDecoder` wraps an incremental UTF-8 decoder for the
  *output* side: the filter runtimes emit raw byte slices of the document,
  and the text-mode API decodes exactly those emitted slices -- the only
  bytes that are ever decoded on the byte path.

Both are thin, allocation-light wrappers; :func:`utf8_boundary` is the
underlying pure function (the longest prefix that is a whole number of
UTF-8 sequences).
"""

from __future__ import annotations

import codecs
import errno
import re
import sys
import time
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from repro import faults
from repro.core.stream import DEFAULT_CHUNK_SIZE
from repro.errors import SourceError

try:  # pragma: no cover - mmap exists on all supported platforms
    import mmap as _mmap
except ImportError:  # pragma: no cover
    _mmap = None  # type: ignore[assignment]


def have_mmap() -> bool:
    """True when the platform provides :mod:`mmap`."""
    return _mmap is not None


# ----------------------------------------------------------------------
# Transient-I/O retry
# ----------------------------------------------------------------------
#: errno values that describe transient conditions a retry can clear.
TRANSIENT_ERRNOS = frozenset({
    errno.EINTR,
    errno.EAGAIN,
    errno.EWOULDBLOCK,
    errno.ECONNRESET,
    errno.ECONNABORTED,
    errno.ENETRESET,
    errno.ETIMEDOUT,
    errno.EPIPE,
})


def is_transient(error: BaseException) -> bool:
    """True when ``error`` is worth retrying (interrupt/reset/timeout class)."""
    if isinstance(error, SourceError):
        return error.transient
    if isinstance(error, (InterruptedError, ConnectionResetError,
                          ConnectionAbortedError, TimeoutError)):
        return True
    if isinstance(error, OSError):
        return error.errno in TRANSIENT_ERRNOS
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures.

    Used in two places: byte sources retry individual transient reads
    (``EINTR``/``ECONNRESET``/timeouts -- see :data:`TRANSIENT_ERRNOS`)
    in place, and the parallel corpus engine resubmits a document whose
    worker died or whose error was transient.  The policy is deliberately
    deterministic (no jitter): attempt ``n`` (1-based) sleeps
    ``min(backoff * multiplier**(n-1), max_backoff)`` seconds, and at most
    ``retries`` retries happen after the first attempt.

    ``RetryPolicy()`` gives 3 retries at 0.05 s/0.1 s/0.2 s --
    ``RetryPolicy(retries=0)`` disables retrying while keeping the uniform
    :class:`~repro.errors.SourceError` wrapping.
    """

    retries: int = 3
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(self.backoff * self.multiplier ** (attempt - 1),
                   self.max_backoff)


class _ReadGuard:
    """Retry/wrap state shared by one streaming read loop.

    Every low-level read goes through :meth:`read`: an armed fault plan may
    inject a failure first, a transient ``OSError`` is retried per the
    policy, and anything unrecoverable is re-raised as a
    :class:`~repro.errors.SourceError` carrying the byte offset reached.
    """

    __slots__ = ("kind", "retry", "socket", "offset", "attempt")

    def __init__(self, kind: str, retry: RetryPolicy | None,
                 *, socket: bool = False) -> None:
        self.kind = kind
        self.retry = retry
        self.socket = socket
        self.offset = 0
        self.attempt = 1

    def read(self, operation, *args):
        while True:
            try:
                if faults._STATE is not None:
                    if self.socket:
                        faults.maybe_socket_reset(self.offset)
                    else:
                        faults.maybe_io_error(self.kind, self.offset)
                result = operation(*args)
            except OSError as error:
                self.failed(error)
                continue
            self.attempt = 1
            if result:
                self.offset += result if isinstance(result, int) else len(result)
            return result

    def failed(self, error: OSError) -> None:
        """Sleep-and-return for a retryable error, raise SourceError otherwise."""
        transient = is_transient(error)
        if (transient and self.retry is not None
                and self.attempt <= self.retry.retries):
            time.sleep(self.retry.delay(self.attempt))
            self.attempt += 1
            return
        raise SourceError(
            f"{self.kind} read failed at byte {self.offset}: {error}",
            offset=self.offset,
            transient=transient,
            attempts=self.attempt,
        ) from error


# ----------------------------------------------------------------------
# Buffer reuse
# ----------------------------------------------------------------------
class BufferPool:
    """Recycled ``bytearray`` read buffers for ``readinto`` ingestion.

    A plain ``handle.read(chunk_size)`` allocates a fresh ``bytes`` object
    per chunk; at large chunk sizes that allocator churn dominates the
    ingestion cost.  A pool hands out fixed-size ``bytearray`` buffers that
    sources fill in place (``readinto``/``recv_into``) and return when the
    stream ends, so a million-chunk run touches a handful of buffers total.

    The pooled chunk is *borrowed*: it is only valid until the consumer asks
    the source for the next chunk.  The streaming runtimes uphold this by
    :meth:`~repro.core.stream.ChunkCursor.seal`-ing their window after every
    mutable chunk -- only the small carry-over suffix is copied, which is
    the entire point of the exercise.

    ``allocated``/``reused`` count buffer handouts and make the recycling
    observable (tests and the A/B benchmark assert on them).  The pool is
    not thread-safe; share one pool per thread (or per worker process).
    """

    __slots__ = ("buffer_size", "capacity", "allocated", "reused", "_free")

    def __init__(self, buffer_size: int = DEFAULT_CHUNK_SIZE,
                 capacity: int = 4) -> None:
        if buffer_size <= 0:
            raise ValueError(f"buffer_size must be positive, got {buffer_size}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.buffer_size = buffer_size
        self.capacity = capacity
        self.allocated = 0
        self.reused = 0
        self._free: list[bytearray] = []

    def acquire(self) -> bytearray:
        """A ``buffer_size`` bytearray: recycled when possible, fresh otherwise."""
        if self._free:
            self.reused += 1
            return self._free.pop()
        self.allocated += 1
        return bytearray(self.buffer_size)

    def release(self, buffer: bytearray) -> None:
        """Return ``buffer`` to the pool (dropped when the pool is full)."""
        if len(buffer) == self.buffer_size and len(self._free) < self.capacity:
            self._free.append(buffer)


def _fill(readinto, buffer: bytearray, guard: _ReadGuard | None = None) -> int:
    """Fill ``buffer`` from ``readinto`` until full or end of stream.

    With ``guard`` every partial read is individually retried/wrapped, so a
    transient error after a short ``readinto`` resumes exactly where the
    stream left off instead of losing the partial fill.
    """
    read = readinto if guard is None else (lambda part: guard.read(readinto, part))
    filled = read(buffer)
    if not filled:
        return 0
    length = len(buffer)
    view = None
    while filled < length:
        if view is None:
            view = memoryview(buffer)
        count = read(view[filled:])
        if not count:
            break
        filled += count
    return filled


def _check_pool_size(pool: BufferPool, chunk_size: int) -> None:
    """Reject a pool whose buffers do not match the requested chunking."""
    if pool.buffer_size != chunk_size:
        raise ValueError(
            f"buffer pool holds {pool.buffer_size}-byte buffers but the "
            f"source asked for {chunk_size}-byte chunks; size the pool to "
            "the chunk size (one pool per distinct chunk size)"
        )


def _pooled_chunks(readinto, pool: BufferPool,
                   guard: _ReadGuard | None = None) -> Iterator[bytes]:
    """Yield recycled-buffer chunks from a ``readinto`` callable.

    Full buffers are yielded *borrowed* (valid until the next iteration
    step); a short final fill is yielded as an owned ``bytes`` copy.
    """
    buffer = pool.acquire()
    try:
        while True:
            count = _fill(readinto, buffer, guard)
            if not count:
                return
            if count == len(buffer):
                yield buffer
            else:
                yield bytes(memoryview(buffer)[:count])
                return
    finally:
        pool.release(buffer)


# ----------------------------------------------------------------------
# Byte sources
# ----------------------------------------------------------------------
def file_chunks(
    path: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    pool: BufferPool | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[bytes]:
    """Read the file at ``path`` as binary ``chunk_size`` chunks (no decode).

    With ``pool`` the file is read via ``readinto`` into recycled buffers
    (one unbuffered syscall path); the pool's buffers must match
    ``chunk_size``, so a shared pool cannot silently change a source's
    chunking.  Without a pool every chunk is a fresh ``bytes`` object.

    Mid-stream ``OSError`` is surfaced as :class:`~repro.errors.SourceError`
    carrying the byte offset reached; with ``retry`` transient errors
    (see :data:`TRANSIENT_ERRNOS`) are retried in place with backoff first.
    Open-time errors (missing file, permissions) are *not* wrapped.
    """
    guard = _ReadGuard("file", retry)
    if pool is not None:
        _check_pool_size(pool, chunk_size)
        with open(path, "rb", buffering=0) as handle:
            yield from _pooled_chunks(handle.readinto, pool, guard)
        return
    with open(path, "rb") as handle:
        while True:
            chunk = guard.read(handle.read, chunk_size)
            if not chunk:
                return
            yield chunk


def open_mmap(path: str):
    """Memory-map the file at ``path`` read-only and return the map.

    The caller owns the map (use ``with open_mmap(path) as mm:``).  An
    empty file cannot be mapped, and a platform without :mod:`mmap` cannot
    map at all; both surface as :class:`~repro.errors.ReproError` so the
    CLI and other catch-all consumers report them cleanly.
    """
    from repro.errors import ReproError

    if _mmap is None:  # pragma: no cover - platform without mmap
        raise ReproError("mmap is not available on this platform")
    with open(path, "rb") as handle:
        try:
            return _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        except ValueError as error:
            raise ReproError(f"cannot mmap {path!r}: {error}") from error


def mmap_chunks(
    path: str, chunk_size: int | None = DEFAULT_CHUNK_SIZE
) -> Iterator[bytes]:
    """Yield the file at ``path`` from a memory map.

    With an integer ``chunk_size`` the map is sliced into byte chunks (one
    copy from the page cache each, no decode).  ``chunk_size=None`` yields
    the *map object itself* as a single chunk: the runtime's search buffer
    is then the mapped pages and no heap copy of the document ever exists.
    In that mode the map is closed only after the consumer finished with
    the generator, so drive the filter to completion before disposing it
    (``Source.from_mmap`` runs through :mod:`repro.api` do this correctly).
    """
    mapping = open_mmap(path)
    try:
        if chunk_size is None:
            yield mapping
        else:
            if chunk_size <= 0:
                raise ValueError(f"chunk_size must be positive, got {chunk_size}")
            for start in range(0, len(mapping), chunk_size):
                yield mapping[start:start + chunk_size]
    finally:
        mapping.close()


def stdin_chunks(
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    pool: BufferPool | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[bytes]:
    """Read the process's binary stdin in ``chunk_size`` chunks.

    With ``pool`` (and a stdin that supports ``readinto``) the chunks are
    recycled pool buffers instead of fresh ``bytes`` per read.  Mid-stream
    ``OSError`` (a signal-interrupted pipe read, a dropped upstream) is
    surfaced as :class:`~repro.errors.SourceError` with the byte offset
    reached; ``retry`` retries transient errors in place first.
    """
    stream = getattr(sys.stdin, "buffer", sys.stdin)
    readinto = getattr(stream, "readinto", None)
    guard = _ReadGuard("stdin", retry)
    if pool is not None and readinto is not None:
        _check_pool_size(pool, chunk_size)
        yield from _pooled_chunks(readinto, pool, guard)
        return
    while True:
        chunk = guard.read(stream.read, chunk_size)
        if not chunk:
            return
        yield chunk


def socket_chunks(
    connection,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    pool: BufferPool | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[bytes]:
    """Receive byte chunks from ``connection`` until the peer shuts down.

    ``connection`` is anything with ``recv(size) -> bytes`` returning
    ``b""`` at end of stream (a connected socket, or a test double).  With
    ``pool`` (and a connection that supports ``recv_into``) each datagram
    lands in a recycled pool buffer; partial fills -- normal on sockets --
    are yielded as owned copies, full buffers are yielded borrowed.

    A mid-stream ``OSError`` (``ECONNRESET``, timeouts, ...) is surfaced
    as :class:`~repro.errors.SourceError` carrying the byte offset reached
    instead of leaking the raw error; ``retry`` retries transient errors
    in place with backoff first.
    """
    recv_into = getattr(connection, "recv_into", None)
    guard = _ReadGuard("socket", retry, socket=True)
    if pool is not None and recv_into is not None:
        _check_pool_size(pool, chunk_size)
        buffer = pool.acquire()
        try:
            while True:
                count = guard.read(recv_into, buffer)
                if not count:
                    return
                if count == len(buffer):
                    yield buffer
                else:
                    yield bytes(memoryview(buffer)[:count])
        finally:
            pool.release(buffer)
    while True:
        chunk = guard.read(connection.recv, chunk_size)
        if not chunk:
            return
        yield chunk


def iter_byte_chunks(
    source: "bytes | bytearray | memoryview | IO[bytes] | Iterable[bytes]",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    retry: RetryPolicy | None = None,
) -> Iterator[bytes]:
    """Uniform byte-chunk stream over the supported byte input shapes.

    ``source`` may be a bytes-like object (sliced), a binary file-like
    object with ``read``, a socket-like object with ``recv``, or an
    iterable of byte chunks (passed through).  Stream-shaped inputs get the
    same :class:`~repro.errors.SourceError` wrapping (and optional
    transient-``retry``) as the dedicated source generators.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(source, (bytes, bytearray, memoryview)):
        for start in range(0, len(source), chunk_size):
            yield source[start:start + chunk_size]
        return
    read = getattr(source, "read", None)
    if callable(read):
        guard = _ReadGuard("stream", retry)
        while True:
            chunk = guard.read(read, chunk_size)
            if not chunk:
                return
            yield chunk
        return
    recv = getattr(source, "recv", None)
    if callable(recv):
        yield from socket_chunks(source, chunk_size, retry=retry)
        return
    for chunk in source:
        if chunk:
            yield chunk


# ----------------------------------------------------------------------
# Document-boundary splitting of concatenated record streams
# ----------------------------------------------------------------------
#: The bytes ``bytes.strip()`` removes, and a run of them matched in place.
_SPACE = b" \t\n\r\x0b\x0c"
_SPACE_RUN = re.compile(b"[%s]*" % re.escape(_SPACE))


def _end_tag_bytes(end_tag: "bytes | str") -> bytes:
    tag = end_tag.encode("utf-8") if isinstance(end_tag, str) else bytes(end_tag)
    if not tag:
        raise ValueError("end_tag must be non-empty")
    return tag


def _stripped(data, start: int, end: int) -> tuple[int, int]:
    """``data[start:end].strip()`` as offsets into ``data``, copying nothing."""
    start = _SPACE_RUN.match(data, start, end).end()
    while end > start and data[end - 1] in _SPACE:
        end -= 1
    return start, end


def split_documents(
    chunks: "Iterable[bytes | str]", end_tag: "bytes | str"
) -> Iterator[bytes]:
    """Split a concatenated multi-document stream at ``end_tag`` boundaries.

    A MEDLINE-style feed ships many complete documents back to back on one
    byte stream; each document ends with a known closing root tag (e.g.
    ``b"</MedlineCitationSet>"``).  This generator re-chunks such a stream
    into one ``bytes`` blob per document -- the corpus unit the parallel
    engine shards across workers -- holding only the current document's
    bytes plus one chunk in memory.  Each record is copied out once.

    Inter-document whitespace is stripped; trailing non-whitespace after
    the last ``end_tag`` is yielded as a final (possibly malformed) record
    so the filter reports it instead of silently dropping input.
    """
    tag = _end_tag_bytes(end_tag)
    buffer = bytearray()
    scanned = 0
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        buffer += chunk
        while True:
            found = buffer.find(tag, scanned)
            if found < 0:
                # No boundary yet; remember how far we scanned (a boundary
                # cannot start more than ``len(tag) - 1`` bytes back).
                scanned = max(0, len(buffer) - len(tag) + 1)
                break
            cut = found + len(tag)
            start = _SPACE_RUN.match(buffer, 0, cut).end()
            with memoryview(buffer) as view:
                record = view[start:cut].tobytes()
            del buffer[:cut]
            scanned = 0
            if record:  # empty only when the end tag is whitespace itself
                yield record
    start, end = _stripped(buffer, 0, len(buffer))
    if start < end:
        with memoryview(buffer) as view:
            tail = view[start:end].tobytes()
        yield tail


def split_spans(data, end_tag: "bytes | str") -> Iterator[tuple[int, int]]:
    """The records of an in-memory stream as ``(start, end)`` offsets.

    The zero-copy twin of :func:`split_documents` for a stream already in
    memory (``bytes``, ``bytearray`` or ``memoryview``): record for record,
    ``data[start:end]`` is the blob :func:`split_documents` yields over
    any chunking of ``data``, with the same whitespace stripping and the
    same trailing-garbage record, but nothing is copied.
    """
    tag = _end_tag_bytes(end_tag)
    find = getattr(data, "find", None)
    if find is None:  # a memoryview: search it in place
        search = re.compile(re.escape(tag)).search

        def find(_tag, position):
            match = search(data, position)
            return -1 if match is None else match.start()

    position = 0
    while True:
        found = find(tag, position)
        if found < 0:
            break
        cut = found + len(tag)
        start = _SPACE_RUN.match(data, position, cut).end()
        if start < cut:
            yield start, cut
        position = cut
    start, end = _stripped(data, position, len(data))
    if start < end:
        yield start, end


def split_jsonl(chunks: "Iterable[bytes | str]") -> Iterator[bytes]:
    """Split a JSON-Lines stream into one ``bytes`` record per line.

    JSONL forbids raw newlines inside a record (they are escaped as
    ``\\n`` in string literals), so the record boundary is simply ``\\n``
    — no tag scanning and no backoff needed.  Blank lines are skipped; a
    trailing line without a final newline is yielded as the last record.
    Memory holds one record plus one chunk, like :func:`split_documents`.
    """
    buffer = bytearray()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        buffer += chunk
        while True:
            found = buffer.find(b"\n")
            if found < 0:
                break
            record = bytes(buffer[:found]).strip()
            del buffer[:found + 1]
            if record:
                yield record
    tail = bytes(buffer).strip()
    if tail:
        yield tail


# ----------------------------------------------------------------------
# Incremental UTF-8 handling
# ----------------------------------------------------------------------
def utf8_boundary(data: bytes) -> int:
    """Length of the longest prefix of ``data`` holding whole UTF-8 sequences.

    Looks at most three bytes back from the end (a UTF-8 sequence is at
    most four bytes): if the data ends inside a multi-byte sequence, the
    returned length excludes that partial tail.  Invalid encodings are not
    detected here -- they surface as ``UnicodeDecodeError`` when the bytes
    are eventually decoded.
    """
    length = len(data)
    if not length:
        return 0
    # Find the last non-continuation byte within the final four positions.
    index = length - 1
    floor = max(0, length - 4)
    while index >= floor and 0x80 <= data[index] < 0xC0:
        index -= 1
    if index < floor:
        # Four continuation bytes in a row can never be a split sequence;
        # pass them through and let the eventual decode report them.
        return length
    byte = data[index]
    if byte < 0x80:
        # ASCII last-lead position: any trailing continuation bytes are
        # invalid on their own, not a split sequence -- pass them through.
        return length
    expected = 2 if byte < 0xE0 else 3 if byte < 0xF0 else 4
    return length if length - index >= expected else index


class Utf8ChunkAligner:
    """Re-align a byte-chunk stream onto UTF-8 code-point boundaries.

    ``push(chunk)`` returns the aligned bytes ready for decoding (possibly
    ``b""``); a trailing partial multi-byte sequence is withheld and
    prepended to the next chunk.  ``finish()`` returns the final remainder
    -- non-empty only when the stream ended mid-sequence, which callers
    surface as a decode error.
    """

    __slots__ = ("_tail",)

    def __init__(self) -> None:
        self._tail = b""

    def push(self, chunk: bytes) -> bytes:
        data = self._tail + chunk if self._tail else chunk
        cut = utf8_boundary(data)
        self._tail = data[cut:]
        return data[:cut]

    def finish(self) -> bytes:
        tail, self._tail = self._tail, b""
        return tail


def align_utf8_chunks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Yield the chunk stream re-aligned to UTF-8 code-point boundaries."""
    aligner = Utf8ChunkAligner()
    for chunk in chunks:
        aligned = aligner.push(chunk)
        if aligned:
            yield aligned
    tail = aligner.finish()
    if tail:
        yield tail  # let the consumer's decoder report the malformed tail


class Utf8SlidingDecoder:
    """Incremental UTF-8 decoder for byte fragments split anywhere.

    One instance per output channel: ``decode`` accepts fragments whose
    boundaries may fall inside a multi-byte sequence and returns the
    decodable prefix as ``str``; ``finish`` flushes and raises
    ``UnicodeDecodeError`` on a dangling partial sequence.
    """

    __slots__ = ("_decode",)

    def __init__(self) -> None:
        self._decode = codecs.getincrementaldecoder("utf-8")().decode

    def decode(self, fragment: bytes) -> str:
        return self._decode(fragment)

    def finish(self) -> str:
        return self._decode(b"", True)

    def export_state(self) -> tuple[bytes, int]:
        """The decoder's resume state (pending partial sequence + flags).

        Checkpointing a text-mode session must preserve an emitted fragment
        that ended inside a multi-byte UTF-8 sequence; this surfaces the
        incremental decoder's ``getstate()`` so :meth:`import_state` can
        restore it in a fresh process.
        """
        return self._decode.__self__.getstate()

    def import_state(self, state) -> None:
        """Restore a state captured by :meth:`export_state`."""
        pending, flags = state
        self._decode.__self__.setstate((bytes(pending), int(flags)))


def decode_chunks(chunks: Iterable[bytes]) -> Iterator[str]:
    """Decode a byte-chunk stream to ``str`` chunks incrementally.

    The boundary handling never splits a character: each emitted ``str``
    chunk corresponds to the decodable prefix available so far.  This is
    the compatibility bridge from byte sources to ``str``-consuming
    callers; the filter hot path never uses it.
    """
    decoder = Utf8SlidingDecoder()
    for chunk in chunks:
        text = decoder.decode(chunk)
        if text:
            yield text
    tail = decoder.finish()
    if tail:
        yield tail
