"""Asyncio serving bridge over the unified dataflow API.

The SMP prefilter is CPU-light per byte (that is the paper's point), which
makes it a natural fit for serving XML streams from an event loop: the
blocking edges are the *network*, not the filter.  This module provides the
two asynchronous entry points the roadmap asked for:

* :func:`async_run` — drive a :class:`repro.api.Engine` from a (sync or
  async) chunk source, delivering every projected fragment through
  ``await sink.write(...)``.  A slow consumer therefore backpressures the
  whole dataflow: the next chunk is not fed until the sinks accepted the
  previous output.
* :func:`serve` — a one-socket-in / N-labelled-streams-out server: each
  connection streams one XML document in, and every query of the engine
  streams its projection back as labelled frames over the same socket,
  multiplexed with a tiny length-prefixed framing (see :func:`write_frame`).
  ``await writer.drain()`` between chunks propagates socket backpressure
  into the filter loop.  Per-connection hardening knobs (``idle_timeout``,
  ``feed_timeout``, ``write_limit``) bound how long a stalled peer or a
  hung worker can pin a connection, and :func:`shutdown` drains in-flight
  documents before tearing the server down.

Example — three queries over one socket::

    import asyncio
    from repro import api, aio

    engine = api.Engine([api.Query(q, dtd) for q in queries])

    async def main():
        server = await aio.serve(engine, host="127.0.0.1", port=8043)
        async with server:
            await server.serve_forever()

    asyncio.run(main())

and from a client::

    outputs = await aio.request("127.0.0.1", 8043, api.Source.from_file("doc.xml"))
    # {label: projected bytes, ...}

By default the filtering runs inline on the event loop (it is a tight
C-backed scan over each chunk).  For multi-core serving pass
``serve(engine, workers=N)``: every connection's session then lives inside
a :class:`repro.parallel.WorkerPool` worker process and each ``feed`` is
dispatched through ``run_in_executor`` -- the loop only shuttles chunks
and frames while N cores filter concurrently, with per-connection frame
ordering unchanged (sticky worker routing, sequential awaits).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import struct
import threading
from typing import Callable, Mapping, Sequence, Union

from repro import api
from repro.core.stream import DEFAULT_CHUNK_SIZE
from repro.errors import CheckpointError, QueryError, ReproError

__all__ = [
    "FRAME_DATA",
    "FRAME_END",
    "FRAME_ERROR",
    "FRAME_RECORD",
    "FRAME_RESUME",
    "AsyncCallbackSink",
    "AsyncCollectSink",
    "AsyncSink",
    "StreamWriterSink",
    "async_run",
    "read_frame",
    "request",
    "request_records",
    "serve",
    "serve_records",
    "shutdown",
    "write_frame",
]


# ----------------------------------------------------------------------
# Async sinks
# ----------------------------------------------------------------------
class AsyncSink:
    """An ``await``-able output endpoint; slow sinks backpressure the run."""

    #: Chunk-type preference: True = bytes, False = str, None = either.
    binary: bool | None = None

    async def write(self, fragment) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        """Called exactly once when the run finishes (or is abandoned)."""


class AsyncCollectSink(AsyncSink):
    """Accumulate fragments in memory; :meth:`value` joins them.

    Mode-agnostic (``binary=None``); :func:`async_run` stamps the resolved
    output mode onto :attr:`binary` so :meth:`value` returns the right
    empty value even when nothing was projected.
    """

    def __init__(self) -> None:
        self.fragments: list = []

    async def write(self, fragment) -> None:
        self.fragments.append(fragment)

    def value(self):
        if not self.fragments:
            return b"" if self.binary else ""
        empty = b"" if isinstance(self.fragments[0], bytes) else ""
        return empty.join(self.fragments)


class StreamWriterSink(AsyncSink):
    """Stream projected bytes into an :class:`asyncio.StreamWriter`.

    ``write`` writes and then ``await``\\ s :meth:`~asyncio.StreamWriter.
    drain`, so a slow peer throttles the filter loop — this is the
    backpressure edge of the serving bridge.
    """

    binary = True

    def __init__(self, writer: asyncio.StreamWriter, *,
                 close_writer: bool = False) -> None:
        self._writer = writer
        self._close_writer = close_writer

    async def write(self, fragment: bytes) -> None:
        self._writer.write(fragment)
        await self._writer.drain()

    async def close(self) -> None:
        if self._close_writer:
            self._writer.close()
            with contextlib.suppress(ConnectionError):
                await self._writer.wait_closed()


class AsyncCallbackSink(AsyncSink):
    """Adapt an ``async def callback(fragment)`` to the sink protocol."""

    def __init__(self, callback, *, binary: bool | None = None) -> None:
        self.write = callback
        self.binary = binary


AnyAsyncSink = Union[AsyncSink, Callable, None]


def _as_async_sink(sink: AnyAsyncSink) -> AsyncSink | None:
    if sink is None or isinstance(sink, AsyncSink):
        return sink
    if callable(sink):
        return AsyncCallbackSink(sink)
    raise QueryError(f"cannot interpret {sink!r} as an async sink")


def _normalize_async_sinks(
    sinks: "AnyAsyncSink | Sequence[AnyAsyncSink] | Mapping[str, AnyAsyncSink]",
    labels: Sequence[str],
) -> list[AsyncSink | None] | None:
    return api._normalize_sinks(
        sinks, labels, coerce=_as_async_sink, sink_type=AsyncSink
    )


# ----------------------------------------------------------------------
# async_run
# ----------------------------------------------------------------------
async def async_run(
    source,
    engine: api.Engine,
    sinks: "AnyAsyncSink | Sequence[AnyAsyncSink] | Mapping[str, AnyAsyncSink]" = None,
    *,
    binary: bool | None = None,
    live: bool = False,
    chunk_size: int | None = None,
) -> api.EngineRun:
    """Run the dataflow with ``await``-based sinks (backpressure-aware).

    ``source`` may be a :class:`repro.api.Source`, any raw value
    :meth:`repro.api.Source.of` understands, or an **async iterable** of
    chunks (e.g. chunks arriving from an :class:`asyncio.StreamReader`).
    After every fed chunk, each query's newly emitted fragment is delivered
    via ``await sink.write(fragment)`` before the next chunk is read — a
    slow sink therefore throttles the whole run.  Queries without a sink
    accumulate their output on the returned :class:`repro.api.EngineRun`.
    """
    sink_list = _normalize_async_sinks(sinks, engine.labels)
    binary = api._resolve_binary(binary, sink_list)
    for sink in sink_list or ():
        if sink is not None and sink.binary is None:
            sink.binary = binary  # mode-agnostic sinks adopt the run's mode
    session = engine.open(binary=binary, live=live)
    if sink_list is None:
        sink_list = [None] * len(session.labels)
    pieces: list[list] = [[] for _ in session.labels]

    async def dispatch(outputs: list) -> None:
        while len(pieces) < len(outputs):
            pieces.append([])
            sink_list.append(None)
        for index, fragment in enumerate(outputs):
            if not fragment:
                continue
            sink = sink_list[index] if index < len(sink_list) else None
            if sink is None:
                pieces[index].append(fragment)
            else:
                await sink.write(fragment)

    try:
        if hasattr(source, "__aiter__"):
            async for chunk in source:
                await dispatch(session.feed(chunk))
        else:
            with api.Source.of(source, chunk_size=chunk_size).open() as chunks:
                for chunk in chunks:
                    await dispatch(session.feed(chunk))
                await dispatch(session.finish())
        if not session.finished:
            await dispatch(session.finish())
    finally:
        session.close()
        for sink in sink_list:
            if sink is not None:
                await sink.close()
    empty = b"" if binary else ""
    results = [
        api.QueryResult(
            label=label,
            output=empty.join(parts),
            stats=stats,
            compilation=session._compilation(index),
        )
        for index, (label, parts, stats) in enumerate(
            zip(session.labels, pieces, session.stats)
        )
    ]
    return api.EngineRun(results=results, scan_stats=session.scan_stats)


# ----------------------------------------------------------------------
# Framing: one socket in, N labelled streams out
# ----------------------------------------------------------------------
#: Frame header: kind (1 byte), label length (2 bytes), payload length
#: (4 bytes), network byte order; label and payload bytes follow.
FRAME_HEADER = struct.Struct("!BHI")
FRAME_DATA = 0    #: a projected fragment for the labelled query
FRAME_END = 1     #: the labelled query's stream is complete
FRAME_ERROR = 2   #: the run failed; payload is the error message
FRAME_RESUME = 3  #: server → client: committed input offset to resume from
FRAME_RECORD = 4  #: one record fully projected + checkpointed; payload = index


#: Reused header scratch of :func:`write_frame` -- packed in place and
#: immediately copied into the frame, so no per-frame header allocation.
#: Thread-local: event loops in different threads never share a scratch.
_HEADER_SCRATCH = threading.local()


def write_frame(writer: asyncio.StreamWriter, kind: int, label: bytes,
                payload: bytes) -> None:
    """Serialize one frame onto ``writer`` (buffer only; drain separately).

    The frame is assembled into a single ``write`` call (header packed into
    a reused scratch buffer), which keeps the transport buffer from
    fragmenting into three tiny writes per frame.
    """
    try:
        header = _HEADER_SCRATCH.buffer
    except AttributeError:
        header = _HEADER_SCRATCH.buffer = bytearray(FRAME_HEADER.size)
    FRAME_HEADER.pack_into(header, 0, kind, len(label), len(payload))
    if label or payload:
        writer.write(b"".join((header, label, payload)))
    else:
        writer.write(bytes(header))


async def read_frame(reader: asyncio.StreamReader):
    """Read one frame; returns ``(kind, label, payload)`` or None at EOF."""
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise
    kind, label_length, payload_length = FRAME_HEADER.unpack(header)
    label = await reader.readexactly(label_length) if label_length else b""
    payload = (
        await reader.readexactly(payload_length) if payload_length else b""
    )
    return kind, label, payload


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class _ServeTimeout(Exception):
    """Internal: a per-connection timeout fired (reported as FRAME_ERROR).

    Deliberately *not* ``TimeoutError``: the builtin is an ``OSError``
    subclass, and the handler swallows socket-level ``OSError`` quietly --
    a timeout must instead reach the client as an error frame.
    """


async def _timed(awaitable, timeout: "float | None", what: str):
    if timeout is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise _ServeTimeout(what) from None


async def serve(
    engine: api.Engine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 0,
    worker_pool=None,
    idle_timeout: "float | None" = None,
    feed_timeout: "float | None" = None,
    write_limit: "int | None" = None,
) -> asyncio.Server:
    """Serve the engine's queries over TCP: one document per connection.

    A client streams one UTF-8 XML document and half-closes the write side
    (``write_eof``); the server streams back every query's projection as
    labelled :data:`FRAME_DATA` frames interleaved in emission order,
    closing each stream with :data:`FRAME_END` — N labelled output streams
    multiplexed over the one socket.  Filter failures (non-conforming
    documents) produce one :data:`FRAME_ERROR` frame.  ``await drain()``
    after each fed chunk propagates the client's read backpressure into the
    filter loop.

    With ``workers=N`` (or an explicit :class:`repro.parallel.WorkerPool`
    via ``worker_pool``) every connection's session lives inside a worker
    *process* and each ``feed`` is dispatched through ``run_in_executor``:
    the byte-scanning CPU work leaves the event loop, so N cores serve N
    connections concurrently while the loop only shuttles chunks and
    frames.  A connection's chunks always reach its one worker in order,
    so per-connection frame ordering is identical to in-loop filtering.
    The created pool is exposed as ``server.worker_pool``; close it
    (``server.worker_pool.close()``) when done serving, or let
    :func:`shutdown` do both.

    Hardening knobs (all default off, preserving pre-existing behaviour):

    * ``idle_timeout`` — seconds to wait for the *client's next chunk*; on
      expiry the client gets a :data:`FRAME_ERROR` and the connection
      closes, so an abandoned half-open connection cannot pin a session
      (or a pool worker) forever.
    * ``feed_timeout`` — seconds allowed per ``feed``/``finish`` call
      (relevant with ``worker_pool``, where each call round-trips to a
      worker process that may have died or hung).
    * ``write_limit`` — high-water mark in bytes for the per-connection
      transport buffer.  ``drain()`` then blocks as soon as this many
      bytes are un-acked, bounding the frames in flight towards a slow
      consumer instead of buffering the whole projection in memory.

    Every connection handler task is tracked on ``server.connections``;
    :func:`shutdown` uses that set to drain in-flight documents before
    tearing the server down.

    Returns the started :class:`asyncio.Server` (use ``server.sockets`` for
    the bound port when ``port=0``).
    """
    owns_pool = False
    if workers and worker_pool is None:
        from repro.parallel import WorkerPool

        worker_pool = WorkerPool(engine, workers)
        owns_pool = True

    connections: set[asyncio.Task] = set()

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            await handle_connection(
                engine, reader, writer, chunk_size=chunk_size,
                worker_pool=worker_pool, idle_timeout=idle_timeout,
                feed_timeout=feed_timeout, write_limit=write_limit,
            )
        finally:
            connections.discard(task)

    server = await asyncio.start_server(handle, host=host, port=port)
    server.worker_pool = worker_pool
    server.connections = connections
    server._owns_worker_pool = owns_pool
    return server


async def shutdown(server: asyncio.Server, *,
                   timeout: "float | None" = None) -> None:
    """Gracefully stop a :func:`serve` server: drain, then tear down.

    Closes the listening socket first (new connections are refused
    immediately), then waits up to ``timeout`` seconds for the in-flight
    connection handlers tracked on ``server.connections`` to finish their
    documents.  Handlers still running after the deadline are cancelled.
    A worker pool that :func:`serve` created itself (``workers=N``) is
    closed as well; an explicitly supplied ``worker_pool`` stays open --
    its owner decides its lifetime.
    """
    server.close()
    pending = {
        task for task in getattr(server, "connections", ())
        if not task.done()
    }
    if pending:
        done, stragglers = await asyncio.wait(pending, timeout=timeout)
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
    pool = getattr(server, "worker_pool", None)
    if pool is not None and getattr(server, "_owns_worker_pool", False):
        await asyncio.get_running_loop().run_in_executor(None, pool.close)


async def handle_connection(
    engine: api.Engine,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    worker_pool=None,
    idle_timeout: "float | None" = None,
    feed_timeout: "float | None" = None,
    write_limit: "int | None" = None,
) -> None:
    """Filter one connection's document; used by :func:`serve` per client.

    With ``worker_pool`` the session lives in a worker process and every
    ``feed``/``finish`` round-trips through the default executor, keeping
    the event loop free for other connections.

    Failure containment is per connection: a malformed document, a timeout
    or any unexpected error produces one :data:`FRAME_ERROR` frame and a
    clean close; a client that vanished mid-stream (reset, abort, EOF at
    the TCP layer) is dropped quietly.  Neither case disturbs the other
    connections or the server itself.
    """
    session = None
    if write_limit is not None:
        writer.transport.set_write_buffer_limits(high=write_limit)
    try:
        # Session setup is inside the error envelope: with a worker pool it
        # round-trips to another process and can fail (dead worker, closed
        # pool) -- the client still deserves its FRAME_ERROR and a closed
        # connection rather than a hang.
        if worker_pool is not None:
            loop = asyncio.get_running_loop()
            session = await loop.run_in_executor(
                None, lambda: worker_pool.open_session(binary=True)
            )
            labels = [label.encode("utf-8") for label in session.labels]

            async def feed(chunk):
                return await loop.run_in_executor(None, session.feed, chunk)

            async def finish():
                return await loop.run_in_executor(None, session.finish)
        else:
            session = engine.open(binary=True)
            labels = [label.encode("utf-8") for label in session.labels]

            async def feed(chunk):
                return session.feed(chunk)

            async def finish():
                return session.finish()

        while True:
            chunk = await _timed(
                reader.read(chunk_size), idle_timeout,
                f"idle timeout: no data from client for {idle_timeout} s",
            )
            if not chunk:
                break
            outputs = await _timed(
                feed(chunk), feed_timeout,
                f"feed timeout: filter made no progress in {feed_timeout} s",
            )
            _write_outputs(writer, labels, outputs)
            await writer.drain()
        outputs = await _timed(
            finish(), feed_timeout,
            f"feed timeout: finish made no progress in {feed_timeout} s",
        )
        _write_outputs(writer, labels, outputs)
        for label in labels:
            write_frame(writer, FRAME_END, label, b"")
        await writer.drain()
    except asyncio.CancelledError:
        raise
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        pass  # the client went away mid-stream; nobody left to tell
    except Exception as error:  # noqa: BLE001 -- error frame, not task death
        message = str(error) or error.__class__.__name__
        if not isinstance(error, (ReproError, _ServeTimeout)):
            message = f"{error.__class__.__name__}: {message}"
        with contextlib.suppress(OSError):
            write_frame(writer, FRAME_ERROR, b"", message.encode("utf-8"))
            await writer.drain()
    finally:
        if session is not None:
            with contextlib.suppress(Exception):
                session.close()
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


def _write_outputs(writer: asyncio.StreamWriter, labels: list[bytes],
                   outputs: list) -> None:
    for label, fragment in zip(labels, outputs):
        if fragment:
            write_frame(writer, FRAME_DATA, label, fragment)


# ----------------------------------------------------------------------
# Record streams: checkpoint at record boundaries, resume after reconnect
# ----------------------------------------------------------------------
async def serve_records(
    engine: api.Engine,
    *,
    end_tag: "bytes | str",
    checkpoint: "str | os.PathLike",
    host: str = "127.0.0.1",
    port: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    idle_timeout: "float | None" = None,
) -> asyncio.Server:
    """Serve a resumable record stream (MEDLINE-style ``tail`` feeds).

    A client streams many concatenated documents (records, each ending in
    ``end_tag``, the unit :meth:`repro.api.Source.from_records` splits on).
    The server filters each complete record through a fresh session, frames
    every query's projection back (:data:`FRAME_DATA` per label, then one
    :data:`FRAME_RECORD` whose payload is the decimal record index), and
    **checkpoints at the record boundary**: after each record the committed
    input offset and record index are written atomically to ``checkpoint``
    (checksummed, see :mod:`repro.checkpoint`).

    Resume-after-reconnect: on every new connection the server first sends
    a :data:`FRAME_RESUME` frame whose payload is the committed input
    offset in decimal ASCII.  A reconnecting client seeks its stream to
    that offset and continues — records the server already projected and
    checkpointed are never re-sent and never re-emitted (exactly-once
    output across reconnects).  Bytes after the last committed boundary
    (a partially transmitted record) are re-sent by the client and
    re-filtered from scratch.

    A checkpoint file that exists but fails its checksum, or that was
    captured under a different query set or ``end_tag``, raises
    :class:`~repro.errors.CheckpointError` at connection time (reported to
    the client as a :data:`FRAME_ERROR`) — it is never silently ignored.
    """
    from repro.checkpoint import read_checkpoint, write_checkpoint

    end = end_tag.encode("utf-8") if isinstance(end_tag, str) else bytes(end_tag)
    checkpoint_path = os.fspath(checkpoint)
    fingerprints = engine._query_fingerprints()
    connections: set[asyncio.Task] = set()
    lock = asyncio.Lock()  # one committing connection at a time

    def load_state() -> tuple[int, int]:
        if not os.path.exists(checkpoint_path):
            return 0, 0
        snapshot = read_checkpoint(checkpoint_path)
        if snapshot.get("kind") != "records":
            raise CheckpointError(
                f"{checkpoint_path!r} is not a record-stream checkpoint"
            )
        if snapshot.get("query_hashes") != fingerprints:
            raise CheckpointError(
                "record-stream checkpoint was captured under a different "
                "query set; refusing to resume"
            )
        if snapshot.get("end_tag") != end:
            raise CheckpointError(
                "record-stream checkpoint was captured with a different "
                "record end tag; refusing to resume"
            )
        return int(snapshot["input_offset"]), int(snapshot["record_index"])

    def commit(offset: int, index: int) -> None:
        write_checkpoint(checkpoint_path, {
            "kind": "records",
            "version": 1,
            "input_offset": offset,
            "record_index": index,
            "query_hashes": fingerprints,
            "end_tag": end,
        })

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        connections.add(task)
        try:
            async with lock:
                await _handle_records(
                    engine, reader, writer, end=end,
                    load_state=load_state, commit=commit,
                    chunk_size=chunk_size, idle_timeout=idle_timeout,
                )
        finally:
            connections.discard(task)

    server = await asyncio.start_server(handle, host=host, port=port)
    server.worker_pool = None
    server.connections = connections
    server._owns_worker_pool = False
    return server


async def _handle_records(
    engine: api.Engine,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    end: bytes,
    load_state,
    commit,
    chunk_size: int,
    idle_timeout: "float | None",
) -> None:
    """One record-stream connection: resume handshake, filter, commit."""
    loop_labels = [label.encode("utf-8") for label in engine.labels]
    try:
        offset, record_index = load_state()
        write_frame(writer, FRAME_RESUME, b"", str(offset).encode("ascii"))
        await writer.drain()

        buffer = bytearray()
        while True:
            chunk = await _timed(
                reader.read(chunk_size), idle_timeout,
                f"idle timeout: no data from client for {idle_timeout} s",
            )
            if not chunk:
                break
            buffer += chunk
            while True:
                position = buffer.find(end)
                if position < 0:
                    break
                record = bytes(buffer[:position + len(end)])
                del buffer[:position + len(end)]
                session = engine.open(binary=True)
                try:
                    pieces: list[list] = [[] for _ in loop_labels]
                    for outputs in (session.feed(record), session.finish()):
                        for index, fragment in enumerate(outputs):
                            if fragment:
                                pieces[index].append(fragment)
                finally:
                    session.close()
                for label, parts in zip(loop_labels, pieces):
                    if parts:
                        write_frame(writer, FRAME_DATA, label, b"".join(parts))
                offset += len(record)
                commit(offset, record_index + 1)
                write_frame(
                    writer, FRAME_RECORD, b"",
                    str(record_index).encode("ascii"),
                )
                record_index += 1
                await writer.drain()
        for label in loop_labels:
            write_frame(writer, FRAME_END, label, b"")
        await writer.drain()
    except asyncio.CancelledError:
        raise
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        pass  # the client went away; its unprocessed tail is re-sent later
    except Exception as error:  # noqa: BLE001 -- error frame, not task death
        message = str(error) or error.__class__.__name__
        if not isinstance(error, (ReproError, _ServeTimeout)):
            message = f"{error.__class__.__name__}: {message}"
        with contextlib.suppress(OSError):
            write_frame(writer, FRAME_ERROR, b"", message.encode("utf-8"))
            await writer.drain()
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


async def request_records(
    host: str,
    port: int,
    source,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> "tuple[int, dict[int, dict[str, bytes]]]":
    """Client for :func:`serve_records`: stream records, honour resume.

    Reads the server's :data:`FRAME_RESUME` offset first, skips that many
    bytes of ``source`` (records the server already committed), streams
    the rest and collects the per-record projections.  Returns
    ``(resume_offset, {record_index: {label: bytes}})`` — the caller can
    verify exactly-once processing across reconnects by unioning the maps.

    A producer that died mid-record simply streams a truncated ``source``:
    the server projects and commits every *complete* record it received,
    and the bytes after the last record boundary are re-sent on the next
    connection (the :data:`FRAME_RESUME` offset never points mid-record).
    """
    from repro.checkpoint import resume_chunks

    reader, writer = await asyncio.open_connection(host, port)
    try:
        frame = await read_frame(reader)
        if frame is not None and frame[0] == FRAME_ERROR:
            raise ReproError(
                f"server error: {frame[2].decode('utf-8', 'replace')}"
            )
        if frame is None or frame[0] != FRAME_RESUME:
            raise ReproError("server did not offer a resume offset")
        resume_offset = int(frame[2].decode("ascii"))

        records: dict[int, dict[str, bytes]] = {}
        pending: dict[str, list[bytes]] = {}

        async def pump() -> None:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                kind, label_bytes, payload = frame
                if kind == FRAME_ERROR:
                    raise ReproError(
                        f"server error: {payload.decode('utf-8', 'replace')}"
                    )
                if kind == FRAME_DATA:
                    label = label_bytes.decode("utf-8")
                    pending.setdefault(label, []).append(payload)
                elif kind == FRAME_RECORD:
                    index = int(payload.decode("ascii"))
                    records[index] = {
                        label: b"".join(parts)
                        for label, parts in pending.items()
                    }
                    pending.clear()

        # Frames are consumed concurrently with the upload so a projection
        # larger than the socket buffers cannot deadlock the exchange.
        pump_task = asyncio.ensure_future(pump())
        try:
            with api.Source.of(source, chunk_size=chunk_size).open() as chunks:
                for chunk in resume_chunks(chunks, resume_offset):
                    if isinstance(chunk, str):
                        chunk = chunk.encode("utf-8")
                    writer.write(chunk)
                    await writer.drain()
            writer.write_eof()
            await pump_task
        finally:
            if not pump_task.done():
                pump_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await pump_task
        return resume_offset, records
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()


async def request(
    host: str,
    port: int,
    source,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> dict[str, bytes]:
    """Client for :func:`serve`: send one document, demux the responses.

    Streams ``source`` (a :class:`repro.api.Source` or raw value) to the
    server, half-closes, and collects every labelled stream until all
    :data:`FRAME_END` frames arrived.  Returns ``{label: projected bytes}``;
    a :data:`FRAME_ERROR` frame raises :class:`~repro.errors.ReproError`.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        with api.Source.of(source, chunk_size=chunk_size).open() as chunks:
            for chunk in chunks:
                if isinstance(chunk, str):
                    chunk = chunk.encode("utf-8")
                writer.write(chunk)
                await writer.drain()
        writer.write_eof()
        outputs: dict[str, list[bytes]] = {}
        # Read to connection close: the client cannot know the label set up
        # front (a label whose only frame is its END may arrive last), and
        # the server closes the connection right after the END frames.
        while True:
            frame = await read_frame(reader)
            if frame is None:
                break
            kind, label_bytes, payload = frame
            label = label_bytes.decode("utf-8")
            if kind == FRAME_ERROR:
                raise ReproError(
                    f"server error: {payload.decode('utf-8', 'replace')}"
                )
            if kind == FRAME_DATA:
                outputs.setdefault(label, []).append(payload)
            elif kind == FRAME_END:
                outputs.setdefault(label, [])
        return {label: b"".join(parts) for label, parts in outputs.items()}
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()