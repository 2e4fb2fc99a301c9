"""Chunked-input substrate of the streaming SMP runtime.

The paper's headline property is that one compiled prefilter runs over
documents from 10 MB to 5 GB (Table I) because the runtime only ever looks at
a bounded window of the input.  This module provides the two pieces that make
the Python reproduction genuinely incremental:

* :class:`ChunkCursor` -- a sliding window addressed by *absolute* stream
  offsets.  Producers append fixed-size chunks at the end; the consumer
  discards everything below a retention floor once it can no longer be
  needed.  The retained carry-over window is sized by the consumer (for the
  SMP runtime: the longest suspended keyword search plus the longest open
  tag), so peak memory is O(chunk + carry window) instead of O(document).
* :func:`iter_chunks` -- a uniform way to turn files, file-like objects,
  whole strings/byte strings and chunk iterables into a chunk stream.

The cursor is *polymorphic over the chunk type*: it holds ``str`` chunks or
``bytes``-like chunks (``bytes``, ``bytearray``, ``mmap``) with the same
API, adopting the type of the first appended chunk.  The byte-native SMP
runtime always feeds it ``bytes`` (see :mod:`repro.core.sources` for the
input subsystem); ``str`` chunks are still accepted.  For a
binary cursor :meth:`ChunkCursor.char` returns the byte *value* (an ``int``,
like ``bytes`` indexing does) and :meth:`ChunkCursor.slice` returns
``bytes``.

Everything downstream (the resumable matchers, :class:`~repro.core.runtime.
RuntimeStream`) speaks absolute offsets so that
positions keep their meaning across chunk boundaries and discards.

Cost model
----------
The cursor is a two-part buffer: a merged string plus a list of appended
segments that have not been merged yet.  ``append`` is O(1) (a list append);
``discard_to`` tracks a dead prefix and only compacts the merged string when
the dead prefix reaches half of it, so the total copying across a stream of
n characters is O(n) amortised regardless of chunk size (every character is
merged at most once and compacted away at most a constant number of times).
Consumers that need a contiguous string for C-level searches call
:meth:`ChunkCursor.view`, which merges the pending segments on demand.  A
single appended ``mmap`` chunk is used as the merged buffer directly (no
copy): searches run against the mapped pages and only the slices actually
copied to output materialise as ``bytes``.
"""

from __future__ import annotations

from typing import IO, AnyStr, Iterable, Iterator

#: Default chunk size of the streaming entry points (64 KiB, the fixed-size
#: read buffer the paper's prototype uses).
DEFAULT_CHUNK_SIZE = 64 * 1024

#: ``discard_to`` leaves dead prefixes below this size uncompacted even when
#: they dominate the buffer -- compacting tiny strings costs more than the
#: memory it returns.
_COMPACT_MIN = 512


class ChunkCursor:
    """A sliding window over a streamed text, addressed by absolute offsets.

    The window holds the characters in ``[base, end)`` of the stream.
    ``append`` extends the window on the right, ``discard_to`` shrinks it on
    the left.  Consumers must never read below the highest ``discard_to``
    floor they have announced.

    ``binary`` selects the chunk type up front (``True`` -> ``bytes``,
    ``False`` -> ``str``); without it the cursor adopts the type of the
    first appended chunk.  All offsets are in the native units of that type
    (bytes for a binary cursor, characters for a text cursor).
    """

    __slots__ = (
        "base", "eof", "_buffer", "_start", "_segments", "_segments_length",
        "_adopt",
    )

    def __init__(self, *, binary: bool | None = None) -> None:
        self.base: int = 0
        self.eof: bool = False
        #: Merged text; ``_buffer[_start:]`` is its live part.  Its type is
        #: the cursor's chunk type (``b""`` for binary cursors).
        self._buffer = b"" if binary else ""
        #: True until the chunk type is fixed -- by an explicit ``binary``
        #: argument or by the first appended chunk.
        self._adopt = binary is None
        #: Dead-prefix length inside ``_buffer`` (units below ``base``).
        self._start: int = 0
        #: Appended chunks not merged into ``_buffer`` yet.
        self._segments: list = []
        self._segments_length: int = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def append(self, chunk) -> None:
        """Append ``chunk`` at the end of the window (O(1)).

        A cursor constructed without ``binary`` adopts the type of its
        *first* chunk (``str`` vs bytes-like), so ``ChunkCursor()`` works
        for both text and byte streams.  Once the type is fixed -- by the
        constructor argument or that first chunk -- appending the other
        type raises ``TypeError`` immediately; the type never silently
        flips back, even when the window is fully drained.

        Mutable chunks (``bytearray``, ``memoryview``) are held *borrowed*,
        without copying: searches run directly against them.  A producer
        that recycles such a buffer (the :class:`repro.core.sources.
        BufferPool` ``readinto`` path) must not overwrite it before the
        consumer called :meth:`seal`, which copies the still-needed suffix
        into owned immutable bytes.
        """
        if chunk:
            if self._adopt:
                if isinstance(chunk, str) != isinstance(self._buffer, str):
                    self._buffer = "" if isinstance(chunk, str) else b""
                self._adopt = False
            elif isinstance(chunk, str) != isinstance(self._buffer, str):
                raise TypeError(
                    f"cannot append {type(chunk).__name__!r} chunk to a "
                    f"{'text' if isinstance(self._buffer, str) else 'binary'} "
                    "cursor"
                )
            self._segments.append(chunk)
            self._segments_length += len(chunk)

    def close(self) -> None:
        """Mark the end of the stream; no further appends are expected."""
        self.eof = True

    def rebase(self, base: int) -> None:
        """Move an empty, unstarted cursor to absolute offset ``base``.

        Restoring a checkpointed session re-creates its window in a fresh
        process: the carry-over bytes are appended to a new cursor whose
        origin must be the absolute stream offset they were captured at, so
        every position stored in the snapshot (cursors, copy regions,
        suspended-search offsets) keeps its meaning.  Only valid before any
        append/discard/close -- a live window cannot be rebased.
        """
        if len(self) or self.base or self.eof:
            raise ValueError("rebase() requires a fresh, empty cursor")
        self.base = base

    def snapshot(self) -> dict:
        """The retained window as checkpoint data: its base offset, the
        bytes buffered from there on and the end-of-input flag."""
        low = self.base
        return {
            "base": low,
            "data": self.slice(low, self.end) if self.end > low else b"",
            "eof": self.eof,
        }

    def restore(self, snapshot: dict) -> None:
        """Re-create a :meth:`snapshot` in this fresh, empty cursor."""
        self.rebase(int(snapshot["base"]))
        data = snapshot["data"]
        if data:
            self.append(bytes(data))
        if snapshot["eof"]:
            self.close()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    @property
    def binary(self) -> bool:
        """True when the cursor holds bytes-like chunks."""
        return not isinstance(self._buffer, str)

    @property
    def end(self) -> int:
        """Absolute offset one past the last buffered character."""
        return self.base + len(self._buffer) - self._start + self._segments_length

    @property
    def text(self):
        """The live window as one string (copies; prefer :meth:`view`)."""
        return self._merged()[self._start:]

    def discard_to(self, position: int) -> None:
        """Drop every buffered character below absolute offset ``position``.

        Whole dead chunks are dropped by reference; partially dead text is
        only compacted once the dead prefix reaches half of the merged
        buffer, which keeps total copying linear in the stream length.
        """
        if position <= self.base:
            return
        limit = self.end
        if position >= limit:
            self._buffer = self._buffer[:0]
            self._start = 0
            self._segments.clear()
            self._segments_length = 0
            self.base = limit
            return
        self._start += position - self.base
        self.base = position
        buffer_length = len(self._buffer)
        if self._start >= buffer_length:
            # The dead prefix swallowed the whole merged buffer: drop it and
            # any fully dead segments without copying, then promote the first
            # partially live segment to be the new merged buffer.
            dead = self._start - buffer_length
            self._buffer = self._buffer[:0]
            self._start = 0
            while self._segments and dead >= len(self._segments[0]):
                dead -= len(self._segments[0])
                self._segments_length -= len(self._segments[0])
                del self._segments[0]
            if dead:
                promoted = self._segments.pop(0)
                if type(promoted) is memoryview:
                    # memoryview lacks ``find``; own it when it becomes the
                    # searchable merged buffer.
                    promoted = bytes(promoted)
                self._buffer = promoted
                self._segments_length -= len(self._buffer)
                self._start = dead
        elif self._start >= _COMPACT_MIN and self._start * 2 >= buffer_length:
            self._buffer = self._buffer[self._start:]
            self._start = 0

    def view(self):
        """``(buffer, buffer_base)``: one contiguous string plus the absolute
        offset of its first character.

        The buffer may begin with an already-discarded dead prefix below
        ``base``; consumers must only read at or above the positions they
        announced as still needed (which are always >= ``base``).  Pending
        segments are merged on demand, so between two appends the same string
        object is returned and no copying happens.
        """
        return self._merged(), self.base - self._start

    def char(self, position: int):
        """The character at absolute offset ``position``.

        For a binary cursor this is the byte *value* (an ``int``), exactly
        like indexing a ``bytes`` object.
        """
        local = position - self.base + self._start
        if local < len(self._buffer):
            return self._buffer[local]
        local -= len(self._buffer)
        for segment in self._segments:
            if local < len(segment):
                return segment[local]
            local -= len(segment)
        raise IndexError(f"offset {position} is outside the buffered window")

    def slice(self, start: int, stop: int):
        """The characters in ``[start, stop)`` (absolute offsets).

        Binary cursors always return owned ``bytes``, even while the window
        is backed by a borrowed mutable buffer (output fragments outlive the
        producer's buffer reuse).
        """
        low = start - self.base + self._start
        high = stop - self.base + self._start
        if high <= len(self._buffer):
            part = self._buffer[low:high]
        else:
            part = self._merged()[low:high]
        if type(part) is bytearray or type(part) is memoryview:
            return bytes(part)
        return part

    def find(self, needle, start: int, stop: int | None = None) -> int:
        """``find`` in absolute coordinates; returns -1 when absent.

        ``needle`` must match the cursor's chunk type (``bytes`` needles on
        a binary cursor).  When the probed region lies inside the merged
        buffer -- or the whole window is a single appended chunk -- the
        search runs directly on that object, avoiding any materialisation
        per probe.
        """
        buffer_length = len(self._buffer)
        low = max(start - self.base, 0) + self._start
        high = (
            buffer_length + self._segments_length
            if stop is None
            else stop - self.base + self._start
        )
        if high <= buffer_length:
            found = self._buffer.find(needle, low, high)
        elif (
            not buffer_length
            and len(self._segments) == 1
            and type(self._segments[0]) is not memoryview
        ):
            # The window spans a single chunk: search its tail directly
            # (memoryview lacks ``find`` and goes through the merge below).
            found = self._segments[0].find(needle, low, high)
        else:
            found = self._merged().find(needle, low, high)
        return -1 if found < 0 else found - self._start + self.base

    def __len__(self) -> int:
        return len(self._buffer) - self._start + self._segments_length

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _merged(self):
        """Merge any pending segments into the buffer and return it."""
        if self._segments:
            if self._buffer:
                self._segments.insert(0, self._buffer)
            if len(self._segments) == 1:
                merged = self._segments[0]
                if type(merged) is memoryview:
                    merged = bytes(merged)
                self._buffer = merged
            else:
                empty = "" if isinstance(self._buffer, str) else b""
                self._buffer = empty.join(self._segments)
            self._segments.clear()
            self._segments_length = 0
        return self._buffer

    # ------------------------------------------------------------------
    # Borrowed-buffer handoff
    # ------------------------------------------------------------------
    def seal(self) -> None:
        """Take ownership of any borrowed mutable chunk data.

        After :meth:`seal` returns, the window no longer references any
        ``bytearray``/``memoryview`` chunk it was fed: the still-live part
        is copied into immutable ``bytes`` (typically just the small
        carry-over suffix -- the processed prefix was already discarded).
        Producers recycling read buffers (``readinto`` ingestion) call this
        through the runtime after every fed chunk, which is what bounds the
        per-chunk allocation to the carry window instead of the chunk size.
        """
        if self._segments and any(
            type(segment) is bytearray or type(segment) is memoryview
            for segment in self._segments
        ):
            # ``join`` over the live pieces produces owned bytes; a single
            # borrowed segment is promoted and handled below.
            self._merged()
        buffer = self._buffer
        if type(buffer) is bytearray or type(buffer) is memoryview:
            self._buffer = bytes(
                memoryview(buffer)[self._start:] if self._start else buffer
            )
            self._start = 0


def iter_chunks(
    source: AnyStr | IO[AnyStr] | Iterable[AnyStr],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[AnyStr]:
    """Yield chunks from any of the supported input shapes, ``str`` or bytes.

    ``source`` may be a whole string or bytes-like object (sliced into
    ``chunk_size`` pieces), a file-like object with ``read`` (text or
    binary, read in ``chunk_size`` pieces), or an iterable of chunks
    (passed through unchanged -- the caller already chose a chunking).
    Byte-oriented sources with richer semantics (``mmap``, sockets, binary
    stdin) live in :mod:`repro.core.sources`.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(source, (str, bytes, bytearray, memoryview)):
        for start in range(0, len(source), chunk_size):
            yield source[start:start + chunk_size]
        return
    read = getattr(source, "read", None)
    if callable(read):
        while True:
            chunk = read(chunk_size)
            if not chunk:
                return
            yield chunk
        return
    for chunk in source:
        if chunk:
            yield chunk


def open_chunks(path: str, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[str]:
    """Read the file at ``path`` as a stream of ``chunk_size`` str chunks.

    This is the *decoding* text path; the byte-native equivalents
    (:func:`repro.core.sources.file_chunks`, ``mmap_chunks``) skip the
    ``bytes -> str`` copy entirely and are what the filter entry points use.
    """
    with open(path, "r", encoding="utf-8") as handle:
        yield from iter_chunks(handle, chunk_size)
