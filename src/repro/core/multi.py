"""Shared-scan multi-query engine: one document pass feeding N prefilters.

The point of SMP prefiltering is that XPath evaluation collapses to keyword
scanning -- and keyword scanning amortises: one automaton pass over the
union vocabulary of N compiled queries costs one document scan regardless of
N.  :class:`MultiQueryEngine` exploits that.  It compiles every query to its
own :class:`~repro.core.prefilter.SmpPrefilter` plan (shared through the
plan cache), unions their keyword sets into one
:class:`~repro.matching.dispatch.KeywordDispatcher` (whose trie-compiled
union pattern is an Aho-Corasick-style automaton executed in C), and drives
one :class:`~repro.core.runtime.DrivenStream` per query from the shared hit
stream::

    engine = MultiQueryEngine(dtd, [q2, q5, q7], backend="native")
    session = engine.session()
    for chunk in chunks:
        session.feed(chunk)
    session.finish()

(The public one-shot spelling is ``repro.api.Engine([q2, q5, q7]).run(
source)``.)

The shared scan is the second of the two event sources of the one
Figure-4 step (:meth:`~repro.core.runtime._FilterStreamBase.take`; the
first is a searching stream's own search).  It has two deliveries: the
pure union-pattern loop calls each subscribed stream's ``push_token``,
which takes that step, and the C ``step_events`` kernel runs the same
step from tables :func:`~repro.core.runtime.compile_step_tables` derives
from it.

Equivalence: each driven stream replays exactly the decisions its private
:class:`~repro.core.runtime.RuntimeStream` would have made, so per-query
output and the structural statistics (tokens matched/copied, regions,
initial jumps, local scans, sizes) are byte-identical to N independent
:class:`~repro.core.prefilter.FilterSession` runs.  What changes is the
cost: the character-scanning work happens once, on the shared scan, instead
of once per query -- per-query matcher counters (comparisons, shifts) are
therefore zero and the engine-level :attr:`MultiQuerySession.scan_stats`
carries the once-paid scan cost.

Two dispatch refinements keep the per-hit interpreter cost low:

* *Dynamic subscriptions.*  A hit is resolved (validity check, end-of-tag
  scan) and dispatched only when some stream's **current** state searches
  its keyword; everything else is skipped after one dictionary probe -- the
  shared-scan analogue of the searching runtimes skipping irrelevant
  regions.
* *Free prefix expansion.*  Union keywords that are prefixes of a scanned
  hit co-occur at its position but are always false matches (the next
  character belongs to the longer keyword's tag name), so their rejection
  bookkeeping is dispatched without reading the text.

Like the single-query session, a :class:`MultiQuerySession` is incremental
and *byte-native*: feed arbitrary ``bytes`` chunks (``str`` chunks are
UTF-8 encoded on entry), the union automaton is a ``bytes`` pattern running
directly on the buffered wire/disk representation, and memory stays
O(chunk + carry window) where the carry window covers the suspended scan
tail plus un-flushed copy regions across all queries.  Only the bytes each
query actually copies to output are ever decoded (text mode) -- or none at
all (``binary=True``).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.accel import load_accel
from repro.core.prefilter import SmpPrefilter
from repro.core.runtime import (
    AnySink,
    DrivenStream,
    StepProgram,
    check_output_mode,
    compile_step_tables,
    resolve_delivery,
    scan_tag_end,
)
from repro.core.stats import CompilationStatistics, RunStatistics
from repro.core.stream import DEFAULT_CHUNK_SIZE, ChunkCursor, iter_chunks
from repro.core.tables import RuntimeTables
from repro.dtd.model import Dtd
from repro.errors import CheckpointError, QueryError, RuntimeFilterError
from repro.matching.dispatch import KeywordDispatcher
from repro.projection.extraction import QuerySpec, extract_paths_from_xpath
from repro.xml.escape import is_name_byte


@dataclass
class MultiQueryRun:
    """The result of filtering one document against N queries."""

    labels: list[str]
    outputs: list[str]
    stats: list[RunStatistics]
    scan_stats: RunStatistics
    compilations: list[CompilationStatistics] = field(default_factory=list)

    def __iter__(self):
        return iter(zip(self.labels, self.outputs, self.stats))


def _all_keywords(tables: RuntimeTables) -> set[bytes]:
    """Every UTF-8 keyword a runtime can search for, across all its states."""
    keywords: set[bytes] = set()
    for vocabulary in tables.vocabulary_bytes.values():
        keywords.update(vocabulary)
    return keywords


#: Bound on the step programs cached on one dispatcher.  An engine's own
#: queries fit many times over; live attaches of ever-new plans to sessions
#: sharing the engine's dispatcher cannot grow the cache past it.
STEP_PROGRAM_CACHE_SIZE = 256


def _step_program(dispatcher, tables: RuntimeTables, accel_mod) -> StepProgram:
    """The native step program of ``tables`` over ``dispatcher``'s union.

    The capsule is immutable once compiled, so it is cached on the
    (immutable) dispatcher and shared by every session that uses it.
    """
    cache = dispatcher.step_programs
    entry = cache.get(id(tables))  # the entry keeps its tables (and id) alive
    if entry is None:
        if len(cache) >= STEP_PROGRAM_CACHE_SIZE:
            cache.clear()
        entry = cache[id(tables)] = (
            tables,
            compile_step_tables(tables, dispatcher.keywords, accel_mod),
        )
    return entry[1]


class _NativeStep:
    """Cached native-stepping context of one (dispatcher, stream set) pair.

    Holds everything the C ``step_events`` kernel consumes per call: the
    per-stream :class:`~repro.core.runtime.StepProgram` capsules (compiled
    once per runtime-table object and dispatcher, see
    :func:`_step_program`), the session's 16-slot-per-stream state array and
    one output ``bytearray`` per stream, into which the kernel copies the
    bytes of each decided span.  The buffers are empty between calls.
    Rebuilt whenever the dispatcher changes (an attach brought new
    keywords) or the stream count changes.
    """

    __slots__ = (
        "dispatcher", "count", "programs", "capsules", "state", "outputs",
        "prefix_starts", "prefix_ids",
    )

    def __init__(self, dispatcher, prefilters, accel_mod) -> None:
        self.dispatcher = dispatcher
        self.count = len(prefilters)
        programs = [
            _step_program(dispatcher, plan.tables, accel_mod)
            for plan in prefilters
        ]
        self.programs = programs
        self.capsules = tuple(program.capsule for program in programs)
        self.state = array("q", bytes(8 * 16 * self.count))
        self.outputs = tuple(bytearray() for _ in prefilters)
        self.prefix_starts = dispatcher.prefix_starts
        self.prefix_ids = dispatcher.prefix_ids


class MultiQueryEngine:
    """Compile N queries into one shared-scan filtering plan.

    Parameters
    ----------
    dtd:
        The common schema of the incoming documents.
    queries:
        XPath strings (projection paths are extracted automatically),
        workload :class:`QuerySpec` objects, or prebuilt
        :class:`SmpPrefilter` plans -- mixed freely.
    backend:
        Matcher backend of the per-query plans (``"native"`` is the
        wall-clock oriented default); the shared scan itself runs on the
        backend-independent union automaton.
    use_plan_cache:
        Share compiled plans through :meth:`SmpPrefilter.cached`, so
        constructing several engines over overlapping query sets compiles
        each query once.

    The engine is immutable after construction; open one
    :class:`MultiQuerySession` per document (any number concurrently).
    """

    def __init__(
        self,
        dtd: Dtd,
        queries: Sequence["str | QuerySpec | SmpPrefilter"],
        *,
        backend: str = "native",
        use_plan_cache: bool = True,
    ) -> None:
        if not queries:
            raise QueryError("MultiQueryEngine needs at least one query")
        self.dtd = dtd
        self.backend = backend
        self.labels: list[str] = []
        self.prefilters: list[SmpPrefilter] = []
        for index, query in enumerate(queries):
            if isinstance(query, SmpPrefilter):
                label = f"Q{index + 1}"
                plan = query
            elif isinstance(query, QuerySpec):
                label = query.name
                plan = (
                    SmpPrefilter.cached_for_query(dtd, query, backend=backend)
                    if use_plan_cache
                    else SmpPrefilter.compile_for_query(dtd, query, backend=backend)
                )
            else:
                label = str(query)
                compile_plan = (
                    SmpPrefilter.cached if use_plan_cache else SmpPrefilter.compile
                )
                plan = compile_plan(
                    dtd,
                    extract_paths_from_xpath(str(query)),
                    backend=backend,
                    add_default_paths=False,
                )
            self.labels.append(label)
            self.prefilters.append(plan)
        #: Owner index -> every UTF-8 keyword that query can search for.
        self.vocabularies: dict[int, set[bytes]] = {
            index: _all_keywords(plan.tables)
            for index, plan in enumerate(self.prefilters)
        }
        #: Shared, immutable: owners table + union scan automaton.
        self.dispatcher = KeywordDispatcher(self.vocabularies, backend=backend)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(
        self,
        *,
        sinks: Sequence[AnySink | None] | None = None,
        binary: bool = False,
        delivery: "str | None" = None,
    ) -> "MultiQuerySession":
        """Open a streaming session for one document.

        ``sinks`` optionally routes each query's projected fragments to its
        own callback (one entry per query, ``None`` entries accumulate); the
        per-feed return values are then empty for those queries.  With
        ``binary=True`` every output channel carries raw projected bytes.
        ``delivery`` selects the union-scan delivery mode (see
        :data:`repro.core.runtime.DELIVERIES`): ``"accel"`` runs scan and
        stepping in the optional C kernel, ``"batched"`` the pure loop;
        both are byte-identical in output and statistics.
        """
        return MultiQuerySession(
            self, sinks=sinks, binary=binary, delivery=delivery
        )


class MultiQuerySession:
    """One shared-scan filtering run of N queries over one document.

    The session owns the shared :class:`ChunkCursor` window and one
    :class:`DrivenStream` per query; the engine's dispatcher provides the
    union automaton.  ``feed`` returns the list of newly emitted per-query
    outputs (empty strings when sinks are used); ``finish`` validates
    acceptance for every query and returns the remaining outputs.

    Query membership is *live*: :meth:`attach` adds a query mid-document
    (it observes the stream from the current dispatch frontier on, exactly
    as a fresh session fed only the remaining input) and :meth:`detach`
    freezes one (no further output, no further statistics mutation).  The
    dynamic subscription registry already treats membership per keyword, so
    attach/detach reduce to subscription edits plus — when an attached
    query brings new keywords — a session-local rebuild of the union scan
    automaton.
    """

    def __init__(
        self,
        engine: MultiQueryEngine,
        sinks: Sequence[AnySink | None] | None = None,
        *,
        binary: bool = False,
        delivery: "str | None" = None,
    ) -> None:
        if sinks is not None and len(sinks) != len(engine.prefilters):
            raise QueryError(
                f"expected {len(engine.prefilters)} sinks, got {len(sinks)}"
            )
        self.engine = engine
        self.binary = binary
        #: Per-session plan list (the engine's, plus attached queries).
        self.prefilters: list[SmpPrefilter] = list(engine.prefilters)
        #: Per-session labels (the engine's, plus attached queries).
        self.labels: list[str] = list(engine.labels)
        self._window = ChunkCursor(binary=True)
        self._streams = [
            DrivenStream(
                plan.tables,
                self._window,
                sink=None if sinks is None else sinks[index],
                binary=binary,
            )
            for index, plan in enumerate(engine.prefilters)
        ]
        self._dispatcher = engine.dispatcher
        #: Owner index -> full keyword vocabulary; session-local so attached
        #: queries can extend the union automaton.
        self._vocabularies: dict[int, set[bytes]] = dict(engine.vocabularies)
        self._detached: list[bool] = [False] * len(self._streams)
        self._attach_offsets: list[int] = [0] * len(self._streams)
        #: Absolute offset the union scan resumes from; every token
        #: starting below it has been dispatched.
        self._scan_from = 0
        self._finished = False
        #: Engine-level counters: the once-paid scanning cost plus timings.
        self.scan_stats = RunStatistics()
        # Dynamic subscriptions: byte keyword -> indices of streams whose
        # *current* state searches it.  Hits nobody subscribes to are
        # dropped after one dictionary probe, unresolved.
        self._subscribed: list[tuple[bytes, ...]] = [() for _ in self._streams]
        self._subscribers: dict[bytes, list[int]] = {}
        #: (old, new) vocabulary tuples -> (removals, additions); transitions
        #: cycle through few distinct state pairs, so diffs are computed once.
        self._diff_cache: dict[tuple, tuple[tuple[bytes, ...], tuple[bytes, ...]]] = {}
        # Delivery of the shared scan (byte-identical in output and
        # counters): "batched" runs the pure union-pattern loop, "accel"
        # steps the driven streams natively (scan + dispatch + transition
        # + span emission in one C loop).
        self._mode = resolve_delivery(delivery)
        self._accel = load_accel() if self._mode == "accel" else None
        if delivery == "accel" and self._accel is None:
            self.scan_stats.accel_degraded = 1
        self._native: _NativeStep | None = None
        for index in range(len(self._streams)):
            self._resubscribe(index)

    @property
    def delivery(self) -> str:
        """The effective delivery mode of the shared union scan."""
        return self._mode

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> list[RunStatistics]:
        """Per-query structural statistics (complete after ``finish``)."""
        return [stream.stats for stream in self._streams]

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has completed."""
        return self._finished

    @property
    def buffered_bytes(self) -> int:
        """Input bytes currently retained in the shared window."""
        return len(self._window)

    def is_attached(self, index: int) -> bool:
        """True while query ``index`` still participates in the scan."""
        return not self._detached[index]

    def attach_offset(self, index: int) -> int:
        """Absolute byte offset query ``index`` started observing from."""
        return self._attach_offsets[index]

    def accepted(self, index: int) -> bool:
        """True once query ``index``'s runtime automaton reached a final
        state (mid-document attached queries may legitimately never do)."""
        return self._streams[index].accepted

    # ------------------------------------------------------------------
    # Checkpoint: capture and restore
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Capture the whole session -- shared window, union-scan cursor,
        every per-query stream -- as plain data.

        Valid at any feed boundary: the union scan's batch contract never
        suspends mid-candidate between feeds, so the snapshot is exact and
        independent of the delivery mode it was captured under.
        """
        if self._finished:
            raise CheckpointError(
                "cannot checkpoint a finished multi-query session"
            )
        return {
            "kind": "multi",
            "binary": self.binary,
            "input_offset": self.scan_stats.input_size,
            "scan_from": self._scan_from,
            "window": self._window.snapshot(),
            "scan_stats": self.scan_stats.export_state(),
            "streams": [stream.export_state() for stream in self._streams],
            "detached": list(self._detached),
            "attach_offsets": list(self._attach_offsets),
            "labels": list(self.labels),
            "finished": self._finished,
        }

    def import_state(self, snapshot: dict) -> None:
        """Restore a snapshot captured by :meth:`export_state`.

        Must be called on a fresh session built over the same query set
        (queries attached after construction must be re-attached first --
        the restore then overwrites every stream's mutable state, including
        its attach offset).  Keyword subscriptions and the native stepping
        context are rebuilt from the restored automaton states.
        """
        if snapshot.get("kind") != "multi":
            raise CheckpointError("snapshot is not a multi-query checkpoint")
        if self.scan_stats.input_size or len(self._window) or self._window.base:
            raise CheckpointError(
                "import_state requires a freshly constructed session"
            )
        check_output_mode(snapshot["binary"], self.binary)
        streams_state = snapshot["streams"]
        if len(streams_state) != len(self._streams):
            raise CheckpointError(
                f"checkpoint holds {len(streams_state)} queries but this "
                f"session has {len(self._streams)}; re-attach the same "
                "query set before restoring"
            )
        self._window.restore(snapshot["window"])
        self.scan_stats = RunStatistics.from_state(snapshot["scan_stats"])
        self._scan_from = int(snapshot["scan_from"])
        self._detached = [bool(flag) for flag in snapshot["detached"]]
        self._attach_offsets = [
            int(offset) for offset in snapshot["attach_offsets"]
        ]
        self.labels = [str(label) for label in snapshot["labels"]]
        for stream, state in zip(self._streams, streams_state):
            stream.import_state(state)
        self._finished = bool(snapshot["finished"])
        # Subscriptions follow the restored automaton states; the native
        # stepping context is rebuilt lazily on the next feed.
        self._subscribers = {}
        self._subscribed = [() for _ in self._streams]
        for index in range(len(self._streams)):
            if not self._detached[index]:
                self._resubscribe(index)
        self._native = None

    # ------------------------------------------------------------------
    # Live query membership
    # ------------------------------------------------------------------
    def attach(
        self,
        prefilter: SmpPrefilter,
        *,
        sink: AnySink | None = None,
        label: str | None = None,
    ) -> int:
        """Attach one more compiled query to the live stream.

        The new query observes the document from the current dispatch
        frontier (the returned index's :meth:`attach_offset`): its output
        and structural statistics are identical to a fresh session fed only
        the input from that byte offset on.  Keywords the union automaton
        does not already scan trigger a session-local dispatcher rebuild.
        Returns the query's stream index (its handle for :meth:`detach`).
        """
        if self._finished:
            raise RuntimeFilterError(
                "cannot attach to a finished multi-query session"
            )
        index = len(self._streams)
        attached_at = self._scan_from
        stream = DrivenStream(
            prefilter.tables,
            self._window,
            sink=sink,
            binary=self.binary,
            start_at=attached_at,
        )
        # The bytes already buffered beyond the frontier will be scanned on
        # the query's behalf, so they count as its input.
        stream.stats.input_size = max(0, self._window.end - attached_at)
        self._streams.append(stream)
        self.prefilters.append(prefilter)
        self.labels.append(f"Q{index + 1}" if label is None else label)
        self._detached.append(False)
        self._attach_offsets.append(attached_at)
        self._subscribed.append(())
        vocabulary = _all_keywords(prefilter.tables)
        self._vocabularies[index] = vocabulary
        if not vocabulary.issubset(self._dispatcher.keywords):
            self._dispatcher = KeywordDispatcher(
                {
                    owner: keywords
                    for owner, keywords in self._vocabularies.items()
                    if not self._detached[owner]
                },
                backend=self.engine.backend,
            )
        self._resubscribe(index)
        return index

    def detach(self, index: int):
        """Detach query ``index`` from the live stream.

        The query stops receiving occurrences immediately: no further
        output is emitted and its statistics freeze.  Returns the pending
        un-taken output (sink-routed queries return the empty value).  The
        slot stays in ``feed``/``finish`` return lists as empty output.
        """
        if not 0 <= index < len(self._streams):
            raise QueryError(f"no query with handle {index}")
        if self._detached[index]:
            raise QueryError(f"query {self.labels[index]!r} is already detached")
        for keyword in self._subscribed[index]:
            self._subscribers[keyword].remove(index)
        self._subscribed[index] = ()
        self._detached[index] = True
        stream = self._streams[index]
        # The stream will never reach finish(); seal its output counter at
        # the bytes actually emitted so the frozen statistics are complete.
        stream.stats.output_size = stream.emitted_bytes
        return stream.take_output()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk) -> list:
        """Process one input chunk (``bytes`` natively, ``str`` through the
        encode shim); returns the per-query emitted output."""
        if self._finished:
            raise RuntimeFilterError("cannot feed a finished multi-query session")
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        started = time.perf_counter()
        length = len(chunk)
        detached = self._detached
        borrowed = isinstance(chunk, (bytearray, memoryview))
        self.scan_stats.input_size += length
        for index, stream in enumerate(self._streams):
            if not detached[index]:
                stream.stats.input_size += length
        self._window.append(chunk)
        self._process()
        self._trim()
        if borrowed:
            # A mutable chunk (recycled read buffer) may be overwritten by
            # the producer after this call: own the retained suffix now.
            self._window.seal()
        self.scan_stats.run_seconds += time.perf_counter() - started
        empty = b"" if self.binary else ""
        return [
            empty if detached[index] else stream.take_output()
            for index, stream in enumerate(self._streams)
        ]

    def finish(self) -> list:
        """Signal end of input; returns the remaining per-query output.

        Raises :class:`RuntimeFilterError` when any attached query's
        automaton did not accept (the document does not conform to the DTD)
        or when the document ends inside a tag.  Detached queries are not
        validated and contribute empty output.
        """
        if self._finished:
            raise RuntimeFilterError("multi-query session is already finished")
        started = time.perf_counter()
        self._window.close()
        self._process()
        self._finished = True
        empty = b"" if self.binary else ""
        detached = self._detached
        # Queries attached mid-document legitimately may not accept (their
        # automaton never saw the document root): flush them unvalidated;
        # :meth:`accepted` reports whether they reached a final state.
        outputs = [
            empty if detached[index]
            else stream.finish(validate=self._attach_offsets[index] == 0)
            for index, stream in enumerate(self._streams)
        ]
        stats = self.scan_stats
        stats.output_size = sum(stream.stats.output_size for stream in self._streams)
        stats.run_seconds += time.perf_counter() - started
        return outputs

    def run(self, chunks, chunk_size: int = DEFAULT_CHUNK_SIZE) -> MultiQueryRun:
        """Feed all of ``chunks`` and finish; returns the :class:`MultiQueryRun`.

        ``chunks`` is anything :func:`repro.core.stream.iter_chunks`
        understands -- a whole document (``str``/``bytes``), a file object,
        or an iterable of chunks.
        """
        pieces: list[list] = [[] for _ in self._streams]
        for chunk in iter_chunks(chunks, chunk_size):
            self._gather(self.feed(chunk), pieces)
        self._gather(self.finish(), pieces)
        empty = b"" if self.binary else ""
        return MultiQueryRun(
            labels=list(self.labels),
            outputs=[empty.join(parts) for parts in pieces],
            stats=list(self.stats),
            scan_stats=self.scan_stats,
            compilations=[plan.compilation for plan in self.prefilters],
        )

    def _gather(self, outputs: list, pieces: list[list]) -> None:
        while len(pieces) < len(outputs):
            pieces.append([])
        for index, emitted in enumerate(outputs):
            if emitted:
                pieces[index].append(emitted)

    # ------------------------------------------------------------------
    # The shared scan loop
    # ------------------------------------------------------------------
    def _process(self) -> None:
        """One union-automaton pass over the new window content.

        Runs :meth:`_process_native` when the C extension is loaded, else
        :meth:`_process_pure`.  Per scanned occurrence: one subscription probe; for subscribed hits
        a validity check (one character), the shared end-of-tag scan (one
        C-level ``find`` plus two short quote probes on the fast path) and
        the dispatch to the subscribed streams; co-located prefix keywords
        are dispatched as false matches without reading the text.  Returns
        early -- leaving the scan position on the undecidable hit -- when a
        decision needs input beyond the buffered window.
        """
        if self._accel is not None:
            self._process_native(self._dispatcher.accel_capsule(self._accel))
        else:
            self._process_pure()

    def _process_native(self, capsule) -> None:
        """The fully native pass: scan, dispatch and stepping in one C loop.

        ``repro._accel.step_events`` consumes the union sweep directly --
        occurrence scan, subscription probe, per-stream Figure-4 transition
        and the output-span decisions all happen below the interpreter --
        and copies each decided span into its stream's output buffer.  After
        every call this loop emits each non-empty buffer as one fragment, so
        the buffers are empty whenever it returns.  The kernel returns early
        (status 4) once they hold 64 KiB, before the next event mutates any
        stream, and is called again from that event.  Stream state crosses
        the boundary through flat 16-slot blocks
        (:meth:`DrivenStream.export_native` / ``import_native``);
        subscriptions are refreshed once per call rather than per
        transition, which is safe because the kernel performs the
        equivalent vocabulary probe on its own tables.  The kernel bails
        back to :meth:`_process_pure` for the rare event it cannot settle (a
        transition error), which replays it in Python and raises the
        identical diagnostics.
        """
        window = self._window
        dispatcher = self._dispatcher
        text, base = window.view()
        eof = window.eof
        length = len(text)
        holdback = length if eof else length - dispatcher.max_keyword_length + 1
        if self._scan_from - base >= holdback:
            return
        native = self._native
        if (
            native is None
            or native.dispatcher is not dispatcher
            or native.count != len(self._streams)
        ):
            native = self._native = _NativeStep(
                dispatcher, self.prefilters, self._accel
            )
        streams = self._streams
        detached = self._detached
        state = native.state
        outputs = native.outputs
        programs = native.programs
        for index, stream in enumerate(streams):
            block = 16 * index
            if detached[index]:
                for slot in range(block, block + 16):
                    state[slot] = 0
            else:
                stream.export_native(state, block, programs[index])
        scanned_from = self._scan_from
        position = self._scan_from
        step_events = self._accel.step_events
        status = 0
        next_from = base + holdback
        tokens = 0
        try:
            while True:
                status, next_from, tokens_delta = step_events(
                    capsule, native.capsules, state, native.prefix_starts,
                    native.prefix_ids, text, base, position, eof, outputs,
                )
                tokens += tokens_delta
                for index, output in enumerate(outputs):
                    if output:
                        streams[index]._emit(bytes(output))
                        output.clear()
                if status != 4:  # 4: output buffers full, resume there
                    break
                position = next_from
        finally:
            self.scan_stats.tokens_matched += tokens
            for index, stream in enumerate(streams):
                if not detached[index]:
                    stream.import_native(state, 16 * index, programs[index])
                    self._resubscribe(index)
        if status == 0:
            self._scan_from = base + holdback
            self.scan_stats.char_comparisons += self._scan_from - scanned_from
            return
        if status == 1:
            # A decision needs input beyond the window: suspend on it.
            self._scan_from = next_from
            self.scan_stats.char_comparisons += next_from - scanned_from
            return
        if status == 2:
            raise RuntimeFilterError(
                f"tag starting at offset {next_from} is never closed; the "
                "document is not well formed"
            )
        # status == 3: a transition the tables cannot take.  The kernel
        # stopped *before* mutating any stream on the offending event;
        # the Python path replays it with full registry order and raises
        # the identical transition error.
        self._scan_from = next_from
        self._process_pure()

    def _process_pure(self) -> None:
        """Pure-Python union scan (the reference of :meth:`_process_native`)."""
        window = self._window
        streams = self._streams
        subscribers = self._subscribers
        dispatcher = self._dispatcher
        prefixes = dispatcher.prefixes
        scan_stats = self.scan_stats
        name_byte = is_name_byte
        text, base = window.view()
        eof = window.eof
        length = len(text)
        holdback = length if eof else length - dispatcher.max_keyword_length + 1
        low = self._scan_from - base
        if low >= holdback:
            return
        scanned_from = self._scan_from
        for match in dispatcher.pattern.finditer(text, low):
            local_start = match.start()
            if local_start >= holdback:
                break
            keyword = match.group()
            start = local_start + base
            subscribed = subscribers.get(keyword)
            if subscribed:
                after = local_start + len(keyword)
                if after >= length and not eof:
                    self._scan_from = start
                    scan_stats.char_comparisons += start - scanned_from
                    return
                # A byte >= 0x80 is part of a multi-byte UTF-8 name
                # character, so the verdict never depends on sequence
                # boundaries falling inside the buffered window.
                extends = after < length and name_byte(text[after])
                if extends:
                    # False match: the tag name extends the keyword.
                    for owner in subscribed:
                        streams[owner].push_false_match(keyword, start)
                else:
                    # Valid token: locate the closing '>' outside quotes
                    # (an incomplete tag is re-scanned from its start).
                    closing = scan_tag_end(text, after)[0]
                    if closing < 0:
                        if eof:
                            raise RuntimeFilterError(
                                f"tag starting at offset {start} is never "
                                "closed; the document is not well formed"
                            )
                        self._scan_from = start
                        scan_stats.char_comparisons += start - scanned_from
                        return
                    bachelor = closing > after and text[closing - 1] == 0x2F  # '/'
                    scan_stats.tokens_matched += 1
                    # scan_chars: every character a private end-of-tag scan
                    # reads is counted exactly once -- the span itself.
                    end = closing + base
                    scan_chars = closing - after + 1
                    changed = None
                    for owner in subscribed:
                        if streams[owner].push_token(
                            keyword, start, end, bachelor, scan_chars
                        ):
                            if changed is None:
                                changed = [owner]
                            else:
                                changed.append(owner)
                    if changed:
                        for owner in changed:
                            self._resubscribe(owner)
            # Union keywords that are prefixes of this occurrence co-occur
            # at its position and are always false matches there (the next
            # character belongs to this occurrence's tag name).
            for prefix in prefixes[keyword]:
                prefix_subscribed = subscribers.get(prefix)
                if prefix_subscribed:
                    for owner in prefix_subscribed:
                        streams[owner].push_false_match(prefix, start)
        self._scan_from = base + holdback
        # Counted on exit from the actual scan advance, so a suspended and
        # re-run region is never double-counted.
        scan_stats.char_comparisons += self._scan_from - scanned_from

    def _resubscribe(self, index: int) -> None:
        """Refresh one stream's keyword subscription after a transition."""
        stream = self._streams[index]
        new = stream.subscription_keywords()
        old = self._subscribed[index]
        if new == old:
            return
        key = (old, new)
        diff = self._diff_cache.get(key)
        if diff is None:
            diff = self._diff_cache[key] = (
                tuple(keyword for keyword in old if keyword not in new),
                tuple(keyword for keyword in new if keyword not in old),
            )
        removals, additions = diff
        subscribers = self._subscribers
        for keyword in removals:
            subscribers[keyword].remove(index)
        for keyword in additions:
            subscribers.setdefault(keyword, []).append(index)
        self._subscribed[index] = new

    # ------------------------------------------------------------------
    # Buffer retention
    # ------------------------------------------------------------------
    def _trim(self) -> None:
        """Flush copy regions up to the dispatch frontier and discard input.

        The frontier is the scan resume offset: every token starting below
        it has been dispatched, so open copy regions can be emitted that far
        and the window only needs to retain the un-scanned tail plus
        un-flushed copy content.
        """
        window = self._window
        frontier = min(self._scan_from, window.end)
        floor = frontier
        detached = self._detached
        for index, stream in enumerate(self._streams):
            if detached[index]:
                continue
            stream.flush_copy(frontier)
            stream_floor = stream.keep_floor()
            if stream_floor is not None and stream_floor < floor:
                floor = stream_floor
        window.discard_to(floor)
