"""High-level facade: compile a DTD + projection paths into a prefilter.

This is the public entry point of the reproduction::

    from repro import Dtd, SmpPrefilter

    dtd = Dtd.parse(dtd_text)
    prefilter = SmpPrefilter.compile(dtd, ["//australia//description#"])
    session = prefilter.session()
    output = session.feed(xml_text) + session.finish()
    print(output)                 # the projected document
    print(session.stats.char_comparison_ratio)

``SmpPrefilter.compile`` runs the static analysis of Section IV and builds
the lookup tables of Figure 3.  The compiled object is a reusable *plan*
(the paper's Table I runs the same compiled prefilter over documents from
10 MB to 5 GB); :meth:`SmpPrefilter.cached` memoises plans keyed by
``(DTD, paths, backend)`` so independent callers share one compilation.

One-shot filtering lives in the unified dataflow API
(``repro.api.Engine(Query.from_plan(plan)).run(source)``).  Incremental
filtering in O(chunk + carry window) memory goes through the streaming
session API::

    session = prefilter.session()
    for chunk in chunks:          # bytes chunks natively, str via the shim
        out.write(session.feed(chunk))
    out.write(session.finish())
    session.stats               # identical to a one-shot run

The execution core is byte-native (:mod:`repro.core.runtime`): ``str``
input is UTF-8 encoded on entry and only the bytes actually copied to the
projection are ever decoded back; ``binary=True`` on any entry point keeps
the output as raw projected bytes.  Each session owns its runtime, so any
number of sessions compiled from the same plan can run concurrently, and
a live session can be captured/restored through
:meth:`FilterSession.export_state` / :meth:`FilterSession.import_state`
(see :mod:`repro.checkpoint` for the durable on-disk format).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.runtime import AnySink, RuntimeStream, SmpRuntime
from repro.core.static_analysis import AnalysisResult, StaticAnalyzer
from repro.core.stats import CompilationStatistics, FilterRun, RunStatistics
from repro.core.stream import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.core.tables import RuntimeTables, build_tables, summarize_states
from repro.dtd.model import Dtd
from repro.projection.extraction import QuerySpec
from repro.projection.paths import ProjectionPath

#: Capacity of the shared compiled-plan cache (see :meth:`SmpPrefilter.cached`).
PLAN_CACHE_SIZE = 64

_plan_cache: "OrderedDict[tuple, SmpPrefilter]" = OrderedDict()
_plan_cache_lock = threading.Lock()


@dataclass
class SmpPrefilter:
    """A compiled SMP prefilter: static analysis result, tables, runtime."""

    dtd: Dtd
    paths: list[ProjectionPath]
    analysis: AnalysisResult
    tables: RuntimeTables
    backend: str = "instrumented"
    compilation: CompilationStatistics = field(default_factory=CompilationStatistics)
    _runtime: SmpRuntime | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        dtd: Dtd,
        paths: Sequence[ProjectionPath | str],
        *,
        backend: str = "instrumented",
        add_default_paths: bool = True,
    ) -> "SmpPrefilter":
        """Run the static analysis and build the lookup tables.

        Parameters
        ----------
        dtd:
            The (non-recursive) schema.
        paths:
            Projection paths as strings or parsed objects; the default
            ``/*`` path is added unless ``add_default_paths`` is False.
        backend:
            String-matching backend: ``"instrumented"`` (paper configuration
            with comparison counters), ``"native"`` (CPython ``str.find``),
            ``"naive"``, ``"aho-corasick"`` or ``"horspool"``.
        """
        started = time.perf_counter()
        analyzer = StaticAnalyzer(dtd, paths, add_default_paths=add_default_paths)
        analysis = analyzer.analyse()
        tables = build_tables(analysis)
        elapsed = time.perf_counter() - started
        summary = summarize_states(tables)
        compilation = CompilationStatistics(
            dtd_states=analysis.automaton.state_count(),
            dtd_transitions=analysis.automaton.transition_count(),
            selected_states=len(analysis.selected),
            runtime_states=summary["states"],
            cw_states=summary["cw"],
            bm_states=summary["bm"],
            compile_seconds=elapsed,
        )
        return cls(
            dtd=dtd,
            paths=analysis.paths,
            analysis=analysis,
            tables=tables,
            backend=backend,
            compilation=compilation,
        )

    @classmethod
    def cached(
        cls,
        dtd: Dtd,
        paths: Sequence[ProjectionPath | str],
        *,
        backend: str = "instrumented",
        add_default_paths: bool = True,
    ) -> "SmpPrefilter":
        """Like :meth:`compile`, but memoised.

        Plans are cached (LRU, :data:`PLAN_CACHE_SIZE` entries) keyed by the
        DTD object, the normalised path strings, the backend and the
        default-path flag, so concurrent callers filtering different
        documents against the same query share a single compilation.  The
        cache holds a strong reference to the DTD, which keeps the identity
        key stable for the lifetime of the entry.
        """
        key = (
            id(dtd),
            tuple(sorted(str(path) for path in paths)),
            backend,
            add_default_paths,
        )
        with _plan_cache_lock:
            plan = _plan_cache.get(key)
            if plan is not None:
                _plan_cache.move_to_end(key)
                return plan
        plan = cls.compile(
            dtd, paths, backend=backend, add_default_paths=add_default_paths
        )
        with _plan_cache_lock:
            _plan_cache[key] = plan
            _plan_cache.move_to_end(key)
            while len(_plan_cache) > PLAN_CACHE_SIZE:
                _plan_cache.popitem(last=False)
        return plan

    @classmethod
    def compile_for_query(
        cls, dtd: Dtd, query: QuerySpec, *, backend: str = "instrumented"
    ) -> "SmpPrefilter":
        """Compile a prefilter for one of the workload query specifications."""
        return cls.compile(dtd, query.parsed_paths(), backend=backend,
                           add_default_paths=False)

    @classmethod
    def cached_for_query(
        cls, dtd: Dtd, query: QuerySpec, *, backend: str = "instrumented"
    ) -> "SmpPrefilter":
        """Memoised :meth:`compile_for_query` (same cache as :meth:`cached`).

        The multi-query engine compiles every member query through this
        entry point, so engines constructed over overlapping query sets --
        and plain single-query sessions for the same specs -- share one
        compilation per (DTD, paths, backend) key.
        """
        return cls.cached(dtd, query.parsed_paths(), backend=backend,
                          add_default_paths=False)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> SmpRuntime:
        """The (lazily created) runtime executor shared by one-shot calls."""
        if self._runtime is None or self._runtime.backend != self.backend:
            self._runtime = SmpRuntime(self.tables, backend=self.backend)
        return self._runtime

    def session(
        self,
        *,
        sink: AnySink | None = None,
        binary: bool = False,
        delivery: str | None = None,
    ) -> "FilterSession":
        """Open a streaming filter session for one document.

        Each session owns a private runtime over the shared compiled tables,
        so sessions obtained from one prefilter may run concurrently.  With
        ``sink`` the projected fragments are pushed to the callback and the
        session's ``feed``/``finish`` return empty output.  ``binary=True``
        keeps the output channel as raw projected bytes (the byte-native
        path); the default text mode decodes the emitted bytes -- and only
        those -- incrementally.  ``delivery`` selects the token-event
        delivery mode (see :data:`repro.core.runtime.DELIVERIES`): the
        default picks the native ``"accel"`` path when the C extension is
        built and the pure ``"batched"`` reference otherwise; both are
        byte-identical in output and statistics.
        """
        return FilterSession(self, sink=sink, binary=binary, delivery=delivery)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe_tables(self) -> str:
        """Human-readable rendering of the compiled tables."""
        return self.tables.describe()

    def states_summary(self) -> str:
        """The ``States (CW+BM)`` figure of the paper's tables."""
        return self.compilation.states_label()


class FilterSession:
    """A streaming prefilter run over one document.

    Wraps a :class:`~repro.core.runtime.RuntimeStream` with a private
    runtime, so sessions are independent of each other and of the owning
    prefilter's one-shot runtime.  Use :meth:`feed`/:meth:`finish` directly,
    or :meth:`run` to drive a whole chunk iterable.  Chunks may be ``bytes``
    (the native path) or ``str`` (encoded on entry); ``binary`` selects the
    output type (projected ``bytes`` vs incrementally decoded ``str``).
    """

    def __init__(
        self,
        prefilter: SmpPrefilter,
        sink: AnySink | None = None,
        *,
        binary: bool = False,
        delivery: str | None = None,
    ) -> None:
        self.prefilter = prefilter
        self.binary = binary
        self._stream: RuntimeStream = SmpRuntime(
            prefilter.tables, backend=prefilter.backend
        ).stream(sink=sink, binary=binary, delivery=delivery)

    @property
    def delivery(self) -> str:
        """The effective token-event delivery mode of this session."""
        return self._stream.delivery

    @property
    def stats(self) -> RunStatistics:
        """Statistics accumulated so far (complete after :meth:`finish`)."""
        return self._stream.stats

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has completed."""
        return self._stream.finished

    @property
    def accepted(self) -> bool:
        """True once the runtime automaton reached a final state."""
        return self._stream.accepted

    @property
    def buffered_bytes(self) -> int:
        """Input bytes currently retained in the carry-over window."""
        return self._stream.buffered_bytes

    def export_state(self) -> dict:
        """Capture the session's complete resume state as plain data.

        Delegates to the underlying runtime stream; see
        :meth:`repro.core.runtime.RuntimeStream.export_state`.
        """
        return self._stream.export_state()

    def import_state(self, snapshot: dict) -> None:
        """Restore a snapshot into this freshly opened session."""
        self._stream.import_state(snapshot)

    def feed(self, chunk):
        """Process one input chunk; returns the newly emitted output."""
        return self._stream.feed(chunk)

    def finish(self):
        """Signal end of input; returns the remaining output."""
        return self._stream.finish()

    def run(self, chunks, chunk_size: int = DEFAULT_CHUNK_SIZE) -> FilterRun:
        """Feed all of ``chunks`` and finish; returns the :class:`FilterRun`."""
        pieces = []
        for chunk in iter_chunks(chunks, chunk_size):
            emitted = self.feed(chunk)
            if emitted:
                pieces.append(emitted)
        emitted = self.finish()
        if emitted:
            pieces.append(emitted)
        empty = b"" if self.binary else ""
        return FilterRun(
            output=empty.join(pieces),
            stats=self.stats,
            compilation=self.prefilter.compilation,
        )
