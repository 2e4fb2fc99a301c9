"""The SMP runtime algorithm (Figure 4 of the paper) as a streaming machine.

The runtime switches between string-matching problems: in every automaton
state it first skips ``J[q]`` characters, then searches for the closest
keyword of the frontier vocabulary ``V[q]`` (Boyer-Moore for unary
vocabularies, Commentz-Walter otherwise), scans locally to the right for the
end of the matched tag, takes the transition ``A[q, token]`` and performs the
action ``T[q']``.  Bachelor tags are processed as an opening immediately
followed by a closing tag; tag names that are prefixes of longer tag names
are disambiguated during the end-of-tag scan.

Execution is *byte-native*: the canonical chunk type is ``bytes`` and every
offset is an absolute byte offset of the UTF-8 input stream.  The matcher
automata are compiled from UTF-8 keywords and run directly on the wire/disk
representation -- no ``bytes -> str`` decode ever happens on the hot path.
Feeding ``str`` chunks still works as a thin *encode shim* (the chunk is
UTF-8 encoded on entry), and in text mode (the default) the emitted
projection is decoded incrementally -- only the bytes actually copied to
output are ever decoded.  UTF-8 chunk boundaries need no special handling
here: a multi-byte sequence carries no ``<`` byte, so tag keywords can
neither start nor end inside one, and partial sequences simply ride along
in the carry-over window like any other undecided bytes.

Execution is also *incremental*: :meth:`SmpRuntime.stream` returns a
:class:`RuntimeStream` -- a resumable state machine with ``feed(chunk) ->
emitted output`` and ``finish()`` -- that holds only a bounded carry-over
window of the input (the longest suspended keyword search plus the longest
open tag, see :mod:`repro.core.stream`).  Keyword searches that hit the end
of the buffered window mid-candidate suspend through the matchers'
``find_chunk`` contract and resume once more input arrives, so every
byte-based statistic (comparisons, shifts, jumps, local scans) is
bit-identical no matter how the input is chunked.  :meth:`SmpRuntime.
filter_text` / :meth:`SmpRuntime.filter_bytes` are thin one-chunk wrappers
over the same machine.

The Figure-4 step itself -- take ``A[q, token]``, perform ``T[q']``, a
bachelor tag as an opening immediately followed by its closing -- is written
once, as :meth:`_FilterStreamBase.take`.  Two event sources feed it.
:class:`RuntimeStream` searches the input itself: one drive loop whose
search step is either the pure matchers' resumable ``find_chunk`` phases
(``"batched"``) or the C ``find_token`` kernel (``"accel"``).
:class:`DrivenStream` serves the multi-query engine (:mod:`repro.core.multi`):
it is *driven* by the keyword occurrences one shared union scan located for
all queries, and replays exactly the decisions a private
:class:`RuntimeStream` would have made -- initial-jump accounting,
false-match rejection, the same step -- so its output and structural
statistics are byte-identical to an independent run while the bytes are
scanned once per document.  The C shared-scan kernel ``step_events``
compiles the same step into flat tables (:func:`compile_step_tables`).

Input contract: the document must be valid with respect to the DTD the tables
were compiled from, and -- like the paper's prototype -- must not hide markup
inside comments or CDATA sections (character data must escape ``<``).
"""

from __future__ import annotations

import time
import warnings
from array import array
from typing import Callable, NamedTuple, Union

from repro.accel import load_accel
from repro.core.sources import Utf8SlidingDecoder
from repro.core.stats import RunStatistics
from repro.core.stream import ChunkCursor
from repro.core.tables import Action, RuntimeTables
from repro.dtd.automaton import CLOSE, OPEN, Symbol
from repro.errors import CheckpointError, RuntimeFilterError
from repro.matching.base import (
    Match,
    MultiKeywordMatcher,
    PendingSearch,
    SingleKeywordMatcher,
)
from repro.matching.factory import make_matcher
from repro.xml.escape import is_name_byte

#: Output callback types: text mode delivers decoded ``str`` fragments,
#: binary mode the raw projected ``bytes``.
OutputSink = Callable[[str], None]
ByteOutputSink = Callable[[bytes], None]
AnySink = Union[OutputSink, ByteOutputSink]

#: Byte value of the '/' that marks a bachelor tag (``.../>``).
_SLASH = 0x2F

#: Token-event delivery modes of :class:`RuntimeStream`:
#:
#: * ``"batched"`` -- the pure-Python reference: one explicit-state drive
#:   loop per fed window over the matchers' resumable ``find_chunk``
#:   contract (any backend).
#: * ``"accel"`` -- the same loop with the per-state token kernel of the
#:   optional ``repro._accel`` C extension (``"native"`` backend only;
#:   other backends run the pure loop).  Output and every statistic are
#:   byte-identical to ``"batched"``.
DELIVERIES = ("batched", "accel")


#: Once-per-process latch of the explicit-``"accel"``-unavailable warning:
#: every degraded stream records the fact in its statistics, but only the
#: first one warns (a corpus run would otherwise emit thousands).
_accel_degrade_warned = False


def reset_accel_degrade_warning() -> None:
    """Re-arm the once-per-process accel-degrade warning (test helper)."""
    global _accel_degrade_warned
    _accel_degrade_warned = False


def _warn_accel_degraded() -> None:
    global _accel_degrade_warned
    if not _accel_degrade_warned:
        _accel_degrade_warned = True
        warnings.warn(
            "delivery='accel' was requested but the repro._accel C "
            "extension is not importable in this build; falling back to "
            "the pure-Python 'batched' delivery (byte-identical output, "
            "lower throughput).  Warned once per process; each degraded "
            "run also sets RunStatistics.accel_degraded.",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_delivery(delivery: "str | None") -> str:
    """Resolve a delivery request to an effective mode.

    ``None`` selects ``"accel"`` when the C extension is importable (and
    ``REPRO_PURE`` is unset), else ``"batched"``; an explicit ``"accel"``
    request degrades to ``"batched"`` when the extension is unavailable,
    so call sites never have to probe the build themselves.  The explicit
    degrade emits a once-per-process :class:`RuntimeWarning` and is
    recorded on the run's :class:`~repro.core.stats.RunStatistics` as
    ``accel_degraded`` by the stream that resolves it.
    """
    if delivery is None:
        return "accel" if load_accel() is not None else "batched"
    if delivery not in DELIVERIES:
        raise ValueError(
            f"unknown delivery {delivery!r}; expected one of {DELIVERIES}"
        )
    if delivery == "accel" and load_accel() is None:
        _warn_accel_degraded()
        return "batched"
    return delivery


#: Resume phases of the drive loop: where a suspended token stopped, so the
#: next fed window resumes it exactly.
_PH_TOKEN = 0    # top of the token loop: wait-for-input, jump, new search
_PH_SEARCH = 1   # frontier search in progress (``_pending`` may be set)
_PH_VERIFY = 2   # match found, awaiting the byte after the keyword
_PH_TAG = 3      # scanning right for the closing '>'
_PH_QUOTE = 4    # inside a quoted attribute value


def _freeze_state_value(value):
    """Turn a matcher's opaque resume state into checkpoint-safe data.

    The suspended-search contract (:class:`~repro.matching.base.
    PendingSearch`) keeps backend-specific state: plain ints (generic and
    native backends), tuples of ints, and tuples carrying a
    :class:`~repro.matching.base.Match` (Commentz-Walter's best-so-far).
    All of those serialise losslessly.  Anything else -- notably the live
    trie node the Aho-Corasick backend suspends on -- cannot travel to
    another process and raises :class:`CheckpointError`.
    """
    if value is None or isinstance(value, (int, str, bytes)):
        return value
    if isinstance(value, Match):
        return ["__m__", value.position, value.keyword, value.keyword_index]
    if isinstance(value, tuple):
        return ["__t__"] + [_freeze_state_value(item) for item in value]
    raise CheckpointError(
        f"suspended search state of type {type(value).__name__!r} is not "
        "serialisable; this matcher backend cannot checkpoint mid-search"
    )


def _thaw_state_value(value):
    if isinstance(value, list):
        if value and value[0] == "__m__":
            return Match(
                position=int(value[1]),
                keyword=value[2],
                keyword_index=int(value[3]),
            )
        if value and value[0] == "__t__":
            return tuple(_thaw_state_value(item) for item in value[1:])
        return tuple(_thaw_state_value(item) for item in value)
    return value


def _freeze_pending(pending: "PendingSearch | None"):
    if pending is None:
        return None
    return {
        "keep_from": pending.keep_from,
        "state": _freeze_state_value(pending.state),
    }


def _thaw_pending(value) -> "PendingSearch | None":
    if value is None:
        return None
    return PendingSearch(
        keep_from=int(value["keep_from"]),
        state=_thaw_state_value(value["state"]),
    )


def check_output_mode(captured, binary: bool) -> None:
    """Refuse a snapshot captured in the other output mode."""
    if bool(captured) != binary:
        mode = "binary" if captured else "text"
        raise CheckpointError(
            f"checkpoint was captured in {mode} output mode; restore with "
            "the same mode"
        )


def _bachelor_copies(open_action, close_action) -> bool:
    """Whether a bachelor tag ``<tag .../>`` is copied to output.

    Its opening and closing behaviour run one after the other (Figure 4)
    and emit the tag at most once: a (copy on, copy off) pair degenerates
    to copying the tag, and a copy-tag action on either side copies it.
    Inside an open copy region the tag is part of the region already.
    """
    return (
        open_action is Action.COPY_TAG or open_action is Action.COPY_ON
        or close_action is Action.COPY_TAG or close_action is Action.COPY_OFF
    )


def scan_tag_end(text, cursor: int, quote: bytes = b"") -> tuple:
    """Quote-aware scan of ``text`` for the ``>`` that closes a tag.

    Scans from local offset ``cursor`` -- or, with ``quote`` set, from
    inside a quoted attribute value opened by that byte -- skipping quoted
    values, so a ``>`` inside one cannot end the tag.  Returns ``(gt, b"",
    gt)`` with the offset of the closing ``>``, or ``(-1, quote, resume)``
    when ``text`` ends first: ``quote`` is the open quote byte (empty
    outside a value) and ``resume`` the offset to continue from once more
    bytes arrive.  The contract of ``scan_tag_end`` in ``_accel.c``.
    """
    if quote:
        closing = text.find(quote, cursor)
        if closing < 0:
            return -1, quote, len(text)
        cursor = closing + 1
    while True:
        gt = text.find(b">", cursor)
        if gt < 0:
            return -1, b"", cursor
        dq = text.find(b'"', cursor, gt)
        sq = text.find(b"'", cursor, gt)
        if dq < 0 and sq < 0:
            return gt, b"", gt
        if dq >= 0 and (sq < 0 or dq < sq):
            quote_at, quote = dq, b'"'
        else:
            quote_at, quote = sq, b"'"
        closing = text.find(quote, quote_at + 1)
        if closing < 0:
            return -1, quote, len(text)
        cursor = closing + 1


class SmpRuntime:
    """Executes the runtime algorithm over strings, bytes or chunked streams.

    Parameters
    ----------
    tables:
        Compiled lookup tables (see :func:`repro.core.tables.build_tables`).
    backend:
        Matcher backend name (see :mod:`repro.matching.factory`); the paper's
        configuration (instrumented Boyer-Moore / Commentz-Walter) is the
        default.

    One runtime serves one document at a time: the matcher statistics are
    shared across its streams.  For concurrent documents create one runtime
    per stream over the same (immutable) tables -- that is what the
    :class:`repro.core.prefilter.FilterSession` facade does.
    """

    def __init__(self, tables: RuntimeTables, backend: str = "instrumented") -> None:
        self.tables = tables
        self.backend = backend
        # The paper computes string-search structures lazily, when an
        # automaton state is first entered; the cache mirrors that.
        self._matchers: dict[int, SingleKeywordMatcher | MultiKeywordMatcher] = {}

    # ------------------------------------------------------------------
    # Matcher management
    # ------------------------------------------------------------------
    def _matcher(self, state: int) -> SingleKeywordMatcher | MultiKeywordMatcher | None:
        matcher = self._matchers.get(state)
        if matcher is None:
            vocabulary = self.tables.vocabulary_bytes.get(state, ())
            if not vocabulary:
                return None
            matcher = make_matcher(vocabulary, backend=self.backend)
            self._matchers[state] = matcher
        return matcher

    def reset_matcher_statistics(self) -> None:
        """Zero the statistics of all cached matchers."""
        for matcher in self._matchers.values():
            matcher.stats.reset()

    def _collect_matcher_statistics(self, stats: RunStatistics) -> None:
        for matcher in self._matchers.values():
            stats.char_comparisons += matcher.stats.comparisons
            stats.shifts += matcher.stats.shifts
            stats.shift_total += matcher.stats.shift_total

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def stream(
        self,
        sink: AnySink | None = None,
        *,
        binary: bool = False,
        delivery: "str | None" = None,
    ) -> "RuntimeStream":
        """Start a resumable filtering run over chunked input.

        When ``sink`` is given every projected fragment is delivered to it
        as soon as it is safe to emit and ``feed``/``finish`` return empty
        output; otherwise the fragments are returned from ``feed``.  With
        ``binary=True`` the output channel carries the projected bytes
        verbatim; the default text mode decodes the emitted bytes
        incrementally (and only those).  ``delivery`` selects the
        token-event delivery mode (see :data:`DELIVERIES`); the default
        picks the native path when available, which is byte-identical in
        output and statistics to the pure ``"batched"`` reference.
        """
        return RuntimeStream(self, sink=sink, binary=binary, delivery=delivery)

    def filter_text(self, text: str) -> tuple[str, RunStatistics]:
        """Prefilter ``text`` and return ``(projected document, statistics)``.

        Thin one-chunk wrapper over :meth:`stream`; all byte-based
        statistics are identical to a chunked run over the same input.
        """
        stream = self.stream()
        output = stream.feed(text)
        return output + stream.finish(), stream.stats

    def filter_bytes(self, data: bytes) -> tuple[bytes, RunStatistics]:
        """Prefilter UTF-8 ``data`` and return ``(projected bytes, stats)``.

        The byte-native one-shot path: no decode or encode happens at all;
        the output is a byte-exact subsequence of regions of ``data``.
        """
        stream = self.stream(binary=True)
        output = stream.feed(data)
        return output + stream.finish(), stream.stats


class _FilterStreamBase:
    """State and behaviour shared by the searching and the driven streams:

    the output channel (sink or accumulated fragments), the copy-region
    bookkeeping and the Figure-4 transition/action application.  Both
    subclasses read document bytes exclusively through the ``ChunkCursor``
    they were given, in absolute byte offsets.  Emission is byte-first:
    fragments are byte slices of the input window; a text-mode channel
    decodes them incrementally on delivery (output-only decode).
    """

    def __init__(
        self,
        tables: RuntimeTables,
        window: ChunkCursor,
        sink: AnySink | None,
        binary: bool = False,
    ) -> None:
        self._tables = tables
        self._window = window
        self._sink = sink
        self._binary = binary
        self._decoder = None if binary else Utf8SlidingDecoder()
        self.stats = RunStatistics()
        self._out: list[bytes] = []
        self._emitted_bytes = 0
        self._copy_active = False
        self._copy_tag = ""
        self._copy_emitted = 0
        self._finished = False

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has completed (or a feed failed)."""
        return self._finished

    @property
    def binary(self) -> bool:
        """True when the output channel carries raw bytes."""
        return self._binary

    @property
    def emitted_bytes(self) -> int:
        """Projected bytes emitted so far (sink-routed bytes included)."""
        return self._emitted_bytes

    # ------------------------------------------------------------------
    # Output channel
    # ------------------------------------------------------------------
    def _emit(self, fragment: bytes) -> None:
        if not fragment:
            return
        self._emitted_bytes += len(fragment)
        sink = self._sink
        if sink is None:
            self._out.append(fragment)
        elif self._binary:
            sink(fragment)
        else:
            text = self._decoder.decode(fragment)
            if text:
                sink(text)

    def _take_output(self):
        """Fragments emitted since the last call, as one ``bytes``/``str``."""
        if not self._out:
            return b"" if self._binary else ""
        output = b"".join(self._out)
        self._out.clear()
        if self._binary:
            return output
        return self._decoder.decode(output)

    def _flush_output(self):
        """Final :meth:`_take_output`: also drains the text decoder."""
        output = self._take_output()
        if not self._binary:
            tail = self._decoder.finish()
            if tail:
                if self._sink is not None:
                    self._sink(tail)
                else:
                    output += tail
        return output

    # ------------------------------------------------------------------
    # Checkpoint plumbing shared by both stream kinds
    # ------------------------------------------------------------------
    def _export_common(self) -> dict:
        """The output-channel / copy-region / statistics part of a snapshot
        (the window is snapshotted by its owner: the searching stream, or
        the multi-query session for all of its driven streams)."""
        return {
            "binary": self._binary,
            "stats": self.stats.export_state(),
            "emitted_bytes": self._emitted_bytes,
            "copy_active": self._copy_active,
            "copy_tag": self._copy_tag,
            "copy_emitted": self._copy_emitted,
            "out": [bytes(fragment) for fragment in self._out],
            "decoder": (
                None if self._binary else list(self._decoder.export_state())
            ),
            "finished": self._finished,
        }

    def _import_common(self, snapshot: dict) -> None:
        check_output_mode(snapshot["binary"], self._binary)
        self.stats = RunStatistics.from_state(snapshot["stats"])
        self._emitted_bytes = int(snapshot["emitted_bytes"])
        self._copy_active = bool(snapshot["copy_active"])
        self._copy_tag = str(snapshot["copy_tag"])
        self._copy_emitted = int(snapshot["copy_emitted"])
        self._out = [bytes(fragment) for fragment in snapshot["out"]]
        if not self._binary and snapshot.get("decoder") is not None:
            self._decoder.import_state(snapshot["decoder"])
        self._finished = bool(snapshot["finished"])

    # ------------------------------------------------------------------
    # The Figure-4 step
    # ------------------------------------------------------------------
    def take(
        self, state: int, symbol: Symbol, start: int, end: int, bachelor: bool
    ) -> int:
        """Take token ``symbol`` spanning ``[start, end]`` in ``state``.

        Takes the transition ``A[state, symbol]`` and performs the action
        ``T`` of the state reached; a bachelor opening tag is an opening
        immediately followed by its closing (:func:`_bachelor_copies`).
        Returns the next state.  This is the only Python code that takes
        transitions and copy actions.
        """
        transition = self._tables.transition
        actions = self._tables.actions
        next_state = transition.get(state, {}).get(symbol)
        if next_state is None:
            raise self._transition_error(state, symbol, start)
        action = actions.get(next_state)
        if bachelor and symbol[0] == OPEN:
            close = (CLOSE, symbol[1])
            close_state = transition.get(next_state, {}).get(close)
            if close_state is None:
                raise self._transition_error(next_state, close, start)
            if not self._copy_active and _bachelor_copies(
                action, actions.get(close_state)
            ):
                self._emit(self._window.slice(start, end + 1))
                self.stats.tokens_copied += 1
            return close_state
        if action is None or action is Action.NOP:
            return next_state
        stats = self.stats
        if action is Action.COPY_ON:
            if not self._copy_active:
                self._copy_active = True
                self._copy_tag = symbol[1]
                self._copy_emitted = start
        elif action is Action.COPY_OFF:
            if self._copy_active and symbol[1] == self._copy_tag:
                self._emit(self._window.slice(self._copy_emitted, end + 1))
                stats.regions_copied += 1
                stats.tokens_copied += 1
                self._copy_active = False
                self._copy_tag = ""
                self._copy_emitted = 0
            elif not self._copy_active:
                # Asymmetric table entries degrade gracefully to copying
                # the closing tag itself.
                self._emit(self._window.slice(start, end + 1))
                stats.tokens_copied += 1
        elif not self._copy_active:  # Action.COPY_TAG
            self._emit(self._window.slice(start, end + 1))
            stats.tokens_copied += 1
        return next_state

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------
    def _transition_error(
        self, state: int, symbol: Symbol, position: int
    ) -> RuntimeFilterError:
        kind, tag = symbol
        rendering = f"<{tag}>" if kind == OPEN else f"</{tag}>"
        return RuntimeFilterError(
            f"no transition from runtime state {state} on token {rendering} "
            f"(input offset {position}); the document does not conform to the DTD"
        )

    def _unclosed_copy_error(self) -> RuntimeFilterError:
        return RuntimeFilterError(
            f"copy region for <{self._copy_tag}> was never closed; the document "
            "does not conform to the DTD"
        )

    def _incomplete_error(self) -> RuntimeFilterError:
        return RuntimeFilterError(
            "end of input reached before the runtime automaton accepted; "
            "the document does not conform to the DTD"
        )

    def _empty_frontier_error(self, state: int) -> RuntimeFilterError:
        return RuntimeFilterError(
            f"runtime state {state} has an empty frontier vocabulary but is "
            "not final; the document does not conform to the DTD"
        )

    def _no_token_error(self) -> RuntimeFilterError:
        return RuntimeFilterError(
            "no frontier token found before end of input; the document "
            "does not conform to the DTD the prefilter was compiled for"
        )


class RuntimeStream(_FilterStreamBase):
    """One resumable execution of the Figure-4 algorithm.

    Feed the document in arbitrary chunks -- ``bytes`` natively, or ``str``
    through the encode shim::

        stream = runtime.stream()
        for chunk in chunks:
            emit(stream.feed(chunk))
        emit(stream.finish())
        stream.stats  # RunStatistics of the completed run

    Memory use is O(chunk + carry window): the stream retains only the
    input needed by a suspended keyword search, a partially scanned tag, or
    the un-emitted head of an active copy region.
    """

    def __init__(
        self,
        runtime: SmpRuntime,
        sink: AnySink | None = None,
        *,
        binary: bool = False,
        delivery: "str | None" = None,
    ) -> None:
        super().__init__(runtime.tables, ChunkCursor(binary=True), sink, binary)
        self._runtime = runtime
        self._keep_from = 0
        self._done = False
        self._failed = False
        runtime.reset_matcher_statistics()
        self._delivery = resolve_delivery(delivery)
        if delivery == "accel" and self._delivery != "accel":
            # Explicit request degraded because the extension is missing
            # (the non-native-backend fallback below is a documented
            # semantic, not a degradation, and stays unflagged).
            self.stats.accel_degraded = 1
        if self._delivery == "accel" and runtime.backend != "native":
            # The C token kernel replays the native backend's statistics
            # formulas; other backends run the pure batched loop.
            self._delivery = "batched"
        # Explicit resume state of the drive loop.
        self._state = runtime.tables.initial_state
        self._phase = _PH_TOKEN
        self._cursor = 0          # next search origin ('>' of last token)
        self._matcher_obj = None  # matcher of the current search
        self._search_pos = 0      # current search position
        self._pending: PendingSearch | None = None
        self._match_pos = 0       # '<' offset of the current match
        self._keyword = b""
        self._tag_cursor = 0      # end-of-tag scan resume offset
        self._quote = b""         # open quote byte of a suspended scan
        self._accel_mod = None
        if self._delivery == "accel":
            self._accel_mod = load_accel()
            #: state -> (capsule, symbols, matcher) of the C token kernel
            #: (compiled lazily, like the matcher cache).
            self._accel_ctx: dict[int, tuple] = {}
            self._ctx = None      # context of the suspended token
            # C-side resume vector (absolute offsets / keyword index).
            self._c_phase = 0
            self._c_begin = 0
            self._c_pos = 0
            self._c_kwi = 0
            self._c_aux = 0
            self._c_quote = 0

    @property
    def delivery(self) -> str:
        """The effective token-event delivery mode of this stream."""
        return self._delivery

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def buffered_bytes(self) -> int:
        """Number of input bytes currently retained in the window."""
        return len(self._window)

    @property
    def accepted(self) -> bool:
        """True once the runtime automaton reached a final state."""
        return self._done and not self._failed

    def feed(self, chunk):
        """Process one input chunk (``bytes`` or ``str``); returns the
        output emitted so far (``bytes`` in binary mode, ``str`` otherwise).
        """
        if self._finished:
            raise RuntimeFilterError("cannot feed a finished runtime stream")
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        started = time.perf_counter()
        self.stats.input_size += len(chunk)
        borrowed = isinstance(chunk, (bytearray, memoryview))
        self._window.append(chunk)
        self._advance()
        if self._done:
            # The automaton accepted: trailing input (epilog whitespace,
            # comments) is ignored and must not accumulate in the window.
            self._keep_from = self._window.end
        self._trim()
        if borrowed:
            # A mutable chunk (recycled read buffer) may be overwritten by
            # the producer after this call: own the retained suffix now.
            self._window.seal()
        self.stats.run_seconds += time.perf_counter() - started
        return self._take_output()

    def finish(self):
        """Signal end of input; returns the remaining output.

        Raises :class:`RuntimeFilterError` when the input ended before the
        runtime automaton accepted (the document does not conform to the
        DTD the prefilter was compiled for).
        """
        if self._finished:
            raise RuntimeFilterError("runtime stream is already finished")
        started = time.perf_counter()
        self._window.close()
        self._advance()
        self._finished = True
        self._runtime._collect_matcher_statistics(self.stats)
        output = self._flush_output()
        self.stats.output_size = self._emitted_bytes
        self.stats.run_seconds += time.perf_counter() - started
        return output

    # ------------------------------------------------------------------
    # Machine driving
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self._done:
            return
        try:
            if not self._drive():
                return
            self._done = True
            self._keep_from = self._window.end
        except Exception:
            self._done = True
            self._failed = True
            self._finished = True
            raise

    def _trim(self) -> None:
        floor = self._keep_from
        if self._copy_active:
            # A suspended search may place its resume point beyond the data
            # received so far; the copy region can only be emitted up to the
            # bytes that actually arrived.
            flush_to = min(floor, self._window.end)
            if flush_to > self._copy_emitted:
                self._emit(self._window.slice(self._copy_emitted, flush_to))
                self._copy_emitted = flush_to
        self._window.discard_to(floor)

    # ------------------------------------------------------------------
    # Checkpoint: capture and restore
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Capture this stream's complete resume state as plain data.

        Valid at any feed boundary: both deliveries keep explicit resume
        fields, so the snapshot is exact.  Matcher counters are folded in,
        so the captured statistics are self-contained.
        """
        if self._failed:
            raise CheckpointError("cannot checkpoint a failed stream")
        stats = self.stats.copy()
        self._runtime._collect_matcher_statistics(stats)
        snapshot = self._export_common()
        snapshot.update(
            kind="stream",
            stats=stats.export_state(),
            window=self._window.snapshot(),
            delivery=self._delivery,
            input_offset=self.stats.input_size,
            state=self._state,
            phase=self._phase,
            cursor=self._cursor,
            done=self._done,
        )
        if self._delivery == "accel":
            snapshot["c"] = [
                self._c_phase, self._c_begin, self._c_pos,
                self._c_kwi, self._c_aux, self._c_quote,
            ]
        else:
            snapshot.update(
                search_pos=self._search_pos,
                match_pos=self._match_pos,
                keyword=self._keyword,
                tag_cursor=self._tag_cursor,
                quote=self._quote,
                quote_from=self._tag_cursor,
                pending=_freeze_pending(self._pending),
            )
        return snapshot

    def import_state(self, snapshot: dict) -> None:
        """Restore a snapshot captured by :meth:`export_state`.

        Must be called on a freshly constructed stream before any input is
        fed.  Token-boundary snapshots (phase ``TOKEN``) restore into any
        delivery; snapshots suspended inside the C kernel or the pure
        loop's search/verify/tag/quote phases require the capturing
        delivery.  But the loop searches on from each completed token's
        ``>``, so only snapshots before the first byte or after acceptance
        are at ``TOKEN``: a mid-document ``"accel"`` snapshot resumes only
        where the C extension is built.  Legacy ``"pertoken"`` snapshots were
        published only at token boundaries and suspended frontier
        searches, which the pure loop resumes through the same
        ``find_chunk`` contract.
        """
        if snapshot.get("kind") != "stream":
            raise CheckpointError("snapshot is not a runtime-stream checkpoint")
        if self.stats.input_size or len(self._window) or self._window.base:
            raise CheckpointError(
                "import_state requires a freshly constructed stream"
            )
        phase = int(snapshot["phase"])
        delivery = snapshot.get("delivery")
        if phase != _PH_TOKEN and delivery != self._delivery:
            portable_search = (
                phase == _PH_SEARCH
                and delivery == "pertoken"
                and self._delivery == "batched"
            )
            if not portable_search:
                needs = (" (this needs the built repro._accel extension, "
                         "without REPRO_PURE=1)") if delivery == "accel" else ""
                raise CheckpointError(
                    f"checkpoint was captured mid-token under delivery "
                    f"{delivery!r}; resume with the same delivery{needs}"
                )
        self._import_common(snapshot)
        self._window.restore(snapshot["window"])
        state = int(snapshot["state"])
        cursor = int(snapshot["cursor"])
        self._done = bool(snapshot["done"])
        self._keep_from = self._window.base
        self._state = state
        self._cursor = cursor
        self._phase = phase
        if phase == _PH_TOKEN:
            return
        if self._delivery == "accel":
            (
                self._c_phase, self._c_begin, self._c_pos,
                self._c_kwi, self._c_aux, self._c_quote,
            ) = (int(value) for value in snapshot["c"])
            self._ctx = self._accel_context(state)
            return
        self._search_pos = int(snapshot.get("search_pos", cursor))
        self._match_pos = int(snapshot.get("match_pos", 0))
        self._keyword = bytes(snapshot.get("keyword", b"") or b"")
        # A tag scan resumes at ``tag_cursor``; a scan inside a quoted
        # value at ``quote_from`` (``quote`` is stale outside one).
        if phase == _PH_QUOTE:
            self._tag_cursor = int(snapshot["quote_from"])
            self._quote = bytes(snapshot["quote"])
        else:
            self._tag_cursor = int(snapshot.get("tag_cursor", 0))
        self._pending = _thaw_pending(snapshot.get("pending"))
        self._matcher_obj = self._runtime._matcher(state)

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def _accel_context(self, state: int) -> tuple:
        """Compile the C search context of one automaton state (cached).

        ``(capsule, symbols, matcher)``: the capsule drives the C kernel,
        the symbol tuple decodes its keyword indices, and the matcher is
        the pure backend whose statistics the kernel's deltas are replayed
        into (so aggregated counters stay identical).
        """
        matcher = self._runtime._matcher(state)
        if matcher is None:
            raise self._empty_frontier_error(state)
        is_single = isinstance(matcher, SingleKeywordMatcher)
        keywords = (
            (matcher.keyword,) if is_single else tuple(matcher.keywords)
        )
        symbols_map = self._tables.keyword_symbols_bytes[state]
        ctx = (
            self._accel_mod.compile_keywords(list(keywords), is_single),
            tuple(symbols_map[keyword] for keyword in keywords),
            matcher,
        )
        self._accel_ctx[state] = ctx
        return ctx

    def _drive(self) -> bool:
        """Run the Figure-4 loop over the buffered window.

        One call consumes every token decidable from the buffered input,
        suspends by returning ``False`` (resume state held in instance
        fields, phase constants ``_PH_*``) and returns ``True`` once the
        automaton accepted.  Per token: the acceptance check, table J, one
        search step, then :meth:`take`.  The search step is one of two:

        * ``"batched"``: the pure phases.  The frontier search resumes
          through the matchers' ``find_chunk`` contract; a match whose tag
          name merely extends the keyword (``<AbstractText`` while
          searching ``<Abstract``) is rejected and the search resumes past
          it -- every byte >= 0x80 counts as a name byte, so the verdict
          never depends on where a chunk split a UTF-8 sequence; then
          :func:`scan_tag_end` finds the closing ``>`` outside quoted
          attribute values.  ``local_scan_chars`` is accounted per scanned
          span.
        * ``"accel"``: one ``find_token`` call runs the same three phases
          in C and returns one completed token, an explicit resume vector
          (the ``_c_*`` fields) or "no token"; its statistic deltas replay
          the native backend's formulas.

        Output and every statistic are byte-identical for any chunking and
        either search step.
        """
        runtime = self._runtime
        tables = runtime.tables
        is_final = tables.is_final
        jumps = tables.jumps
        keyword_symbols = tables.keyword_symbols_bytes
        stats = self.stats
        window = self._window
        text, tbase = window.view()
        wend = window.end
        eof = window.eof
        find_token = None
        if self._accel_mod is not None:
            find_token = self._accel_mod.find_token
            accel_ctx = self._accel_ctx
        take = self.take
        state = self._state
        phase = self._phase
        try:
            while True:
                if phase == _PH_TOKEN:
                    if is_final(state):
                        if self._copy_active:
                            raise self._unclosed_copy_error()
                        return True
                    cursor = self._cursor
                    if cursor >= wend:
                        if eof:
                            raise self._incomplete_error()
                        self._keep_from = cursor
                        return False
                    jump = jumps.get(state, 0)
                    if jump:
                        stats.initial_jumps += 1
                        stats.initial_jump_chars += jump
                        cursor += jump
                    if find_token is not None:
                        ctx = accel_ctx.get(state)
                        if ctx is None:
                            ctx = self._accel_context(state)
                        self._ctx = ctx
                        self._c_phase = 0  # SEARCH_NEW: counts one search
                        self._c_begin = cursor
                        self._c_pos = cursor
                    else:
                        matcher = runtime._matcher(state)
                        if matcher is None:
                            raise self._empty_frontier_error(state)
                        self._matcher_obj = matcher
                        self._search_pos = cursor
                        self._pending = None
                    phase = _PH_SEARCH

                if find_token is not None:
                    # _PH_SEARCH stands for the whole C-driven section: the
                    # kernel advances through its own verify/tag/quote
                    # phases and reports them in the returned resume vector.
                    ctx = self._ctx
                    (
                        status, c_phase, c_begin, c_pos, c_kwi, c_aux,
                        c_quote, keep_from, end, bachelor,
                        d_searches, d_comparisons, d_shifts, d_shift_total,
                        d_matches, d_local_scan,
                    ) = find_token(
                        ctx[0], text, tbase, wend, eof,
                        self._c_phase, self._c_begin, self._c_pos,
                        self._c_kwi, self._c_aux, self._c_quote,
                    )
                    matcher_stats = ctx[2].stats
                    matcher_stats.searches += d_searches
                    matcher_stats.comparisons += d_comparisons
                    matcher_stats.shifts += d_shifts
                    matcher_stats.shift_total += d_shift_total
                    matcher_stats.matches += d_matches
                    stats.local_scan_chars += d_local_scan
                    if status == 1:  # suspended: more input needed
                        self._c_phase = c_phase
                        self._c_begin = c_begin
                        self._c_pos = c_pos
                        self._c_kwi = c_kwi
                        self._c_aux = c_aux
                        self._c_quote = c_quote
                        self._keep_from = keep_from
                        return False
                    if status == 2:
                        raise self._no_token_error()
                    symbol = ctx[1][c_kwi]
                    start = c_pos
                else:
                    if phase == _PH_SEARCH:
                        outcome = self._matcher_obj.find_chunk(
                            text,
                            tbase,
                            self._search_pos,
                            wend,
                            at_eof=eof,
                            pending=self._pending,
                        )
                        if isinstance(outcome, PendingSearch):
                            self._pending = outcome
                            self._keep_from = outcome.keep_from
                            return False
                        if outcome is None:
                            raise self._no_token_error()
                        self._pending = None
                        self._match_pos = outcome.position
                        self._keyword = outcome.keyword
                        phase = _PH_VERIFY

                    start = self._match_pos
                    after = start + len(self._keyword)
                    if phase == _PH_VERIFY:
                        if after >= wend and not eof:
                            self._keep_from = start
                            return False
                        if after < wend and is_name_byte(text[after - tbase]):
                            # A longer tag name: resume past the false match.
                            stats.local_scan_chars += 1
                            self._search_pos = start + 1
                            self._pending = None
                            phase = _PH_SEARCH
                            continue
                        self._tag_cursor = after
                        self._quote = b""

                    # _PH_TAG / _PH_QUOTE: the closing '>' outside quotes.
                    end, quote, resume = scan_tag_end(
                        text, self._tag_cursor - tbase, self._quote
                    )
                    if end < 0:
                        if eof:
                            raise self._no_token_error()
                        self._tag_cursor = resume + tbase
                        self._quote = quote
                        self._keep_from = start
                        phase = _PH_QUOTE if quote else _PH_TAG
                        return False
                    end += tbase
                    stats.local_scan_chars += end - after + 1
                    bachelor = end > after and text[end - 1 - tbase] == _SLASH
                    symbol = keyword_symbols[state][self._keyword]

                # Token complete: the Figure-4 step, next search origin.
                stats.tokens_matched += 1
                state = take(state, symbol, start, end, bachelor)
                self._cursor = end
                self._keep_from = end
                phase = _PH_TOKEN
        finally:
            self._state = state
            self._phase = phase


#: :class:`~repro.core.tables.Action` -> flat code used by the native step
#: tables (must mirror the ``ACT_*`` enum in ``_accel.c``).
_ACTION_CODE = {
    Action.NOP: 0,
    Action.COPY_TAG: 1,
    Action.COPY_ON: 2,
    Action.COPY_OFF: 3,
}

#: Cell flags of the native step tables (the ``CF_*`` enum in ``_accel.c``).
_CF_OPEN = 1
_CF_BACHELOR_COPY = 2


class StepProgram(NamedTuple):
    """One stream's Figure-4 decision logic compiled for ``step_events``.

    The C kernel works on flat int64 tables indexed by ``row * K + kid``
    (``row`` a densified automaton state, ``kid`` a *union* keyword id of
    the engine's :class:`~repro.matching.dispatch.KeywordDispatcher`); this
    record keeps the capsule owning those tables plus the id mappings needed
    to translate a :class:`DrivenStream` in and out of its native state
    block.  Compiled once per (tables, union vocabulary) pair and shared by
    every stream of the same plan.
    """

    capsule: object                 #: ``repro._accel.step`` capsule
    state_rows: "dict[int, int]"    #: automaton state id -> table row
    state_ids: "tuple[int, ...]"    #: table row -> automaton state id
    tag_ids: "dict[str, int]"       #: tag name -> interned id ("" -> 0)
    tag_names: "tuple[str, ...]"    #: interned id -> tag name


def compile_step_tables(
    tables: RuntimeTables, keywords: "tuple[bytes, ...]", accel_mod
) -> StepProgram:
    """Flatten ``tables`` over the union keyword space for the C stepper.

    ``keywords`` is the dispatcher's union vocabulary (the event id space
    of ``step_events``); keywords of other queries simply stay out of this
    stream's table rows (``next == -1``), which is exactly the subscription
    test the Python registry performs.  The bachelor open+close pair is
    resolved here so the kernel takes both transitions in one step; a
    missing close transition is encoded as ``-2`` and makes the kernel bail
    to the Python path, which raises the identical error.
    """
    rows: dict[int, int] = {}
    state_ids: list[int] = []
    for state in tables.automaton.states:
        rows[state.state_id] = len(state_ids)
        state_ids.append(state.state_id)
    state_count = len(state_ids)
    keyword_count = len(keywords)
    keyword_index = {keyword: index for index, keyword in enumerate(keywords)}
    cells = state_count * keyword_count
    next_tab = array("q", [-1]) * cells
    action_tab = array("q", bytes(8 * cells))
    tagid_tab = array("q", bytes(8 * cells))
    flags_tab = array("q", bytes(8 * cells))
    b_next_tab = array("q", [-2]) * cells
    jump_tab = array("q", bytes(8 * state_count))
    final_tab = array("q", bytes(8 * state_count))
    tag_ids: dict[str, int] = {"": 0}
    tag_names: list[str] = [""]

    def intern(tag: str) -> int:
        tag_id = tag_ids.get(tag)
        if tag_id is None:
            tag_id = len(tag_names)
            tag_ids[tag] = tag_id
            tag_names.append(tag)
        return tag_id

    for state_id, row in rows.items():
        jump_tab[row] = tables.J(state_id)
        final_tab[row] = 1 if tables.is_final(state_id) else 0
        for keyword, symbol in tables.keyword_symbols_bytes.get(
            state_id, {}
        ).items():
            kid = keyword_index.get(keyword)
            if kid is None:
                continue
            cell = row * keyword_count + kid
            # The vocabulary is built from the transition table, so the
            # lookup cannot miss; a KeyError here means broken tables.
            next_state = tables.transition[state_id][symbol]
            next_tab[cell] = rows[next_state]
            action_tab[cell] = _ACTION_CODE[tables.T(next_state)]
            kind, tag = symbol
            tagid_tab[cell] = intern(tag)
            flags = 0
            if kind == OPEN:
                flags |= _CF_OPEN
                close_state = tables.transition.get(next_state, {}).get(
                    (CLOSE, tag)
                )
                if close_state is not None:
                    b_next_tab[cell] = rows[close_state]
                    if _bachelor_copies(
                        tables.T(next_state), tables.T(close_state)
                    ):
                        flags |= _CF_BACHELOR_COPY
            flags_tab[cell] = flags
    capsule = accel_mod.compile_step(
        next_tab, action_tab, tagid_tab, flags_tab, b_next_tab, jump_tab,
        final_tab, state_count, keyword_count,
    )
    return StepProgram(
        capsule, rows, tuple(state_ids), tag_ids, tuple(tag_names)
    )


class DrivenStream(_FilterStreamBase):
    """Figure-4 execution driven by externally supplied keyword hits.

    The multi-query engine scans the document once with the union keyword
    set of all compiled queries and pushes every occurrence -- in document
    order, longer keywords first among co-located hits -- to the driven
    streams whose keyword it is.  The stream replays exactly what a private
    :class:`RuntimeStream` would have decided: occurrences below the current
    search origin (cursor plus table-J jump) are skipped unseen, false
    matches are rejected with the same ``local_scan_chars`` accounting,
    accepted tokens drive the same :meth:`take` step against the *shared*
    window.  Matcher-level counters (comparisons, shifts) live with the
    shared scan -- that is the work the engine saves -- so this stream's
    statistics carry the structural counters only.

    Keywords are the UTF-8 byte keywords of the shared scan; all offsets
    are absolute byte offsets into the shared binary window.  The stream
    never reads the window below :meth:`keep_floor`; the engine uses that
    floor (over all queries) to discard buffered input.

    ``start_at`` positions the stream's search origin at an absolute byte
    offset: occurrences starting below it are skipped unseen, exactly as a
    fresh stream whose input began there.  The multi-query engine uses this
    to attach queries to a live stream mid-document.
    """

    def __init__(
        self,
        tables: RuntimeTables,
        window: ChunkCursor,
        sink: AnySink | None = None,
        *,
        binary: bool = False,
        start_at: int = 0,
    ) -> None:
        super().__init__(tables, window, sink, binary)
        self._final_states = frozenset(
            state.state_id for state in tables.automaton.states if state.is_final
        )
        self._done = False
        self._enter(tables.initial_state)
        self._search_from = start_at
        self._pending_jump = True
        self._last_position = -1

    @property
    def accepted(self) -> bool:
        """True once the runtime automaton reached a final state."""
        return self._done

    def _enter(self, state: int) -> None:
        """Move to ``state``: its frontier vocabulary, and acceptance."""
        self._state = state
        self._vocabulary = self._tables.keyword_symbols_bytes.get(state, {})
        if state in self._final_states:
            self._done = True

    def subscription_keywords(self) -> tuple[bytes, ...]:
        """The byte keywords of the current state's frontier vocabulary.

        The engine subscribes each stream to exactly these keywords and
        refreshes the subscription whenever :meth:`push_token` reports a
        transition, so hits no query currently searches for are never even
        resolved -- the shared-scan analogue of the searching runtime
        skipping irrelevant regions.  Empty once accepted.
        """
        if self._done:
            return ()
        return self._tables.vocabulary_bytes.get(self._state, ())

    def keep_floor(self) -> int | None:
        """Lowest absolute offset this stream may still read from the window.

        ``None`` when the stream needs nothing retained: outside a copy
        region every future slice starts at a future token, and future
        tokens start at or above the engine's dispatch frontier.
        """
        if self._copy_active:
            return self._copy_emitted
        return None

    def _takes(self, keyword: bytes, start: int):
        """The symbol of an occurrence of ``keyword`` at ``start`` when this
        stream takes it, else ``None``.

        The searching runtime adds J[q] to its cursor before the first
        search in a state; a delivered occurrence proves input follows the
        cursor, so the jump is resolved (and counted) on first delivery.
        Occurrences below the search origin, outside the current frontier
        vocabulary, or at the position a longer vocabulary keyword already
        took (the leftmost-longest search never reports those) are not
        taken.  ``stream_takes`` in ``_accel.c`` is the C twin.
        """
        if self._done:
            # Accepted automata ignore trailing tokens, like the searching
            # runtime ignores trailing input.
            return None
        if self._pending_jump:
            jump = self._tables.jumps.get(self._state, 0)
            if jump:
                self.stats.initial_jumps += 1
                self.stats.initial_jump_chars += jump
                self._search_from += jump
            self._pending_jump = False
        if start < self._search_from or start == self._last_position:
            return None
        return self._vocabulary.get(keyword)

    def push_false_match(self, keyword: bytes, start: int) -> None:
        """Deliver one false-match occurrence (tag name extends ``keyword``).

        The searching runtime pays one local-scan comparison for a false
        match of its current vocabulary and resumes just past it; this
        replays that accounting.
        """
        if self._takes(keyword, start) is not None:
            self._last_position = start
            self.stats.local_scan_chars += 1

    def push_token(
        self, keyword: bytes, start: int, end: int, is_bachelor: bool, scan_chars: int
    ) -> bool:
        """Consider one valid scanned token (document order).

        ``end`` is the offset of the closing ``>`` and ``scan_chars`` the
        end-of-tag scan span (``end - start - len(keyword) + 1``: every
        byte a private end-of-tag scan reads, counted once).  Returns
        True when the token was accepted -- a transition was taken and the
        frontier vocabulary may have changed -- so the engine can refresh
        this stream's keyword subscription.
        """
        symbol = self._takes(keyword, start)
        if symbol is None:
            return False
        stats = self.stats
        stats.local_scan_chars += scan_chars
        stats.tokens_matched += 1
        self._enter(self.take(self._state, symbol, start, end, is_bachelor))
        self._search_from = end
        self._pending_jump = True
        self._last_position = -1
        return True

    # ------------------------------------------------------------------
    # The 16-slot state block (native stepping and checkpoints)
    # ------------------------------------------------------------------
    def _write_block(self, out, base: int, row: int, tag_id: int) -> None:
        """Write this stream's state into the 16 slots of ``out`` from
        ``base`` on (the ``SS_*`` layout of ``_accel.c``).

        ``row`` and ``tag_id`` encode the state and the open copy region's
        tag: the step program's row and interned id for ``step_events``,
        the raw state id and 0 in a checkpoint.  The statistic-delta slots
        are zeroed.
        """
        out[base] = 0 if self._done else 1
        out[base + 1] = row
        out[base + 2] = self._search_from
        out[base + 3] = 1 if self._pending_jump else 0
        out[base + 4] = self._last_position
        out[base + 5] = 1 if self._copy_active else 0
        out[base + 6] = tag_id
        out[base + 7] = self._copy_emitted
        for slot in range(base + 8, base + 14):
            out[slot] = 0
        out[base + 14] = 1 if self._done else 0
        out[base + 15] = 0

    def _read_block(self, block, base: int, state: int, copy_tag: str) -> None:
        """Fold a block written by :meth:`_write_block` (and advanced by
        the kernel) back into this stream: the state it decodes to, the
        cursor and copy-region slots, and the statistic deltas."""
        stats = self.stats
        stats.local_scan_chars += block[base + 8]
        stats.tokens_matched += block[base + 9]
        stats.tokens_copied += block[base + 10]
        stats.regions_copied += block[base + 11]
        stats.initial_jumps += block[base + 12]
        stats.initial_jump_chars += block[base + 13]
        if state != self._state:
            self._enter(state)
        self._search_from = block[base + 2]
        self._pending_jump = bool(block[base + 3])
        self._last_position = block[base + 4]
        self._copy_active = bool(block[base + 5])
        self._copy_tag = copy_tag if self._copy_active else ""
        self._copy_emitted = block[base + 7]
        if block[base + 14]:
            self._done = True

    def export_native(self, out, base: int, program: StepProgram) -> None:
        """Write this stream into the engine's ``step_events`` state array."""
        self._write_block(
            out, base, program.state_rows[self._state],
            program.tag_ids[self._copy_tag],
        )

    def import_native(self, block, base: int, program: StepProgram) -> None:
        """Fold one stepped native block back into this stream."""
        self._read_block(
            block, base, program.state_ids[block[base + 1]],
            program.tag_names[block[base + 6]],
        )

    def export_state(self) -> dict:
        """Capture this stream's resume state as plain data.

        The automaton coordinates ride in the 16-slot block layout, with
        the raw state id in slot 1 and the copy tag as its name (slot 6 is
        0).  The shared window is *not* included: it belongs to the
        session, which snapshots it once for all queries.
        """
        snapshot = self._export_common()
        snapshot["kind"] = "driven"
        block = [0] * 16
        self._write_block(block, 0, self._state, 0)
        snapshot["block"] = block
        return snapshot

    def import_state(self, snapshot: dict) -> None:
        """Restore a snapshot captured by :meth:`export_state` (the caller,
        the multi-query session, restores the shared window)."""
        if snapshot.get("kind") != "driven":
            raise CheckpointError("snapshot is not a driven-stream checkpoint")
        self._import_common(snapshot)
        block = [int(value) for value in snapshot["block"]]
        self._read_block(block, 0, block[1], self._copy_tag)

    def flush_copy(self, limit: int) -> None:
        """Emit the open copy region up to ``limit``.

        Only safe when every token starting below ``limit`` has been pushed
        and ``limit`` does not exceed the buffered window; the engine calls
        this after each feed so copy regions never pin the whole document.
        """
        if self._copy_active and limit > self._copy_emitted:
            self._emit(self._window.slice(self._copy_emitted, limit))
            self._copy_emitted = limit

    def take_output(self):
        """Output fragments emitted since the last call (sink-less mode)."""
        return self._take_output()

    def finish(self, *, validate: bool = True):
        """End of input: validate acceptance and return remaining output.

        ``validate=False`` skips the acceptance and open-copy-region checks
        (an open region is dropped unemitted).  The multi-query engine uses
        it for queries attached mid-document, whose automata legitimately
        never saw the document root.
        """
        if self._finished:
            raise RuntimeFilterError("driven stream is already finished")
        self._finished = True
        if validate:
            if not self._done and not self._tables.is_final(self._state):
                raise self._incomplete_error()
            if self._copy_active:
                raise self._unclosed_copy_error()
        output = self._flush_output()
        self.stats.output_size = self._emitted_bytes
        return output
