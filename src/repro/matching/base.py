"""Common interfaces and statistics for the string-matching algorithms.

The paper reduces XML prefiltering to a sequence of string-matching problems:
single-keyword problems are solved with Boyer-Moore and multi-keyword problems
with Commentz-Walter (Section II).  All matchers in this package implement a
small common interface so the SMP runtime can swap algorithms freely and so
the benchmarks can compare them head to head.

Two kinds of matchers exist:

* :class:`SingleKeywordMatcher` -- compiled for one keyword, returns the next
  occurrence at or after a starting offset.
* :class:`MultiKeywordMatcher` -- compiled for a set of keywords, returns the
  next occurrence of *any* keyword.

Every matcher keeps a :class:`MatchStatistics` record.  The paper's Table I
and Table II report the number of character comparisons relative to the
document size and the average forward-shift size; both are derived from these
counters.

Resumable searches
------------------
The streaming SMP runtime feeds the matchers one bounded window of the input
at a time (see :mod:`repro.core.stream`).  A keyword occurrence can straddle
a chunk boundary, so both matcher families additionally implement
:meth:`find_chunk`: a search over a window that either completes (``Match``
or ``None``) or *suspends* with a :class:`PendingSearch` when it reaches the
end of the window before the outcome is decided.  Passing the suspension back
with the grown window resumes the search exactly where it stopped; the
instrumented algorithms guarantee that the comparison and shift counters of a
chunked search are bit-identical to a whole-document search, which is what
keeps the paper's character-based statistics invariant under chunking.

Byte-native operation
---------------------
Every matcher is *polymorphic over the text type*: compiled from ``str``
keywords it searches ``str`` text, compiled from ``bytes`` keywords it
searches ``bytes``-like text (``bytes``, ``mmap``) with identical match
sequences and statistics -- indexing either type yields comparable elements
(characters vs byte values), which is all the algorithms use.  The
byte-native SMP runtime compiles its frontier vocabularies as UTF-8
keywords and runs the automata directly on the wire/disk representation;
the counters then count bytes, which coincides with characters on the
ASCII tag keywords and documents of the paper's workloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MatchingError


@dataclass
class MatchStatistics:
    """Counters accumulated by a matcher across all of its searches.

    Attributes
    ----------
    comparisons:
        Number of character comparisons performed against the text.
    shifts:
        Number of window shifts performed.
    shift_total:
        Sum of all shift distances, so ``shift_total / shifts`` is the
        average forward-shift size reported in the paper's tables.
    searches:
        Number of individual search invocations.
    matches:
        Number of successful matches reported.
    """

    comparisons: int = 0
    shifts: int = 0
    shift_total: int = 0
    searches: int = 0
    matches: int = 0

    def record_shift(self, distance: int) -> None:
        """Record a forward shift of ``distance`` characters."""
        if distance > 0:
            self.shifts += 1
            self.shift_total += distance

    @property
    def average_shift(self) -> float:
        """Average size of a forward shift, in characters."""
        if self.shifts == 0:
            return 0.0
        return self.shift_total / self.shifts

    def merge(self, other: "MatchStatistics") -> None:
        """Accumulate the counters from ``other`` into this record."""
        self.comparisons += other.comparisons
        self.shifts += other.shifts
        self.shift_total += other.shift_total
        self.searches += other.searches
        self.matches += other.matches

    def reset(self) -> None:
        """Zero all counters."""
        self.comparisons = 0
        self.shifts = 0
        self.shift_total = 0
        self.searches = 0
        self.matches = 0

    def snapshot(self) -> "MatchStatistics":
        """Return an independent copy of the current counters."""
        return MatchStatistics(
            comparisons=self.comparisons,
            shifts=self.shifts,
            shift_total=self.shift_total,
            searches=self.searches,
            matches=self.matches,
        )


@dataclass(frozen=True)
class Match:
    """A single keyword occurrence.

    Attributes
    ----------
    position:
        Offset of the first character of the matched keyword in the text.
    keyword:
        The keyword that matched.
    keyword_index:
        Index of the keyword in the matcher's keyword list (0 for
        single-keyword matchers).
    """

    position: int
    keyword: str
    keyword_index: int = 0

    @property
    def end(self) -> int:
        """Offset one past the last character of the match."""
        return self.position + len(self.keyword)

    def shifted(self, offset: int) -> "Match":
        """This match translated by ``offset`` characters."""
        if offset == 0:
            return self
        return Match(
            position=self.position + offset,
            keyword=self.keyword,
            keyword_index=self.keyword_index,
        )


@dataclass(frozen=True)
class PendingSearch:
    """A suspended keyword search that needs more input to be decided.

    Attributes
    ----------
    keep_from:
        Absolute stream offset of the leftmost character the resumed search
        may still read; no byte below it is needed, and any match eventually
        returned starts at or after it.  The streaming runtime uses this as
        its buffer-retention floor.
    state:
        Algorithm-specific resume information (opaque to callers; positions
        inside are absolute stream offsets).
    """

    keep_from: int
    state: object = None


class SingleKeywordMatcher(ABC):
    """A matcher compiled for exactly one keyword."""

    algorithm_name: str = "abstract"

    def __init__(self, keyword: str) -> None:
        if not keyword:
            raise MatchingError("keyword must be a non-empty string")
        self.keyword = keyword
        self.stats = MatchStatistics()

    @abstractmethod
    def find(self, text: str, start: int = 0, end: int | None = None) -> Match | None:
        """Return the first occurrence of the keyword in ``text[start:end]``.

        Returns ``None`` when the keyword does not occur.  Offsets in the
        returned :class:`Match` are absolute offsets into ``text``.
        """

    def find_all(self, text: str, start: int = 0, end: int | None = None) -> list[Match]:
        """Return every (possibly overlapping) occurrence of the keyword."""
        matches: list[Match] = []
        position = start
        limit = len(text) if end is None else end
        while position <= limit - len(self.keyword):
            match = self.find(text, position, limit)
            if match is None:
                break
            matches.append(match)
            position = match.position + 1
        return matches

    #: Subclasses with an exact resumable scan bind this to a method
    #: ``(text, position, limit, at_eof) -> (Match | None, stop_position)``
    #: operating in text-local coordinates, where resuming a failed scan at
    #: ``stop_position`` with a longer limit replays the whole-text search
    #: comparison for comparison.  ``None`` selects the generic (stats-
    #: approximate) fallback built on :meth:`find`.
    _search_chunk = None

    def collect_chunk(
        self, text: str, base: int, start: int, end: int, *, at_eof: bool
    ) -> tuple[list[tuple[int, str]], int]:
        """Every keyword occurrence decidable in one window of a stream.

        Returns ``(hits, resume)``: all ``(position, keyword)`` occurrences
        starting in ``[start, resume)`` in document order, where ``resume``
        (the start of the next call) holds back the zone in which an
        occurrence could still straddle the window end (none is held back
        once ``at_eof``).  Unlike :meth:`find_chunk` this never suspends, so
        it is the batch-scanning contract of the multi-query shared scan.
        """
        limit = end - base
        low = start - base
        resume = limit if at_eof else max(low, limit + 1 - len(self.keyword))
        keyword = self.keyword
        hits: list[tuple[int, str]] = []
        position = low
        before = self.stats.searches
        while position < resume:
            match = self.find(text, position, limit)
            if match is None or match.position >= resume:
                break
            hits.append((match.position + base, keyword))
            position = match.position + 1
        # One logical batch scan, however many probes it took.
        self.stats.searches = before + 1
        return hits, resume + base

    def find_chunk(
        self,
        text: str,
        base: int,
        start: int,
        end: int,
        *,
        at_eof: bool,
        pending: PendingSearch | None = None,
    ) -> Match | PendingSearch | None:
        """Search one window of a chunked input stream.

        ``text`` is the buffered window whose first character sits at
        absolute stream offset ``base``; ``start``/``end`` are absolute.
        Returns the next occurrence (absolute offsets), ``None`` when the
        stream ended without one, or a :class:`PendingSearch` when the
        outcome needs input beyond ``end``.  Pass the suspension back via
        ``pending`` (with the same ``start``) once more data is buffered.
        """
        scan = self._search_chunk
        if scan is not None:
            if pending is None:
                self.stats.searches += 1
                low = start - base
            else:
                low = int(pending.state) - base
            match, stop = scan(text, low, end - base, at_eof)
            if match is not None:
                return match.shifted(base)
            if at_eof:
                return None
            resume = stop + base
            return PendingSearch(keep_from=resume, state=resume)
        # Generic fallback: repeat plain ``find`` calls over the available
        # region, holding back the zone where the keyword could straddle the
        # window end.  Matches are exact; statistics may differ slightly from
        # a whole-text search around chunk boundaries.
        low = (start if pending is None else int(pending.state)) - base
        match = self.find(text, low, end - base)
        if match is not None:
            return match.shifted(base)
        if at_eof:
            return None
        resume = max(low, (end - base) - len(self.keyword) + 1) + base
        return PendingSearch(keep_from=resume, state=resume)


class MultiKeywordMatcher(ABC):
    """A matcher compiled for a set of keywords."""

    algorithm_name: str = "abstract"

    def __init__(self, keywords: Sequence[str]) -> None:
        keyword_list = list(keywords)
        if not keyword_list:
            raise MatchingError("at least one keyword is required")
        if any(not keyword for keyword in keyword_list):
            raise MatchingError("keywords must be non-empty strings")
        if len(set(keyword_list)) != len(keyword_list):
            raise MatchingError("keywords must be unique")
        self.keywords = keyword_list
        self.min_keyword_length = min(len(keyword) for keyword in keyword_list)
        self.max_keyword_length = max(len(keyword) for keyword in keyword_list)
        self.stats = MatchStatistics()

    @abstractmethod
    def find(self, text: str, start: int = 0, end: int | None = None) -> Match | None:
        """Return the leftmost occurrence of any keyword in ``text[start:end]``.

        When several keywords match at the same position the longest keyword
        is preferred, which is the behaviour the SMP runtime relies on for
        distinguishing tag names that are prefixes of each other.
        """

    def find_all(self, text: str, start: int = 0, end: int | None = None) -> list[Match]:
        """Return every occurrence of any keyword, ordered by position."""
        matches: list[Match] = []
        position = start
        limit = len(text) if end is None else end
        while position < limit:
            match = self.find(text, position, limit)
            if match is None:
                break
            matches.append(match)
            position = match.position + 1
        return matches

    #: Same contract as :attr:`SingleKeywordMatcher._search_chunk`; ``None``
    #: selects the generic fallback built on :meth:`find`.
    _search_chunk = None

    def _prefix_table(self) -> dict[str, tuple[str, ...]]:
        """Memoised :func:`proper_prefix_table` over this keyword set."""
        table = getattr(self, "_prefix_keywords", None)
        if table is None:
            table = self._prefix_keywords = proper_prefix_table(self.keywords)
        return table

    def collect_chunk(
        self, text: str, base: int, start: int, end: int, *, at_eof: bool
    ) -> tuple[list[tuple[int, str]], int]:
        """Every occurrence of every keyword decidable in one window.

        Returns ``(hits, resume)`` like the single-keyword counterpart,
        ordered by position with longer keywords first among co-located
        occurrences.  This generic version repeats leftmost-longest ``find``
        probes and expands shadowed prefix keywords from the table above;
        backends with a cheaper batch strategy override it.
        """
        limit = end - base
        low = start - base
        resume = limit if at_eof else max(low, limit + 1 - self.max_keyword_length)
        prefixes = self._prefix_table()
        hits: list[tuple[int, str]] = []
        position = low
        before = self.stats.searches
        while position < resume:
            match = self.find(text, position, limit)
            if match is None or match.position >= resume:
                break
            absolute = match.position + base
            hits.append((absolute, match.keyword))
            for prefix in prefixes[match.keyword]:
                hits.append((absolute, prefix))
            position = match.position + 1
        self.stats.searches = before + 1
        return hits, resume + base

    def find_chunk(
        self,
        text: str,
        base: int,
        start: int,
        end: int,
        *,
        at_eof: bool,
        pending: PendingSearch | None = None,
    ) -> Match | PendingSearch | None:
        """Search one window of a chunked stream (see the single-keyword
        counterpart for the full contract).  Suspends both when a keyword
        could straddle the window end and when a found occurrence could still
        be beaten by a longer keyword matching at the same position."""
        scan = self._search_chunk
        if scan is not None:
            if pending is None:
                self.stats.searches += 1
                low = start - base
            else:
                low = int(pending.state) - base
            match, stop = scan(text, low, end - base, at_eof)
            if match is not None:
                return match.shifted(base)
            if at_eof:
                return None
            resume = stop + base
            return PendingSearch(keep_from=resume, state=resume)
        low = (start if pending is None else int(pending.state)) - base
        high = end - base
        match = self.find(text, low, high)
        if match is not None and (at_eof or match.position + self.max_keyword_length <= high):
            return match.shifted(base)
        if at_eof:
            return None
        resume = max(low, high - self.max_keyword_length + 1) + base
        return PendingSearch(keep_from=resume, state=resume)


@dataclass
class _ShiftTables:
    """Internal container for precomputed Boyer-Moore style shift tables."""

    bad_character: dict[str, int] = field(default_factory=dict)
    good_suffix: list[int] = field(default_factory=list)


def proper_prefix_table(keywords: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Keyword -> the given keywords that are proper prefixes of it.

    Ordered longest first.  Two different keywords can only occur at the
    same text position when one is a prefix of the other, so a
    leftmost-longest scan plus this table recovers every co-located
    occurrence; both the matchers' batch ``collect_chunk`` and the
    multi-query dispatch layer share this single definition.
    """
    return {
        keyword: tuple(
            sorted(
                (other for other in keywords
                 if other != keyword and keyword.startswith(other)),
                key=len,
                reverse=True,
            )
        )
        for keyword in keywords
    }


def as_searchable(text):
    """``text`` itself when it supports C-level ``find``, else a bytes copy.

    The matchers accept any buffer-protocol window (``bytes``, ``bytearray``,
    ``mmap`` -- all with native ``find`` -- plus ``memoryview``, which lacks
    one and is materialised here).  The streaming cursor hands out searchable
    windows, so the copy only triggers for direct ``memoryview`` callers.
    """
    return text if hasattr(text, "find") else bytes(text)


def leftmost_longest(matches: Sequence[Match]) -> Match | None:
    """Pick the leftmost match, breaking ties by preferring longer keywords."""
    best: Match | None = None
    for match in matches:
        if best is None:
            best = match
            continue
        if match.position < best.position:
            best = match
        elif match.position == best.position and len(match.keyword) > len(best.keyword):
            best = match
    return best
