"""Native-speed matcher backends built on ``str.find``.

CPython's ``str.find`` implements a mix of Crochemore-Perrin two-way search
and Boyer-Moore-Horspool style skipping in C.  These backends exist so that
the wall-clock benchmarks are not dominated by Python interpreter overhead:
the *instrumented* matchers (:mod:`repro.matching.boyer_moore`,
:mod:`repro.matching.commentz_walter`) produce the character-comparison and
shift-size statistics reported in the paper's tables, while the *native*
backends produce honest throughput numbers.  Both yield identical match
sequences, which the test suite asserts.

Because ``str.find`` cannot report character comparisons, the native backends
approximate the statistics: comparisons are counted as the number of
characters in the spanned region divided by the keyword length (the idealised
Boyer-Moore behaviour), which is only used for informational output and never
for the paper's reproduced columns.
"""

from __future__ import annotations

from typing import Sequence

from repro.matching.base import (
    Match,
    MultiKeywordMatcher,
    PendingSearch,
    SingleKeywordMatcher,
    as_searchable,
)

#: Bounded-probe schedule of the multi-keyword search: ``str.find`` probes
#: run block by block, starting small (dense match regions stay cheap) and
#: doubling up to the cap (sparse regions are crossed in few C-level scans).
#: Without the blocks a keyword that is absent from the rest of the buffered
#: window costs one O(window) scan per search, which makes large streaming
#: windows *slower* than small ones (the 1 MiB chunk-size collapse).
_PROBE_INITIAL = 4 * 1024
_PROBE_MAX = 64 * 1024


class NativeSingleMatcher(SingleKeywordMatcher):
    """Single keyword search delegated to ``str.find``."""

    algorithm_name = "native-find"

    def find(self, text: str, start: int = 0, end: int | None = None) -> Match | None:
        text = as_searchable(text)
        limit = len(text) if end is None else min(end, len(text))
        self.stats.searches += 1
        position = text.find(self.keyword, max(start, 0), limit)
        if position < 0:
            spanned = max(0, limit - max(start, 0))
            self.stats.comparisons += spanned // max(1, len(self.keyword))
            return None
        spanned = position - max(start, 0) + len(self.keyword)
        self.stats.comparisons += max(1, spanned // max(1, len(self.keyword)))
        self.stats.record_shift(max(1, position - max(start, 0)))
        self.stats.matches += 1
        return Match(position=position, keyword=self.keyword)

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
        # The spanned-region statistics are computed from the absolute search
        # origin once the search completes, so a chunked search produces the
        # same (approximated) counters as a whole-text one.
        text = as_searchable(text)
        length = len(self.keyword)
        if pending is None:
            self.stats.searches += 1
            begin = resume = start
        else:
            begin, resume = pending.state  # type: ignore[misc]
        position = text.find(self.keyword, resume - base, end - base)
        if position < 0:
            if at_eof:
                spanned = max(0, end - begin)
                self.stats.comparisons += spanned // max(1, length)
                return None
            next_resume = max(begin, end - length + 1)
            return PendingSearch(keep_from=next_resume, state=(begin, next_resume))
        found = position + base
        spanned = found - begin + length
        self.stats.comparisons += max(1, spanned // max(1, length))
        self.stats.record_shift(max(1, found - begin))
        self.stats.matches += 1
        return Match(position=found, keyword=self.keyword)


class NativeMultiMatcher(MultiKeywordMatcher):
    """Multi keyword search as repeated ``str.find`` calls.

    For the small frontier vocabularies produced by the SMP static analysis
    (rarely more than a handful of keywords, see the ``States (CW+BM)`` rows
    of Table I) running one C-level ``find`` per keyword and taking the
    leftmost result is faster in CPython than any pure-Python automaton.
    """

    algorithm_name = "native-multi-find"

    def __init__(self, keywords: Sequence[str]) -> None:
        super().__init__(keywords)
        # Longer keywords first so equal-position ties prefer the longest.
        self._ordered = sorted(
            range(len(self.keywords)),
            key=lambda index: -len(self.keywords[index]),
        )

    def find(self, text: str, start: int = 0, end: int | None = None) -> Match | None:
        text = as_searchable(text)
        limit = len(text) if end is None else min(end, len(text))
        begin = max(start, 0)
        self.stats.searches += 1
        best = self._leftmost(text, begin, limit)
        self._finish_stats(best, begin, limit)
        return best

    def _leftmost(self, text: str, begin: int, limit: int) -> Match | None:
        """Leftmost-longest occurrence in ``text[begin:limit]`` (local).

        Probes block by block (doubling block sizes, see ``_PROBE_INITIAL``)
        so keywords that are absent from the remaining window cost O(block)
        per search instead of O(window): the result is identical to one
        whole-window probe per keyword, but the searched region is bounded
        by the distance to the leftmost occurrence.
        """
        keywords = self.keywords
        block_start = begin
        probe = _PROBE_INITIAL
        while block_start < limit:
            block_end = min(limit, block_start + probe)
            best: Match | None = None
            for index in self._ordered:
                keyword = keywords[index]
                # Occurrences *starting* below the bound; longest-first
                # ordering makes the first keyword found at a position the
                # preferred tie winner, so later keywords only need to probe
                # for strictly earlier starts.
                bound = block_end if best is None else best.position
                position = text.find(
                    keyword, block_start, min(limit, bound + len(keyword) - 1)
                )
                if 0 <= position < bound:
                    best = Match(position=position, keyword=keyword, keyword_index=index)
            if best is not None:
                return best
            block_start = block_end
            probe = min(probe * 2, _PROBE_MAX)
        return None

    def _finish_stats(self, best: Match | None, begin: int, limit: int) -> None:
        """Record the span-approximated counters of one completed search."""
        spanned = (best.position - begin + 1) if best else max(0, limit - begin)
        self.stats.comparisons += (
            max(1, spanned // max(1, self.min_keyword_length)) if spanned else 0
        )
        if best is not None:
            self.stats.record_shift(max(1, best.position - begin))
            self.stats.matches += 1

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
        # Counters are derived from the absolute search origin only once the
        # search completes, so chunking does not change them.  An occurrence
        # is only reported once no longer keyword straddling the window end
        # could still beat it (same-position ties prefer the longest).
        text = as_searchable(text)
        if pending is None:
            self.stats.searches += 1
            begin = resume = start
        else:
            begin, resume = pending.state  # type: ignore[misc]
        high = end - base
        best = self._leftmost(text, resume - base, high)
        if best is not None and (at_eof or best.position + self.max_keyword_length <= high):
            best = best.shifted(base)
            self._finish_stats(best, begin, end)
            return best
        if at_eof:
            self._finish_stats(None, begin, end)
            return None
        next_resume = max(begin, end - self.max_keyword_length + 1)
        return PendingSearch(keep_from=next_resume, state=(begin, next_resume))

    def collect_chunk(
        self, text: str, base: int, start: int, end: int, *, at_eof: bool
    ) -> tuple[list[tuple[int, str]], int]:
        """Batch scan: one C-level ``str.find`` sweep per keyword.

        The shared multi-query scan needs *every* occurrence of every
        keyword; restarting leftmost-longest searches would probe each
        keyword once per hit, so this override sweeps the window once per
        keyword instead -- O(|keywords| x window + hits) total -- and merges
        the results by position (longest keyword first on ties, which the
        longest-first sweep order plus a stable sort preserves).
        """
        text = as_searchable(text)
        limit = end - base
        low = start - base
        resume = limit if at_eof else max(low, limit + 1 - self.max_keyword_length)
        keywords = self.keywords
        hits: list[tuple[int, str]] = []
        for index in self._ordered:
            keyword = keywords[index]
            bound = min(limit, resume + len(keyword) - 1)
            position = text.find(keyword, low, bound)
            while 0 <= position < resume:
                hits.append((position + base, keyword))
                position = text.find(keyword, position + 1, bound)
        hits.sort(key=lambda hit: hit[0])
        self.stats.searches += 1
        self.stats.matches += len(hits)
        spanned = max(0, resume - low)
        if spanned:
            self.stats.comparisons += max(
                1, (len(keywords) * spanned) // max(1, self.min_keyword_length)
            )
        return hits, resume + base
