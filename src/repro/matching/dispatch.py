"""Keyword -> owners dispatch for the shared multi-query scan.

The multi-query engine (:mod:`repro.core.multi`) unions the keyword sets of
all compiled prefilters and scans the document **once**.  This module is the
matching-side half of that design: :class:`KeywordDispatcher` is the
immutable compilation product -- the keyword -> owners table, the
prefix-expansion table, and the union search automaton -- shared by every
session of one engine.

Two scan strategies are provided:

* :attr:`KeywordDispatcher.pattern` -- the union keyword set factored into a
  prefix trie and compiled with :mod:`re`.  This is a deterministic
  Aho-Corasick-style automaton executed in C: one pass over the text finds
  the leftmost-longest union occurrence sequence regardless of how many
  keywords (or queries) it carries.  The engine's hot loop drives
  ``pattern.finditer`` directly.
* :meth:`KeywordDispatcher.scan` -- the same occurrence stream produced
  through the matcher layer's batch ``collect_chunk`` contract (see
  :mod:`repro.matching.base`), used as the backend-pluggable reference
  implementation in the test suite.

Completeness: two different keywords can only occur at the same text
position when one is a prefix of the other (both equal the text at that
position, so the shorter is a prefix of the longer).  The scan reports the
longest keyword; :meth:`prefixes_of` lists the union keywords that co-occur
at the same position.  Those expanded occurrences are *always* false
matches for the SMP runtime -- the character following them is the longer
keyword's next character, which is a tag-name character -- so the engine
dispatches them for false-match accounting without reading the text at all.

Precondition of the single-pass :attr:`KeywordDispatcher.pattern` strategy:
the keywords are tag keywords (``<name`` / ``</name``), whose marker ``<``
appears only at offset 0.  Occurrences of such keywords can never overlap
at *different* positions, so the pattern's non-overlapping match sequence
plus the prefix expansion is the complete occurrence stream.  The
matcher-backed :meth:`KeywordDispatcher.scan` path makes no such assumption.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable, Mapping

from repro.errors import MatchingError
from repro.matching.base import (
    MatchStatistics,
    MultiKeywordMatcher,
    SingleKeywordMatcher,
    proper_prefix_table,
)
from repro.matching.factory import make_matcher


def trie_regex(keywords: Iterable[str]) -> str:
    """A regex matching any keyword, preferring the longest at each position.

    The keywords are factored into a prefix trie (``<Medline`` and
    ``<MedlineCitation`` share the literal ``<Medline`` followed by an
    optional continuation), so the compiled pattern decides each candidate
    position in one forward pass; greedy optional groups make longer
    continuations win over an accepting prefix.

    ``bytes`` keywords produce a ``bytes`` pattern (the byte-native shared
    scan): the trie is built over the latin-1 rendering -- a bijection on
    byte values -- and the emitted pattern is encoded back.
    """
    keyword_list = list(keywords)
    if keyword_list and isinstance(keyword_list[0], (bytes, bytearray)):
        pattern = trie_regex(
            [keyword.decode("latin-1") for keyword in keyword_list]
        )
        return pattern.encode("latin-1")
    return _trie_regex_str(keyword_list)


def _trie_regex_str(keywords: Iterable[str]) -> str:
    trie: dict = {}
    for keyword in sorted(keywords):
        node = trie
        for character in keyword:
            node = node.setdefault(character, {})
        node[""] = {}

    def emit(node: dict) -> str:
        accepts = "" in node
        branches = [
            re.escape(character) + emit(child)
            for character, child in sorted(node.items())
            if character
        ]
        if not branches:
            return ""
        if len(branches) == 1:
            body = branches[0]
            # Wrap so the trailing '?' applies to the whole continuation.
            if accepts:
                return f"(?:{body})?" if len(body) > 1 else f"{body}?"
            return body
        body = "(?:" + "|".join(branches) + ")"
        return body + "?" if accepts else body

    return emit(trie)


class KeywordDispatcher:
    """Union scan automaton plus the keyword -> owners table.

    Parameters
    ----------
    vocabularies:
        Mapping from an owner id (e.g. a query index) to the keywords that
        owner searches anywhere in its runtime automaton.
    backend:
        Matcher backend for the reference :meth:`scan` path (see
        :mod:`repro.matching.factory`); the compiled :attr:`pattern` is
        backend-independent.

    The dispatcher is immutable and stateless: one instance per engine,
    shared by all of its sessions.
    """

    def __init__(
        self,
        vocabularies: Mapping[int, Iterable[str]],
        *,
        backend: str = "native",
    ) -> None:
        owners: dict[str, list[int]] = {}
        for owner, keywords in vocabularies.items():
            for keyword in keywords:
                owners.setdefault(keyword, []).append(owner)
        if not owners:
            raise MatchingError("cannot build a dispatcher for empty vocabularies")
        self.keywords: tuple[str, ...] = tuple(sorted(owners))
        self.max_keyword_length = max(len(keyword) for keyword in self.keywords)
        self._owners: dict[str, tuple[int, ...]] = {
            keyword: tuple(sorted(ids)) for keyword, ids in owners.items()
        }
        #: Keyword -> union keywords that are proper prefixes of it (longest
        #: first): the occurrences shadowed by a leftmost-longest scan.
        self.prefixes: dict[str, tuple[str, ...]] = proper_prefix_table(
            self.keywords
        )
        # :attr:`prefixes` as CSR-style int64 arrays over keyword ids (the
        # indices of :attr:`keywords`) for the native ``step_events``
        # kernel: the prefix ids of keyword ``k`` are
        # ``prefix_ids[prefix_starts[k]:prefix_starts[k + 1]]``.
        keyword_index = {
            keyword: index for index, keyword in enumerate(self.keywords)
        }
        starts = array("q", bytes(8 * (len(self.keywords) + 1)))
        ids: list[int] = []
        for index, keyword in enumerate(self.keywords):
            starts[index] = len(ids)
            ids.extend(keyword_index[prefix] for prefix in self.prefixes[keyword])
        starts[len(self.keywords)] = len(ids)
        self.prefix_starts = starts
        self.prefix_ids = array("q", ids)
        #: The union automaton: one C-level pass per window (a ``bytes``
        #: pattern when the vocabularies are ``bytes`` keywords).
        self.pattern = re.compile(trie_regex(self.keywords))
        self._matcher: SingleKeywordMatcher | MultiKeywordMatcher = make_matcher(
            self.keywords, backend=backend
        )
        # Lazily compiled C search structure (see :meth:`accel_capsule`).
        self._accel_capsule = None
        #: Per-stream native step programs compiled over this union
        #: vocabulary, shared by every session using the dispatcher.  Owned
        #: and filled by :mod:`repro.core.multi`; id(tables) -> (tables,
        #: program), the entry keeping its tables alive.
        self.step_programs: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def owners_of(self, keyword: str) -> tuple[int, ...]:
        """The owner ids whose vocabularies contain ``keyword``."""
        return self._owners[keyword]

    def prefixes_of(self, keyword: str) -> tuple[str, ...]:
        """Union keywords co-occurring at every occurrence of ``keyword``."""
        return self.prefixes[keyword]

    @property
    def stats(self) -> MatchStatistics:
        """Counters of the reference union matcher (:meth:`scan` path)."""
        return self._matcher.stats

    def accel_capsule(self, accel_mod):
        """The union vocabulary compiled for the C kernels (cached).

        ``accel_mod`` is the loaded ``repro._accel`` module (see
        :func:`repro.accel.load_accel`).  The C kernels scan raw byte
        windows, so the vocabulary must be byte keywords.  Event keyword
        ids index :attr:`keywords`.
        """
        capsule = self._accel_capsule
        if capsule is None:
            capsule = accel_mod.compile_keywords(list(self.keywords), False)
            self._accel_capsule = capsule
        return capsule

    # ------------------------------------------------------------------
    # Reference scanning (matcher layer)
    # ------------------------------------------------------------------
    def scan(
        self, text: str, base: int, start: int, end: int, *, at_eof: bool
    ) -> tuple[list[tuple[int, str]], int]:
        """Every ``(position, keyword)`` occurrence decidable in the window.

        Stateless reference path through the union matcher's batch
        ``collect_chunk`` contract: occurrences are reported by position,
        longer keywords first among co-located hits, and ``resume`` (the
        start offset of the next call) holds back the zone in which an
        occurrence could still straddle the window end.  Produces the same
        stream as driving :attr:`pattern` plus :meth:`prefixes_of`, which
        the test suite asserts.
        """
        return self._matcher.collect_chunk(text, base, start, end, at_eof=at_eof)
