"""The shared-scan dispatch layer: union automaton, owners, batch scans.

Three contracts are exercised:

* :func:`repro.matching.dispatch.trie_regex` compiles to a pattern that
  matches exactly the keyword set, preferring the longest at each position;
* every matcher's ``collect_chunk`` reports *all* keyword occurrences
  (including co-located prefix keywords) in document order, independent of
  how the input is windowed;
* :class:`repro.matching.dispatch.KeywordDispatcher` agrees with a
  brute-force occurrence enumeration and with the compiled pattern.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.matching.aho_corasick import AhoCorasickMatcher
from repro.matching.commentz_walter import CommentzWalterMatcher
from repro.matching.dispatch import KeywordDispatcher, trie_regex
from repro.matching.factory import available_backends, make_matcher
from repro.matching.naive import NaiveMatcher, NaiveMultiMatcher
from repro.matching.native import NativeMultiMatcher, NativeSingleMatcher

MULTI_CLASSES = [
    CommentzWalterMatcher,
    AhoCorasickMatcher,
    NaiveMultiMatcher,
    NativeMultiMatcher,
]

BACKENDS = tuple(available_backends())

#: A unary vocabulary (single-keyword matchers), tag keywords that share a
#: prefix, and a chain of shadowed prefixes of one another.
BYTE_KEYWORD_SETS = (
    (b"<MedlineCitation",),
    (b"<Abstract", b"<AbstractText", b"</Abstract"),
    (b"<a", b"<ab", b"<abc", b"</a"),
)

_ALPHABET = "ab<c/"


def brute_force_hits(text, keywords, start=0, stop=None):
    """Every (position, keyword) occurrence, longer keywords first on ties."""
    stop = len(text) if stop is None else stop
    hits = []
    for position in range(start, stop):
        at_position = [
            keyword for keyword in keywords
            if text.startswith(keyword, position)
            and position + len(keyword) <= len(text)
        ]
        for keyword in sorted(at_position, key=len, reverse=True):
            hits.append((position, keyword))
    return hits


def random_case(rng):
    length = rng.randint(0, 80)
    text = "".join(rng.choice(_ALPHABET) for _ in range(length))
    keywords = list(
        {
            "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        }
    )
    return text, keywords


def random_tag_case(rng):
    """Text plus tag-shaped keywords (``<name`` / ``</name``)."""
    names = ["a", "ab", "abc", "b", "c"]
    keywords = list(
        {
            ("</" if rng.random() < 0.4 else "<") + rng.choice(names)
            for _ in range(rng.randint(1, 5))
        }
    )
    pieces = []
    for _ in range(rng.randint(0, 20)):
        roll = rng.random()
        if roll < 0.5:
            pieces.append(rng.choice(keywords) + rng.choice([">", " ", "d>"]))
        elif roll < 0.7:
            pieces.append("<" + rng.choice(names) + "d>")
        else:
            pieces.append(rng.choice(["text", "b", "/", " "]))
    return "".join(pieces), keywords


class TestTrieRegex:
    def test_matches_exactly_the_keyword_set(self):
        keywords = ["<a", "<ab", "<abc", "</a", "<b"]
        pattern = re.compile(trie_regex(keywords))
        for keyword in keywords:
            assert pattern.fullmatch(keyword), keyword
        for non_member in ["<", "<ac", "</b", "a", "abc"]:
            assert not pattern.fullmatch(non_member), non_member

    def test_prefers_the_longest_keyword(self):
        pattern = re.compile(trie_regex(["<Abstract", "<AbstractText"]))
        match = pattern.search("xx<AbstractTextyy")
        assert match.group() == "<AbstractText"
        match = pattern.search("xx<Abstractyy")
        assert match.group() == "<Abstract"

    def test_random_sets_agree_with_leftmost_longest(self):
        rng = random.Random(4242)
        for _ in range(300):
            text, keywords = random_case(rng)
            pattern = re.compile(trie_regex(keywords))
            reference = NaiveMultiMatcher(keywords) if len(keywords) > 1 else None
            match = pattern.search(text)
            if reference is not None:
                expected = reference.find(text)
            else:
                expected = NaiveMatcher(keywords[0]).find(text)
            if expected is None:
                assert match is None
            else:
                assert match is not None
                assert (match.start(), match.group()) == (
                    expected.position, expected.keyword
                )


class TestCollectChunk:
    @pytest.mark.parametrize("matcher_class", MULTI_CLASSES)
    def test_whole_window_matches_brute_force(self, matcher_class):
        rng = random.Random(99)
        for _ in range(300):
            text, keywords = random_case(rng)
            if len(keywords) < 2:
                continue
            matcher = matcher_class(keywords)
            hits, resume = matcher.collect_chunk(
                text, 0, 0, len(text), at_eof=True
            )
            assert resume == len(text)
            assert hits == brute_force_hits(text, keywords)

    @pytest.mark.parametrize("matcher_class", MULTI_CLASSES)
    def test_windowed_scan_is_window_invariant(self, matcher_class):
        rng = random.Random(7)
        for _ in range(200):
            text, keywords = random_case(rng)
            if len(keywords) < 2:
                continue
            matcher = matcher_class(keywords)
            cuts = sorted(rng.sample(range(len(text) + 1),
                                     rng.randint(0, min(6, len(text) + 1))))
            boundaries = [cut for cut in cuts if cut < len(text)] + [len(text)]
            collected = []
            position = 0
            for index, boundary in enumerate(boundaries):
                at_eof = index == len(boundaries) - 1
                hits, position = matcher.collect_chunk(
                    text, 0, position, boundary, at_eof=at_eof
                )
                collected.extend(hits)
            assert collected == brute_force_hits(text, keywords)

    def test_single_keyword_collect(self):
        matcher = NativeSingleMatcher("ab")
        hits, resume = matcher.collect_chunk("abxabab", 0, 0, 7, at_eof=True)
        assert hits == [(0, "ab"), (3, "ab"), (5, "ab")]
        assert resume == 7
        # Held-back tail: an occurrence could still straddle the window end.
        matcher = NativeSingleMatcher("ab")
        hits, resume = matcher.collect_chunk("abxa", 0, 0, 4, at_eof=False)
        assert hits == [(0, "ab")]
        assert resume == 3

    def test_counts_one_search_per_batch(self):
        matcher = NativeMultiMatcher(["<a", "<ab"])
        matcher.collect_chunk("<ab<a<ab", 0, 0, 8, at_eof=True)
        assert matcher.stats.searches == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "keywords", BYTE_KEYWORD_SETS, ids=lambda kws: str(len(kws))
    )
    def test_byte_stream_windows_match_brute_force(self, backend, keywords):
        """Every backend, unary and multi-keyword, over a growing byte
        buffer: the chunked hits equal the whole-document enumeration, and
        matchers fed identical windows count identical statistics."""
        text = (
            b'<ab x="1"><abc><a></a><Abstract><AbstractText a="v>w"/>'
            b"</Abstract><MedlineCitation>t</MedlineCitation>" * 40
        )
        expected = brute_force_hits(text, keywords)
        for chunk in (256, 4096):
            matchers = [make_matcher(keywords, backend=backend) for _ in "ab"]
            collected = []
            position = 0
            while position < len(text):
                end = min(len(text), position + chunk)
                at_eof = end == len(text)
                window = text[:end]
                results = [
                    matcher.collect_chunk(window, 0, position, end, at_eof=at_eof)
                    for matcher in matchers
                ]
                assert results[0] == results[1]
                hits, resume = results[0]
                assert position <= resume <= end
                assert all(position <= hit < resume for hit, _ in hits)
                collected.extend(hits)
                position = resume
            assert collected == expected
            first, second = (vars(matcher.stats) for matcher in matchers)
            assert first == second


class TestKeywordDispatcher:
    def test_owners_union_and_lookup(self):
        dispatcher = KeywordDispatcher({0: ["<a", "<b"], 1: ["<b", "</c"]})
        assert dispatcher.keywords == ("</c", "<a", "<b")
        assert dispatcher.owners_of("<a") == (0,)
        assert dispatcher.owners_of("<b") == (0, 1)
        assert dispatcher.owners_of("</c") == (1,)

    def test_prefix_table_lists_shadowed_keywords_longest_first(self):
        dispatcher = KeywordDispatcher(
            {0: ["<Abstract"], 1: ["<AbstractText", "<Abs"]}
        )
        assert dispatcher.prefixes_of("<AbstractText") == ("<Abstract", "<Abs")
        assert dispatcher.prefixes_of("<Abstract") == ("<Abs",)

    def test_scan_agrees_with_pattern_plus_prefix_expansion(self):
        # Tag-shaped keywords ('<' only at offset 0): the precondition under
        # which the single-pass pattern scan is complete (see module docs).
        rng = random.Random(2024)
        for _ in range(200):
            text, keywords = random_tag_case(rng)
            dispatcher = KeywordDispatcher({0: keywords})
            scanned, _ = dispatcher.scan(text, 0, 0, len(text), at_eof=True)
            expanded = []
            for match in dispatcher.pattern.finditer(text):
                expanded.append((match.start(), match.group()))
                for prefix in dispatcher.prefixes_of(match.group()):
                    expanded.append((match.start(), prefix))
            assert scanned == expanded == brute_force_hits(text, keywords)

    def test_rejects_empty_vocabularies(self):
        from repro.errors import MatchingError

        with pytest.raises(MatchingError):
            KeywordDispatcher({})
