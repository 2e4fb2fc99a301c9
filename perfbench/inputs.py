"""Seeded inputs and their reference projections.

Every expected output comes from the token-based oracle
(:class:`repro.projection.ReferenceProjector`), which shares no code with the
SMP compiler.  It is computed once per run, before the timed trials.

The oracle runs at a few MB/s, so the large MEDLINE inputs are assembled
from a seeded pool of distinct citations: the oracle projects the pool once,
each citation's share of the projection is kept, and the expected output of
any document built from pool citations is the concatenation of those
shares.  This holds because the oracle decides every token from the stack
of its open ancestors alone, and every citation sits directly under the
``MedlineCitationSet`` root.  ``selftests.py`` checks the composition
against the oracle's own ``project_text``.
"""

from __future__ import annotations

import bisect
import hashlib
import random

from repro.projection import ReferenceProjector
from repro.workloads.medline.generator import MedlineGenerator
from repro.workloads.xmark import generate_xmark_document
from repro.xml.serialize import serialize_tokens
from repro.xml.tokenizer import XmlTokenizer
from repro.xml.tokens import TokenKind

CITATION_END = "</MedlineCitation>"


def checkers(dtd, specs) -> list:
    """The oracle's relevance checker for each query spec."""
    return [
        ReferenceProjector(
            spec.parsed_paths(), add_default_paths=False,
            alphabet=dtd.tag_names(),
        ).checker
        for spec in specs
    ]


def relevance_masks(tokens, query_checkers) -> list[list[bool]]:
    """For each checker, whether each token is kept.

    The same walk as ``ReferenceProjector.project_tokens``, with the
    relevance of each distinct (ancestors, name) key decided once and
    shared across the queries.
    """
    keys: dict = {}
    key_ids = []
    stack: tuple = ()
    for token in tokens:
        kind = token.kind
        if kind is TokenKind.START_TAG:
            key = (stack, token.name)
            stack = stack + (token.name,)
        elif kind is TokenKind.EMPTY_TAG:
            key = (stack, token.name)
        elif kind is TokenKind.END_TAG:
            stack = stack[:-1]
            key = (stack, token.name)
        elif kind is TokenKind.TEXT or kind is TokenKind.CDATA:
            key = (stack, None)
        else:
            key = None
        key_ids.append(keys.setdefault(key, len(keys)))
    masks = []
    for checker in query_checkers:
        relevant = [
            key is not None and checker.is_relevant(key[0], key[1])
            for key in keys
        ]
        masks.append([relevant[key_id] for key_id in key_ids])
    return masks


def project(tokens, mask) -> bytes:
    return serialize_tokens(
        [token for token, keep in zip(tokens, mask) if keep]
    ).encode("utf-8")


class CitationPool:
    """Distinct MEDLINE citations with each query's reference share.

    ``expected(query, order)`` is the oracle's projection of
    ``document(order)``, the root element holding the pool citations
    ``order`` (indices, repeats allowed).
    """

    def __init__(self, dtd, specs, *, seed: int, citations: int) -> None:
        text = MedlineGenerator(citations=citations, seed=seed).generate()
        bounds = [text.index(">") + 1]
        position = text.find(CITATION_END)
        while position >= 0:
            bounds.append(position + len(CITATION_END))
            position = text.find(CITATION_END, bounds[-1])
        self.head = text[:bounds[0]].encode("utf-8")
        self.tail = text[bounds[-1]:].encode("utf-8")
        self.citations = [
            text[start:end].encode("utf-8")
            for start, end in zip(bounds, bounds[1:])
        ]
        tokens = list(XmlTokenizer(text).tokens())
        masks = relevance_masks(tokens, checkers(dtd, specs))
        # Group token indices by segment: 0 = head, i + 1 = citation i,
        # len(bounds) = tail.
        segments: list[list[int]] = [[] for _ in range(len(bounds) + 1)]
        for index, token in enumerate(tokens):
            segments[bisect.bisect_right(bounds, token.start)].append(index)
        self.labels = [spec.name for spec in specs]
        #: label -> [head share, citation shares..., tail share]
        self.shares: dict[str, list[bytes]] = {}
        for label, mask in zip(self.labels, masks):
            self.shares[label] = [
                project([tokens[i] for i in segment], [mask[i] for i in segment])
                for segment in segments
            ]

    def document(self, order) -> bytes:
        return b"".join([self.head, *(self.citations[k] for k in order), self.tail])

    def expected(self, label: str, order) -> bytes:
        shares = self.shares[label]
        return b"".join([shares[0], *(shares[k + 1] for k in order), shares[-1]])

    def draw(self, rng: random.Random, target_bytes: int) -> list[int]:
        """Random citation indices whose document reaches ``target_bytes``."""
        order: list[int] = []
        size = len(self.head) + len(self.tail)
        while size < target_bytes:
            index = rng.randrange(len(self.citations))
            order.append(index)
            size += len(self.citations[index])
        return order


def xmark_document(dtd, specs, *, seed: int, megabytes: float):
    """A seeded XMark document and the oracle's projection per query."""
    text = generate_xmark_document(scale=megabytes, seed=seed)
    tokens = list(XmlTokenizer(text).tokens())
    masks = relevance_masks(tokens, checkers(dtd, specs))
    expected = {
        spec.name: project(tokens, mask) for spec, mask in zip(specs, masks)
    }
    return text.encode("utf-8"), expected


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
