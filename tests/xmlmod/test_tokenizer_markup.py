"""The one-shot tokenizer on the markup forms that need care.

Every token carries the exact source span it was read from, so on a
well-formed document the spans tile the text with no gap or overlap: a
scanner that mishandles a ``>`` inside quotes, a ``]]`` run inside CDATA
or a DOCTYPE internal subset shows up as a broken tiling.
"""

from __future__ import annotations

import random

import pytest

from repro.core.sources import decode_chunks, iter_byte_chunks
from repro.errors import XmlSyntaxError
from repro.workloads.xmark import generate_xmark_document
from repro.xml.tokenizer import XmlTokenizer, tokenize
from repro.xml.tokens import TokenKind

PROLOG_DOCUMENT = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>\n"
    "<a attr='x>y'>text<!-- a > comment --><![CDATA[raw < markup]]>"
    "<b c=\"1\" d=\"2\"/>tail<?target data?></a>\n"
)

DOCUMENTS = {
    "prolog": PROLOG_DOCUMENT,
    # '>' inside quotes, CDATA with stray ']]' runs, a PI ending in '??>'.
    "quotes-cdata-pi": "<r a='1' b=\"x>y\"><![CDATA[ ]] ]>] ]]><?p q??></r>",
    # A DOCTYPE internal subset holding a comment.
    "doctype-subset": (
        "<!DOCTYPE r [<!ELEMENT r (#PCDATA)><!-- d c -->]>\n<r>t</r>"
    ),
    # Characters outside Latin-1, one of them outside the BMP.
    "non-latin1": "<a n='é'>café ☃<b/>\U0001d11e</a>",
    "nested-bachelors": "<a><b/><c><d x='&lt;'/></c><e>1</e></a>",
}


def assert_tiles(text, tokens):
    assert tokens, "no tokens"
    assert tokens[0].start == 0
    assert tokens[-1].end == len(text)
    for before, after in zip(tokens, tokens[1:]):
        assert before.end == after.start, (before, after)


class TestTiling:
    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_token_spans_tile_the_document(self, name):
        text = DOCUMENTS[name]
        tokenizer = XmlTokenizer(text)
        tokens = list(tokenizer.tokens())
        assert_tiles(text, tokens)
        assert tokenizer.stats.characters_read == len(text)
        assert tokenizer.stats.tokens_emitted == len(tokens)

    def test_prolog_document_token_kinds(self):
        tokens = tokenize(PROLOG_DOCUMENT)
        assert [token.kind for token in tokens] == [
            TokenKind.XML_DECLARATION, TokenKind.TEXT, TokenKind.DOCTYPE,
            TokenKind.TEXT, TokenKind.START_TAG, TokenKind.TEXT,
            TokenKind.COMMENT, TokenKind.CDATA, TokenKind.EMPTY_TAG,
            TokenKind.TEXT, TokenKind.PROCESSING_INSTRUCTION,
            TokenKind.END_TAG, TokenKind.TEXT,
        ]
        assert tokens[4].attribute("attr") == "x>y"
        assert tokens[7].text == "raw < markup"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_xmark_documents_tile(self, seed):
        rng = random.Random(seed)
        document = generate_xmark_document(
            scale=rng.uniform(0.002, 0.008), seed=rng.randint(0, 9999)
        )
        tokens = tokenize(document)
        assert_tiles(document, tokens)
        opened = sum(token.kind is TokenKind.START_TAG for token in tokens)
        closed = sum(token.kind is TokenKind.END_TAG for token in tokens)
        assert opened == closed


class TestErrorOffsets:
    """Errors name the problem and carry the absolute offset of the token
    (or document end) where it was detected."""

    @pytest.mark.parametrize("text, message, position", [
        ("<a><b>text</b>", "unclosed element <a>", 14),
        ("<a><b attr='val", "unterminated attribute value", 3),
        ("<a><b></a></b>", "mismatched closing tag </a>", 6),
        ("<a>ok</a><a>dup</a>", "multiple root elements", 9),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(XmlSyntaxError, match=message) as caught:
            tokenize(text)
        assert caught.value.position == position


class TestDecodedByteChunks:
    """Byte chunks split inside multi-byte characters decode, through
    :func:`decode_chunks`, to text that tokenizes like the whole."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 64, 10_000])
    def test_tokens_equal_whole_text(self, chunk_size):
        text = "<wrap>" + DOCUMENTS["non-latin1"] * 3 + "</wrap>"
        data = text.encode("utf-8")
        pieces = list(decode_chunks(iter_byte_chunks(data, chunk_size)))
        assert "".join(pieces) == text
        assert tokenize("".join(pieces)) == tokenize(text)
