"""XML tokenizer (the SAX-parser baseline of the paper).

The tokenizer plays the role Xerces plays in Figure 7(c): it turns a
document held in one string into a lazily yielded stream of tokens by
inspecting *every* character.  It is deliberately written as a single
forward scan with no skipping so that comparing it with the SMP runtime
reproduces the paper's claim that "prefiltering systems that
rely on a tokenization of their input cannot compete" with string-matching
based prefiltering.

The parser is non-validating but checks well-formedness of what it sees:
balanced tags, properly quoted attributes, legal names.  DOCTYPE declarations
(including an internal subset), comments, CDATA sections, processing
instructions and the XML declaration are recognised and reported as their own
token kinds.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XmlSyntaxError
from repro.xml.escape import is_name_char, is_name_start_char
from repro.xml.tokens import Token, TokenKind

_WHITESPACE = " \t\r\n"

#: ASCII run of XML name characters -- exactly the characters for which
#: :func:`is_name_char` is true in the ASCII range.  The predicate itself
#: accepts non-ASCII alphanumerics (``str.isalnum``), which no regex class
#: reproduces, so :meth:`XmlTokenizer._scan_name` consumes ASCII runs with
#: this pattern and falls back to the per-character predicate only on
#: non-ASCII name characters.
_ASCII_NAME_RUN = re.compile(r"[0-9A-Za-z_:.\-]*")


class TokenizerStatistics:
    """Counters describing the work performed by the tokenizer."""

    def __init__(self) -> None:
        self.characters_read = 0
        self.tokens_emitted = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "characters_read": self.characters_read,
            "tokens_emitted": self.tokens_emitted,
        }


def _register_token(
    token: Token, open_elements: list[str], seen_root: bool
) -> bool:
    """Well-formedness bookkeeping for one token of :meth:`XmlTokenizer.tokens`.

    Maintains the ``open_elements`` stack in place and returns the updated
    ``seen_root`` flag; raises :class:`XmlSyntaxError` on structural errors.
    """
    kind = token.kind
    if kind is TokenKind.START_TAG:
        if not open_elements:
            if seen_root:
                raise XmlSyntaxError("multiple root elements", token.start)
            seen_root = True
        open_elements.append(token.name)
    elif kind is TokenKind.EMPTY_TAG:
        if not open_elements:
            if seen_root:
                raise XmlSyntaxError("multiple root elements", token.start)
            seen_root = True
    elif kind is TokenKind.END_TAG:
        if not open_elements:
            raise XmlSyntaxError(
                f"closing tag </{token.name}> without matching opening tag",
                token.start,
            )
        expected = open_elements.pop()
        if expected != token.name:
            raise XmlSyntaxError(
                f"mismatched closing tag </{token.name}>, expected </{expected}>",
                token.start,
            )
    elif kind is TokenKind.TEXT:
        if token.text.strip() and not open_elements:
            raise XmlSyntaxError(
                "character data outside of the root element", token.start
            )
    return seen_root


class XmlTokenizer:
    """Tokenize an XML document held in a string.

    Parameters
    ----------
    text:
        The document text.

    Each token records its source offsets.
    """

    def __init__(self, text: str) -> None:
        self._text = text
        self._length = len(text)
        self.stats = TokenizerStatistics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def tokens(self) -> Iterator[Token]:
        """Yield the document's tokens in order."""
        text = self._text
        length = self._length
        position = 0
        open_elements: list[str] = []
        seen_root = False
        while position < length:
            if text[position] == "<":
                token, position = self._read_markup(position)
                if token is None:
                    continue
            else:
                token, position = self._read_text(position)
            seen_root = _register_token(token, open_elements, seen_root)
            self.stats.tokens_emitted += 1
            yield token
        if open_elements:
            raise XmlSyntaxError(
                f"unexpected end of document; unclosed element <{open_elements[-1]}>",
                length,
            )
        self.stats.characters_read = length

    # ------------------------------------------------------------------
    # Markup
    # ------------------------------------------------------------------
    def _read_markup(self, position: int) -> tuple[Token | None, int]:
        text = self._text
        length = self._length
        start = position
        if position + 1 >= length:
            raise XmlSyntaxError("unexpected end of document after '<'", position)
        nxt = text[position + 1]
        if nxt == "?":
            return self._read_processing_instruction(position)
        if nxt == "!":
            if text.startswith("<!--", position):
                return self._read_comment(position)
            if text.startswith("<![CDATA[", position):
                return self._read_cdata(position)
            if text.startswith("<!DOCTYPE", position):
                return self._read_doctype(position)
            raise XmlSyntaxError("unrecognised markup declaration", position)
        if nxt == "/":
            return self._read_end_tag(position)
        return self._read_start_tag(position, start)

    def _read_processing_instruction(self, position: int) -> tuple[Token, int]:
        text = self._text
        end = text.find("?>", position + 2)
        if end < 0:
            raise XmlSyntaxError("unterminated processing instruction", position)
        content = text[position + 2:end]
        target, _, rest = content.partition(" ")
        kind = (
            TokenKind.XML_DECLARATION
            if target.lower() == "xml"
            else TokenKind.PROCESSING_INSTRUCTION
        )
        token = Token(
            kind=kind,
            name=target,
            text=rest,
            start=position,
            end=end + 2,
        )
        return token, end + 2

    def _read_comment(self, position: int) -> tuple[Token, int]:
        text = self._text
        end = text.find("-->", position + 4)
        if end < 0:
            raise XmlSyntaxError("unterminated comment", position)
        token = Token(
            kind=TokenKind.COMMENT,
            text=text[position + 4:end],
            start=position,
            end=end + 3,
        )
        return token, end + 3

    def _read_cdata(self, position: int) -> tuple[Token, int]:
        text = self._text
        end = text.find("]]>", position + 9)
        if end < 0:
            raise XmlSyntaxError("unterminated CDATA section", position)
        token = Token(
            kind=TokenKind.CDATA,
            text=text[position + 9:end],
            start=position,
            end=end + 3,
        )
        return token, end + 3

    def _read_doctype(self, position: int) -> tuple[Token, int]:
        # Vectorized bracket-depth scan: candidate delimiters come from
        # C-level ``find`` instead of a per-character loop, processed in
        # text order so the depth bookkeeping is unchanged.
        text = self._text
        length = self._length
        cursor = position + len("<!DOCTYPE")
        depth = 0
        while True:
            gt = text.find(">", cursor)
            limit = length if gt < 0 else gt
            lb = text.find("[", cursor, limit)
            rb = text.find("]", cursor, limit)
            if lb >= 0 and (rb < 0 or lb < rb):
                depth += 1
                cursor = lb + 1
                continue
            if rb >= 0:
                depth -= 1
                cursor = rb + 1
                continue
            if gt < 0:
                raise XmlSyntaxError("unterminated DOCTYPE declaration", position)
            if depth <= 0:
                token = Token(
                    kind=TokenKind.DOCTYPE,
                    text=text[position + len("<!DOCTYPE"):gt].strip(),
                    start=position,
                    end=gt + 1,
                )
                return token, gt + 1
            cursor = gt + 1  # a '>' inside the internal subset

    def _read_end_tag(self, position: int) -> tuple[Token, int]:
        text = self._text
        length = self._length
        cursor = position + 2
        name_start = cursor
        cursor = self._scan_name(cursor, "closing tag")
        name = text[name_start:cursor]
        while cursor < length and text[cursor] in _WHITESPACE:
            cursor += 1
        if cursor >= length or text[cursor] != ">":
            raise XmlSyntaxError(f"malformed closing tag </{name}", position)
        token = Token(
            kind=TokenKind.END_TAG,
            name=name,
            start=position,
            end=cursor + 1,
        )
        return token, cursor + 1

    def _read_start_tag(self, position: int, start: int) -> tuple[Token, int]:
        text = self._text
        length = self._length
        cursor = position + 1
        name_start = cursor
        cursor = self._scan_name(cursor, "opening tag")
        name = text[name_start:cursor]
        attributes: list[tuple[str, str]] = []
        while True:
            while cursor < length and text[cursor] in _WHITESPACE:
                cursor += 1
            if cursor >= length:
                raise XmlSyntaxError(f"unterminated tag <{name}", position)
            character = text[cursor]
            if character == ">":
                token = Token(
                    kind=TokenKind.START_TAG,
                    name=name,
                    attributes=tuple(attributes),
                    start=start,
                    end=cursor + 1,
                )
                return token, cursor + 1
            if character == "/":
                if cursor + 1 >= length or text[cursor + 1] != ">":
                    raise XmlSyntaxError(f"malformed empty-element tag <{name}", position)
                token = Token(
                    kind=TokenKind.EMPTY_TAG,
                    name=name,
                    attributes=tuple(attributes),
                    start=start,
                    end=cursor + 2,
                )
                return token, cursor + 2
            attribute_start = cursor
            cursor = self._scan_name(cursor, "attribute")
            attribute_name = text[attribute_start:cursor]
            while cursor < length and text[cursor] in _WHITESPACE:
                cursor += 1
            if cursor >= length or text[cursor] != "=":
                raise XmlSyntaxError(
                    f"attribute {attribute_name!r} in <{name}> has no value", position
                )
            cursor += 1
            while cursor < length and text[cursor] in _WHITESPACE:
                cursor += 1
            if cursor >= length or text[cursor] not in ("'", '"'):
                raise XmlSyntaxError(
                    f"attribute {attribute_name!r} in <{name}> is not quoted", position
                )
            quote = text[cursor]
            value_end = text.find(quote, cursor + 1)
            if value_end < 0:
                raise XmlSyntaxError(
                    f"unterminated attribute value for {attribute_name!r}", position
                )
            attributes.append((attribute_name, text[cursor + 1:value_end]))
            cursor = value_end + 1

    def _scan_name(self, cursor: int, context: str) -> int:
        text = self._text
        length = self._length
        if cursor >= length or not is_name_start_char(text[cursor]):
            raise XmlSyntaxError(f"invalid {context} name", cursor)
        cursor += 1
        while True:
            # ASCII runs in one C-level regex step; only non-ASCII name
            # characters (Unicode alphanumerics) take the per-character
            # predicate, then the run scan resumes.
            cursor = _ASCII_NAME_RUN.match(text, cursor, length).end()
            if cursor < length and is_name_char(text[cursor]):
                cursor += 1
                continue
            return cursor

    # ------------------------------------------------------------------
    # Character data
    # ------------------------------------------------------------------
    def _read_text(self, position: int) -> tuple[Token, int]:
        text = self._text
        end = text.find("<", position)
        if end < 0:
            end = self._length
        content = text[position:end]
        token = Token(
            kind=TokenKind.TEXT,
            text=content,
            start=position,
            end=end,
        )
        return token, end


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` and return the full token list."""
    return list(XmlTokenizer(text).tokens())


def structural_tokens(text: str) -> list[Token]:
    """Tokenize ``text`` keeping only tags and character data.

    This is the token sequence the paper's projection semantics is defined
    over (Section III).
    """
    return [token for token in XmlTokenizer(text).tokens() if token.is_structural]
