"""Minimal SAX-style event API on top of the tokenizer.

The streaming XPath evaluator (SPEX analogue) and the token-based reference
projector both consume documents as SAX events.  The handler interface is a
small subset of the classical SAX ContentHandler: element start/end and
character data, which are exactly the token kinds the paper's formal
development uses.  Events are driven from a whole document string
(:func:`parse_with_handler`) or from an existing token stream
(:func:`drive_handler`).
"""

from __future__ import annotations

from typing import Iterable

from repro.xml.tokenizer import XmlTokenizer
from repro.xml.tokens import Token, TokenKind


class SaxHandler:
    """Base class for SAX-style content handlers.

    Subclasses override the callbacks they need; the defaults do nothing.
    """

    def start_document(self) -> None:
        """Called once before any other event."""

    def end_document(self) -> None:
        """Called once after all other events."""

    def start_element(self, name: str, attributes: dict[str, str]) -> None:
        """Called for each opening tag (and for bachelor tags, before end)."""

    def end_element(self, name: str) -> None:
        """Called for each closing tag (and for bachelor tags, after start)."""

    def characters(self, content: str) -> None:
        """Called for character data (text and CDATA)."""


def dispatch_token(token: Token, handler: SaxHandler) -> None:
    """Deliver one token to ``handler`` as SAX events.

    Bachelor tags produce a ``start_element`` immediately followed by an
    ``end_element``, mirroring how the SMP runtime treats them (Figure 4:
    "evaluate the steps for the opening tag and the closing tag one after
    the other").
    """
    if token.kind is TokenKind.START_TAG:
        handler.start_element(token.name, dict(token.attributes))
    elif token.kind is TokenKind.EMPTY_TAG:
        handler.start_element(token.name, dict(token.attributes))
        handler.end_element(token.name)
    elif token.kind is TokenKind.END_TAG:
        handler.end_element(token.name)
    elif token.kind in (TokenKind.TEXT, TokenKind.CDATA):
        handler.characters(token.text)


def drive_handler(tokens: Iterable[Token], handler: SaxHandler) -> None:
    """Feed a token stream to ``handler`` as SAX events."""
    handler.start_document()
    for token in tokens:
        dispatch_token(token, handler)
    handler.end_document()


def parse_with_handler(text: str, handler: SaxHandler) -> None:
    """Tokenize ``text`` and stream the events into ``handler``."""
    drive_handler(XmlTokenizer(text).tokens(), handler)


class EventCollector(SaxHandler):
    """A handler that records events as tuples; used by tests and examples."""

    def __init__(self) -> None:
        self.events: list[tuple[str, ...]] = []

    def start_document(self) -> None:
        self.events.append(("start-document",))

    def end_document(self) -> None:
        self.events.append(("end-document",))

    def start_element(self, name: str, attributes: dict[str, str]) -> None:
        self.events.append(("start", name, tuple(sorted(attributes.items()))))

    def end_element(self, name: str) -> None:
        self.events.append(("end", name))

    def characters(self, content: str) -> None:
        self.events.append(("text", content))
