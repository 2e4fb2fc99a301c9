"""Streaming XPath evaluation over SAX events (the SPEX analogue).

SPEX [Olteanu 2007] evaluates XPath over XML streams with bounded buffering.
This module provides a comparable engine for the supported XPath subset: the
query's *spine* (the chain of element-name steps) is matched against the
stream with a stack of partial matches; once the stream reaches the deepest
spine step that still needs look-ahead (a step carrying predicates, or the
result step itself), the corresponding subtree is buffered, the remaining
path and predicates are evaluated on the buffer with the in-memory
evaluator, and matching results are emitted.

The engine processes every SAX event, i.e. it tokenizes its complete input -
that is precisely the property the paper exploits when it shows that
pipelining SMP prefiltering in front of such an engine lifts its throughput
(Figure 7(b)).  :meth:`StreamingXPathEngine.evaluate` takes one document
string; in the Figure 7(b) pairing that string is the SMP projection, and
``tests/integration/test_smp_vs_reference.py`` (like the Figure 7(b) bench)
checks that the answers on the projection equal those on the original.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.xml.sax import SaxHandler, parse_with_handler
from repro.xml.tree import XmlElement
from repro.xpath.ast import LocationPath, NodeTestKind, Step, XPathAxis
from repro.xpath.evaluator import ResultItem, evaluate_predicate, evaluate_relative
from repro.xpath.parser import parse_xpath


@dataclass
class StreamingStatistics:
    """Counters describing one streaming evaluation run."""

    events: int = 0
    buffered_elements: int = 0
    matches: int = 0
    buffered_subtrees: int = 0


@dataclass
class _PartialMatch:
    """A prefix of the spine matched by the current ancestor chain."""

    next_step: int
    depth: int


class _StreamingEvaluator(SaxHandler):
    """SAX handler implementing the buffered spine-matching strategy."""

    def __init__(self, path: LocationPath) -> None:
        self.path = path
        self.steps = list(path.steps)
        if not self.steps:
            raise QueryError("streaming evaluation requires at least one step")
        for step in self.steps:
            if step.test.kind is NodeTestKind.TEXT:
                raise QueryError("text() steps on the spine are not supported in streaming mode")
        # Buffer from the deepest step that needs look-ahead: the last step
        # with predicates, or the final (result) step if none has predicates.
        self.buffer_step = len(self.steps) - 1
        for index, step in enumerate(self.steps):
            if step.predicates:
                self.buffer_step = min(self.buffer_step, index)
                break
        self.results: list[ResultItem] = []
        self.stats = StreamingStatistics()
        self._depth = 0
        self._partials: list[_PartialMatch] = [_PartialMatch(next_step=0, depth=0)]
        self._buffer_stack: list[XmlElement] = []
        self._buffer_root: XmlElement | None = None
        self._buffer_depth = 0

    # ------------------------------------------------------------------
    # SAX callbacks
    # ------------------------------------------------------------------
    def start_element(self, name: str, attributes: dict[str, str]) -> None:
        self.stats.events += 1
        self._depth += 1
        if self._buffer_root is not None:
            element = XmlElement(name=name, attributes=dict(attributes))
            self._buffer_stack[-1].append(element)
            self._buffer_stack.append(element)
            self.stats.buffered_elements += 1
            return
        # Extend partial matches whose next step accepts this element.
        new_partials: list[_PartialMatch] = []
        starts_buffer = False
        for partial in self._partials:
            if partial.next_step >= len(self.steps):
                continue
            step = self.steps[partial.next_step]
            if not self._step_accepts(step, partial, name):
                continue
            if partial.next_step == self.buffer_step:
                starts_buffer = True
            else:
                new_partials.append(
                    _PartialMatch(next_step=partial.next_step + 1, depth=self._depth)
                )
        if starts_buffer:
            self._buffer_root = XmlElement(name=name, attributes=dict(attributes))
            self._buffer_stack = [self._buffer_root]
            self._buffer_depth = self._depth
            self.stats.buffered_subtrees += 1
            self.stats.buffered_elements += 1
            return
        self._partials.extend(new_partials)

    def characters(self, content: str) -> None:
        self.stats.events += 1
        if self._buffer_root is not None and self._buffer_stack:
            self._buffer_stack[-1].add_text(content)

    def end_element(self, name: str) -> None:
        self.stats.events += 1
        if self._buffer_root is not None:
            if self._depth == self._buffer_depth:
                self._finish_buffer()
            else:
                self._buffer_stack.pop()
            self._depth -= 1
            return
        self._partials = [
            partial for partial in self._partials if partial.depth < self._depth
        ] or [_PartialMatch(next_step=0, depth=0)]
        self._depth -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _step_accepts(self, step: Step, partial: _PartialMatch, name: str) -> bool:
        if step.test.name not in ("*", name):
            return False
        if step.axis is XPathAxis.CHILD:
            return self._depth == partial.depth + 1
        return self._depth >= partial.depth + 1

    def _finish_buffer(self) -> None:
        assert self._buffer_root is not None
        buffered = self._buffer_root
        self._buffer_root = None
        self._buffer_stack = []
        # The buffered element must satisfy the buffer step's predicates ...
        buffer_step = self.steps[self.buffer_step]
        if not all(
            evaluate_predicate(predicate, buffered) for predicate in buffer_step.predicates
        ):
            return
        # ... and the remaining steps are evaluated inside the buffer.
        remaining = self.steps[self.buffer_step + 1:]
        if not remaining:
            self.results.append(buffered)
            self.stats.matches += 1
            return
        relative = LocationPath(steps=tuple(remaining), absolute=False)
        for item in evaluate_relative(relative, buffered):
            self.results.append(item)
            self.stats.matches += 1


class StreamingXPathEngine:
    """Evaluate one XPath query over a document stream."""

    def __init__(self, query: str | LocationPath) -> None:
        self.path = parse_xpath(query) if isinstance(query, str) else query

    def evaluate(self, text: str) -> list[ResultItem]:
        """Evaluate the query over ``text`` and return the result items."""
        handler = _StreamingEvaluator(self.path)
        parse_with_handler(text, handler)
        self._last_stats = handler.stats
        return handler.results

    @property
    def last_stats(self) -> StreamingStatistics:
        """Statistics of the most recent evaluation."""
        return getattr(self, "_last_stats", StreamingStatistics())


def evaluate_streaming(query: str, text: str) -> list[ResultItem]:
    """One-shot helper for streaming evaluation."""
    return StreamingXPathEngine(query).evaluate(text)
