"""In-memory spans recorded around calls into the repro layers.

The traced run of the benchmark wraps public callables of the program --
class methods, module functions, iterators -- so that every call records a
span: its name, start, end and the enclosing span.  Nothing under ``src/``
knows about it.  Spans stay in memory until the run ends, when
:func:`summarise` derives each layer's self time: a span's duration minus
the part of that interval its child spans cover.

Spans are recorded for the thread that drives the benchmark; the program's
helper threads (the worker-pool collector) call none of the wrapped
callables.
"""

from __future__ import annotations

import bisect
import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records nested spans; :meth:`wrap` installs them, :meth:`restore`
    puts every wrapped callable back."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent]`` list per span, in start order.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Named moments, e.g. when each record's ack frame was written.
        self.marks: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        return span

    def end(self, span: list) -> None:
        span[2] = _clock()
        self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def mark(self, name: str) -> None:
        self.marks[name].append(_clock())

    def iterate(self, iterable, name: str):
        """Yield from ``iterable``, one span per ``next()``."""
        iterator = iter(iterable)
        while True:
            span = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(span)
            yield item

    # ------------------------------------------------------------------
    # Installing spans around the program's callables
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, after=None,
             iterate: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (methods, class methods) or a module.
        ``after(result, args)`` runs outside the span once the call
        returned.  ``iterate`` is for generator functions: the work happens
        on each ``next()``, so each one becomes a span.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        if iterate:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return tracer.iterate(func(*args, **kwargs), name)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.end(span)
                if after is not None:
                    after(result, args)
                return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Put ``replacement`` in place of ``owner.attr`` until
        :meth:`restore`; a class method stays a class method."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(replacement)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - _union_length(clipped))
    return result


def summarise(spans: list[list], windows: list[tuple[float, float]]) -> dict:
    """Per span name: total self time, call count and call durations; plus
    ``coverage``, the share of the trial ``windows`` spent inside spans.

    Only spans whose outermost ancestor starts inside a window count, so
    set-up work traced before the trials does not inflate the coverage.
    """
    selfs = self_times(spans)
    root_of: list[int] = []
    for index, span in enumerate(spans):
        parent = span[3]
        root_of.append(index if parent < 0 else root_of[parent])
    ordered = sorted(windows)
    starts = [start for start, _ in ordered]

    def in_window(moment: float) -> bool:
        slot = bisect.bisect_right(starts, moment) - 1
        return slot >= 0 and moment <= ordered[slot][1]

    inside = [in_window(span[1]) for span in spans]
    layers: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "durations": []}
    )
    covered = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        if not inside[root_of[index]]:
            continue
        layer = layers[name]
        layer["self_s"] += selfs[index]
        layer["calls"] += 1
        layer["durations"].append(end - start)
        if parent < 0:
            covered += end - start
    wall = sum(end - start for start, end in windows)
    return {
        "layers": dict(layers),
        "covered_s": covered,
        "wall_s": wall,
        "coverage": covered / wall if wall > 0 else 0.0,
    }
