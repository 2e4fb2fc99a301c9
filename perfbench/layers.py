"""The layers the traced run decomposes, and the benchmark's own sinks.

:func:`install_spans` wraps the public callables each layer is reached
through; :func:`layer_metrics` turns the recorded spans into the per-layer
metrics of ``BENCHMARK.json``.  Time metrics are self times per trial; for
``medline-records-serve`` a trial is one record.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from multiprocessing.reduction import ForkingPickler

from repro import aio, api, checkpoint, parallel
from repro.core.multi import MultiQueryEngine, MultiQuerySession
from repro.core.prefilter import SmpPrefilter
from repro.core.stats import RunStatistics
from repro.dtd.model import Dtd

from spans import Tracer

#: The counters the paper's tables are built from; identical on every trial.
STAT_FIELDS = (
    "input_size", "output_size", "char_comparisons", "local_scan_chars",
    "shifts", "shift_total", "initial_jump_chars", "initial_jumps",
    "tokens_matched", "tokens_copied", "regions_copied",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "sources.read_s": "s", "sources.chunks": "count",
    "sources.split_s": "s", "sources.records": "count",
    "compile.dtd_parse_s": "s", "compile.plan_s": "s",
    "compile.shared_open_s": "s", "compile.runtime_states": "count",
    "compile.cw_states": "count", "compile.bm_states": "count",
    "session.open_s": "s", "session.opens": "count",
    "session.feed_s": "s", "session.finish_s": "s",
    "runtime.char_comparison_ratio": "%", "runtime.average_shift": "bytes",
    "runtime.initial_jump_ratio": "%", "runtime.tokens_matched": "count",
    "runtime.regions_copied": "count",
    "kernel.find_token_s": "s", "kernel.find_token_calls": "count",
    "kernel.step_events_s": "s", "kernel.step_events_calls": "count",
    "kernel.compile_step_s": "s", "kernel.compile_step_calls": "count",
    "emit.fragments": "count", "emit.bytes": "bytes",
    "emit.projection_ratio": "fraction", "sink.write_s": "s",
    "multi.tokens_matched": "count", "multi.feed_s": "s",
    "parallel.pool_start_s": "s", "parallel.pool_stop_s": "s",
    "parallel.submit_s": "s", "parallel.merge_wait_s": "s",
    "parallel.worker_busy_s": "s", "parallel.worker_utilization": "fraction",
    "parallel.pickled_bytes": "bytes", "parallel.retries": "count",
    "aio.frames_out": "count", "aio.frame_bytes": "bytes",
    "aio.write_frame_s": "s", "aio.generator_lag_ms": "ms",
    "checkpoint.commits": "count", "checkpoint.commit_s": "s",
    "checkpoint.commit_p50_ms": "ms",
    "trace.overhead": "ratio", "trace.coverage": "fraction",
}

#: Span name -> (self-time metric, call-count metric or None).
_SPAN_METRICS = {
    "sources.read": ("sources.read_s", "sources.chunks"),
    "sources.split": ("sources.split_s", None),
    "session.open": ("session.open_s", "session.opens"),
    "session.feed": ("session.feed_s", None),
    "session.finish": ("session.finish_s", None),
    "kernel.find_token": ("kernel.find_token_s", "kernel.find_token_calls"),
    "kernel.step_events": ("kernel.step_events_s", "kernel.step_events_calls"),
    "kernel.compile_step": ("kernel.compile_step_s", "kernel.compile_step_calls"),
    "sink.write": ("sink.write_s", None),
    "multi.feed": ("multi.feed_s", None),
    "parallel.pool_start": ("parallel.pool_start_s", None),
    "parallel.pool_stop": ("parallel.pool_stop_s", None),
    "parallel.submit": ("parallel.submit_s", None),
    "parallel.merge_wait": ("parallel.merge_wait_s", None),
    "aio.write_frame": ("aio.write_frame_s", "aio.frames_out"),
    "checkpoint.commit": ("checkpoint.commit_s", "checkpoint.commits"),
}

_SETUP_SPANS = {
    "compile.dtd_parse": "compile.dtd_parse_s",
    "compile.plan": "compile.plan_s",
    "compile.shared_open": "compile.shared_open_s",
}


class DigestSink(api.Sink):
    """Hashes the projection as it streams; keeps no output."""

    binary = True

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._hash = hashlib.sha256()
        self.size = 0
        self.writes = 0

    def write(self, fragment) -> None:
        self._hash.update(fragment)
        self.size += len(fragment)
        self.writes += 1

    def digest(self) -> bytes:
        return self._hash.digest()


class DocumentSink(DigestSink):
    """A corpus sink: one digest and arrival time per merged document."""

    def reset(self) -> None:
        super().reset()
        self.digests: list[bytes] = []
        self.arrivals: list[float] = []

    def write(self, fragment) -> None:
        self.arrivals.append(time.perf_counter())
        self.digests.append(hashlib.sha256(fragment).digest())
        self.size += len(fragment)
        self.writes += 1


def stats_key(stats) -> tuple:
    """The paper counters of each statistics record, for equality checks."""
    return tuple(
        tuple(getattr(record, name) for name in STAT_FIELDS)
        for record in stats if record is not None
    )


def merged(stats) -> RunStatistics:
    total = RunStatistics()
    for record in stats:
        total.merge(record)
    return total


def install_compile_spans(tracer: Tracer) -> None:
    tracer.wrap(Dtd, "parse", "compile.dtd_parse")
    tracer.wrap(SmpPrefilter, "compile", "compile.plan")
    tracer.wrap(MultiQueryEngine, "__init__", "compile.shared_open")


def install_spans(tracer: Tracer, accel, *, sink_types=(DigestSink,),
                  on_finish=None) -> None:
    """Wrap every layer boundary the trials cross.

    ``on_finish(session)`` sees each finished :class:`repro.api.Session`
    (the serving process reads the paper counters there).
    """
    finish_hook = None if on_finish is None else (
        lambda _result, args: on_finish(args[0])
    )
    tracer.wrap(api.Engine, "open", "session.open")
    tracer.wrap(api.Session, "feed", "session.feed")
    tracer.wrap(api.Session, "finish", "session.finish", after=finish_hook)
    tracer.wrap(MultiQuerySession, "feed", "multi.feed")
    tracer.wrap(MultiQuerySession, "finish", "multi.feed")
    for kernel in ("find_token", "step_events", "compile_step"):
        tracer.wrap(accel, kernel, f"kernel.{kernel}")
    for sink_type in sink_types:
        tracer.wrap(sink_type, "write", "sink.write")
    tracer.wrap(parallel.WorkerPool, "__init__", "parallel.pool_start")
    tracer.wrap(parallel.WorkerPool, "close", "parallel.pool_stop")
    tracer.wrap(parallel.WorkerPool, "submit_document", "parallel.submit")
    tracer.wrap(parallel, "execute_corpus", "parallel.merge_wait", iterate=True)

    def frame_written(_result, args) -> None:
        tracer.count("aio.frame_bytes",
                     aio.FRAME_HEADER.size + len(args[2]) + len(args[3]))
        if args[1] == aio.FRAME_RECORD:
            tracer.mark("aio.record_frame")
        elif args[1] == aio.FRAME_DATA:
            tracer.count("aio.data_frames")

    tracer.wrap(aio, "write_frame", "aio.write_frame", after=frame_written)
    tracer.wrap(checkpoint, "write_checkpoint", "checkpoint.commit")
    _count_pickled_bytes(tracer)


def _count_pickled_bytes(tracer: Tracer) -> None:
    """Count the bytes of every message this process sends into, or takes
    out of, a multiprocessing queue: the worker pool's tasks go out pickled
    by ``ForkingPickler.dumps``, its results come back through
    ``ForkingPickler.loads``.  The queues' feeder and collector threads do
    this, so it is a counter under a lock, not a span."""
    lock = threading.Lock()
    dumps = ForkingPickler.dumps.__func__
    loads = ForkingPickler.loads

    def counted(size: int) -> None:
        with lock:
            tracer.count("parallel.pickled_bytes", size)

    def counting_dumps(cls, obj, protocol=None):
        data = dumps(cls, obj, protocol)
        counted(len(data))
        return data

    def counting_loads(data, /, **kwargs):
        counted(len(data))
        return loads(data, **kwargs)

    tracer.patch(ForkingPickler, "dumps", counting_dumps)
    tracer.patch(ForkingPickler, "loads", staticmethod(counting_loads))


def setup_metrics(summary: dict, plans) -> dict:
    """The compile-layer metrics of one traced set-up."""
    metrics = {
        metric: summary["layers"].get(span, {}).get("self_s", 0.0)
        for span, metric in _SETUP_SPANS.items()
    }
    metrics["compile.runtime_states"] = sum(p.compilation.runtime_states for p in plans)
    metrics["compile.cw_states"] = sum(p.compilation.cw_states for p in plans)
    metrics["compile.bm_states"] = sum(p.compilation.bm_states for p in plans)
    return metrics


def runtime_metrics(stats, scan_stats, input_bytes: int) -> dict:
    """Per-trial counters from the paper statistics of one trial."""
    total = merged(stats)
    return {
        "runtime.char_comparison_ratio": total.char_comparison_ratio,
        "runtime.average_shift": total.average_shift,
        "runtime.initial_jump_ratio": total.initial_jump_ratio,
        "runtime.tokens_matched": total.tokens_matched,
        "runtime.regions_copied": total.regions_copied,
        "multi.tokens_matched": 0 if scan_stats is None else scan_stats.tokens_matched,
        "emit.projection_ratio": total.output_size / input_bytes if input_bytes else 0.0,
    }


def layer_metrics(summary: dict, trials: int, counters: dict,
                  extra: dict) -> dict:
    """Every per-layer metric: span self times and counts per trial, the
    ``extra`` values the workload measured itself, 0 where a layer is not
    on this workload's path."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    layers = summary["layers"]
    for span, (time_metric, count_metric) in _SPAN_METRICS.items():
        layer = layers.get(span)
        if layer is None:
            continue
        metrics[time_metric] = layer["self_s"] / trials
        if count_metric is not None:
            metrics[count_metric] = layer["calls"] / trials
    if "sources.read" in layers:
        # Each pass over the chunks ends with one next() that finds none.
        metrics["sources.chunks"] -= 1
    if "checkpoint.commit" in layers:
        metrics["checkpoint.commit_p50_ms"] = 1e3 * statistics.median(
            layers["checkpoint.commit"]["durations"]
        )
    for counter in ("aio.frame_bytes", "sources.records",
                    "parallel.pickled_bytes"):
        metrics[counter] = counters.get(counter, 0.0) / trials
    metrics["trace.coverage"] = summary["coverage"]
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return metrics
