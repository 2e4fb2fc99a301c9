"""Parameterized throughput over generated workloads.

The builtin benches measure two fixed corpora (MEDLINE, XMark); this one
makes the performance claims *parameterized*: throughput as a function of
nesting depth, fanout, and concurrent query count over seed-deterministic
generated workloads (:func:`repro.workloads.get` ``gen:`` addresses).
Three row series land in ``benchmarks/results/BENCH_generated.json``:

- ``depth_rows``: nesting depth sweep at fixed fanout/query count;
- ``fanout_rows``: fanout sweep at fixed depth;
- ``query_rows``: shared-scan query count sweep on one fixed schema.

No per-row perf gate: the series are informational (they feed the perf
smoke's informational row and release-over-release comparisons).  Byte
correctness *is* asserted: every measured run must produce the same
per-query output as a per-token reference pass.
"""

from __future__ import annotations

import pytest

from repro import MultiQueryEngine, workloads
from repro.bench import (
    TableReporter,
    measure,
    throughput_mb_per_second,
    write_json_report,
)
from repro.core.stream import iter_chunks

CHUNK_SIZE = 64 * 1024
ROUNDS = 3

#: Corpus sizing per generated workload (small enough for CI, large enough
#: to dominate session setup).
RECORDS = 4
RECORD_BYTES = 120_000

DEPTHS = (4, 8, 12, 16)
FANOUTS = (2, 4, 8)
QUERY_COUNTS = (1, 4, 8, 16)

_REPORTER = TableReporter(
    title="Generated workloads: throughput vs depth / fanout / query count",
    columns=["Series", "Value", "Queries", "Input MB", "Wall s", "MB/s"],
)

_DEPTH_ROWS: list[dict[str, object]] = []
_FANOUT_ROWS: list[dict[str, object]] = []
_QUERY_ROWS: list[dict[str, object]] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_table():
    yield
    if _REPORTER.rows:
        _REPORTER.emit()
    if _DEPTH_ROWS or _FANOUT_ROWS or _QUERY_ROWS:
        write_json_report("BENCH_generated.json", {
            "records": RECORDS,
            "record_bytes": RECORD_BYTES,
            "chunk_size": CHUNK_SIZE,
            "backend": "native",
            "depth_rows": _DEPTH_ROWS,
            "fanout_rows": _FANOUT_ROWS,
            "query_rows": _QUERY_ROWS,
        })


def _best_of(callable_, rounds=ROUNDS):
    best = None
    for _ in range(rounds):
        sample = measure(callable_, trace_memory=False)
        if best is None or sample.wall_seconds < best.wall_seconds:
            best = sample
    return best


def _satisfiable(workload, count):
    names = [
        name for name in workload.query_order
        if "phantom" not in name and "never" not in name
    ]
    return [workload.query(name) for name in names[:count]]


def _shared_pass(engine, stream, query_count, delivery=None):
    session = engine.session(binary=True, delivery=delivery)
    outputs = [[] for _ in range(query_count)]
    for chunk in iter_chunks(stream, CHUNK_SIZE):
        for index, piece in enumerate(session.feed(chunk)):
            outputs[index].append(piece)
    for index, piece in enumerate(session.finish()):
        outputs[index].append(piece)
    return [b"".join(pieces) for pieces in outputs]


def _measure_workload(address, query_count):
    workload = workloads.get(address)
    stream = workload.stream()
    specs = _satisfiable(workload, query_count)
    assert len(specs) == query_count, address
    engine = MultiQueryEngine(workload.dtd, specs, backend="native")

    # Byte-identity precondition: the measured (default-delivery) pass
    # must equal the pure reference pass.
    reference = _shared_pass(engine, stream, query_count,
                             delivery="batched")
    assert _shared_pass(engine, stream, query_count) == reference

    best = _best_of(lambda: _shared_pass(engine, stream, query_count))
    return stream, best


def _row(series, value, query_count, stream, best):
    mb_per_second = throughput_mb_per_second(len(stream), best.wall_seconds)
    _REPORTER.add_row(
        series, value, query_count, f"{len(stream) / 1e6:.1f}",
        best.wall_seconds, mb_per_second,
    )
    return {
        "series": series,
        "value": value,
        "query_count": query_count,
        "input_bytes": float(len(stream)),
        "wall_seconds": best.wall_seconds,
        "mb_per_second": mb_per_second,
    }


@pytest.mark.parametrize("depth", DEPTHS)
def test_depth_series(benchmark, depth):
    address = (f"gen:depth={depth},fanout=3,seed=31,records={RECORDS},"
               f"record_bytes={RECORD_BYTES},queries=8")
    stream, best = _measure_workload(address, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _DEPTH_ROWS.append(_row("depth", depth, 4, stream, best))


@pytest.mark.parametrize("fanout", FANOUTS)
def test_fanout_series(benchmark, fanout):
    address = (f"gen:depth=5,fanout={fanout},seed=32,records={RECORDS},"
               f"record_bytes={RECORD_BYTES},queries=8")
    stream, best = _measure_workload(address, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _FANOUT_ROWS.append(_row("fanout", fanout, 4, stream, best))


@pytest.mark.parametrize("count", QUERY_COUNTS)
def test_query_count_series(benchmark, count):
    address = (f"gen:depth=6,fanout=4,seed=33,records={RECORDS},"
               f"record_bytes={RECORD_BYTES},queries=24,unsat_ratio=0.0")
    stream, best = _measure_workload(address, count)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _QUERY_ROWS.append(_row("queries", count, count, stream, best))
