"""Parallel sharded execution and zero-copy buffer-reuse ingestion.

Covers the correctness contract of ``Engine(mode="parallel")``: output and
aggregated statistics byte-identical to sequential execution whatever the
completion order, error propagation naming the failing document, the
``jobs=1`` in-process fallback, corpus sources (paths, directory globs,
record-boundary splitting) and the ``BufferPool``/``readinto`` ingestion
path (pooled chunks == fresh chunks, mutation-after-feed safety).
"""

from __future__ import annotations

import os
import threading
from multiprocessing.reduction import ForkingPickler

import pytest

from repro import api, parallel
from repro.core.sources import BufferPool, file_chunks, split_documents
from repro.core.stats import RunStatistics
from repro.errors import QueryError, ReproError, RuntimeFilterError
from repro.workloads.medline import (
    MEDLINE_QUERIES,
    generate_medline_document,
    medline_dtd,
)
from repro.workloads.xmark import (
    XMARK_QUERIES,
    generate_xmark_document,
    xmark_dtd,
)

#: Statistics fields excluded from equality checks (timing is not
#: deterministic; everything else must match exactly).
_TIMING_FIELDS = ("run_seconds", "throughput_mb_per_second")


def _stats_key(stats: RunStatistics) -> dict:
    payload = stats.as_dict()
    for fieldname in _TIMING_FIELDS:
        payload.pop(fieldname, None)
    return payload


@pytest.fixture(scope="module")
def medline_corpus(tmp_path_factory):
    """Five small MEDLINE documents on disk, deliberately size-skewed."""
    directory = tmp_path_factory.mktemp("medline-corpus")
    paths = []
    # First document much larger than the rest: with jobs=2 the small
    # documents finish while the first is still running, so the merge has
    # to hold them back -- the latency-skew ordering case.
    for index, citations in enumerate((240, 8, 10, 6, 12)):
        document = generate_medline_document(
            citations=citations, seed=50 + index
        )
        path = directory / f"doc{index}.xml"
        path.write_text(document, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def xmark_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("xmark-corpus")
    paths = []
    for index, scale in enumerate((0.02, 0.005, 0.01)):
        path = directory / f"site{index}.xml"
        path.write_text(
            generate_xmark_document(scale=scale, seed=20 + index),
            encoding="utf-8",
        )
        paths.append(str(path))
    return paths


def _medline_engine(mode="auto", jobs=None, queries=("M2", "M5")):
    dtd = medline_dtd()
    return api.Engine(
        [
            api.Query.from_spec(dtd, MEDLINE_QUERIES[name], backend="native")
            for name in queries
        ],
        mode=mode,
        **({} if jobs is None else {"jobs": jobs}),
    )


# ----------------------------------------------------------------------
# Byte-identical parallel execution
# ----------------------------------------------------------------------
class TestParallelCorpus:
    def test_medline_byte_identical_and_summed_stats(self, medline_corpus):
        sequential = _medline_engine().run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        parallel_run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        assert parallel_run.jobs == 2
        assert sequential.jobs == 1
        assert parallel_run.outputs == sequential.outputs
        for seq_result, par_result in zip(sequential, parallel_run):
            assert _stats_key(seq_result.stats) == _stats_key(par_result.stats)
        # The aggregate equals the sum of independent per-document runs.
        for query_index, result in enumerate(parallel_run):
            summed = RunStatistics()
            per_doc_outputs = []
            for path in medline_corpus:
                run = _medline_engine().run(
                    api.Source.from_file(path), binary=True
                )
                summed.merge(run.results[query_index].stats)
                per_doc_outputs.append(run.results[query_index].output)
            assert result.output == b"".join(per_doc_outputs)
            assert _stats_key(result.stats) == _stats_key(summed)

    def test_xmark_byte_identical(self, xmark_corpus):
        dtd = xmark_dtd()
        queries = [
            api.Query.from_spec(dtd, XMARK_QUERIES[name], backend="native")
            for name in ("XM2", "XM3")
        ]
        sequential = api.Engine(queries).run(
            api.Source.from_paths(xmark_corpus), binary=True
        )
        sharded = api.Engine(queries, mode="parallel", jobs=3).run(
            api.Source.from_paths(xmark_corpus), binary=True
        )
        assert sharded.outputs == sequential.outputs
        for seq_result, par_result in zip(sequential, sharded):
            assert _stats_key(seq_result.stats) == _stats_key(par_result.stats)

    def test_document_order_is_corpus_order_under_skew(self, medline_corpus):
        """The huge first document must not be overtaken by the small ones."""
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        assert [document.name for document in run.documents] == medline_corpus
        assert [document.index for document in run.documents] == list(
            range(len(medline_corpus))
        )
        # Per-document slices concatenate (in corpus order) to the aggregate.
        for query_index, result in enumerate(run):
            assert b"".join(
                document.results[query_index].output
                for document in run.documents
            ) == result.output

    def test_single_query_search_mode_corpus(self, medline_corpus):
        sequential = _medline_engine(queries=("M2",)).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        sharded = _medline_engine(
            mode="parallel", jobs=2, queries=("M2",)
        ).run(api.Source.from_paths(medline_corpus), binary=True)
        assert sharded.single.output == sequential.single.output
        assert _stats_key(sharded.single.stats) == _stats_key(
            sequential.single.stats
        )

    def test_text_mode_output(self, medline_corpus):
        binary_run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        text_run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(medline_corpus)
        )
        assert [output.encode("utf-8") for output in text_run.outputs] == \
            binary_run.outputs

    def test_sinks_receive_corpus_order(self, medline_corpus):
        collected: list[bytes] = []
        run = _medline_engine(mode="parallel", jobs=2, queries=("M2",)).run(
            api.Source.from_paths(medline_corpus),
            sinks=[api.CallbackSink(collected.append, binary=True)],
        )
        reference = _medline_engine(queries=("M2",)).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        assert b"".join(collected) == reference.single.output
        # Sink-routed queries do not accumulate output on the aggregate.
        assert run.single.output == b""


# ----------------------------------------------------------------------
# jobs=1 fallback and validation
# ----------------------------------------------------------------------
class TestParallelModeContract:
    def test_jobs1_runs_in_process(self, medline_corpus, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("jobs=1 must not start worker processes")

        monkeypatch.setattr(parallel, "WorkerPool", forbidden)
        run = _medline_engine(mode="parallel", jobs=1).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        assert run.jobs == 1
        assert len(run.documents) == len(medline_corpus)

    def test_parallel_mode_requires_corpus_source(self):
        engine = _medline_engine(mode="parallel", jobs=2)
        with pytest.raises(QueryError, match="corpus"):
            engine.run(api.Source.from_text("<x/>"))

    def test_parallel_mode_has_no_session(self):
        engine = _medline_engine(mode="parallel", jobs=2)
        with pytest.raises(QueryError, match="corpus"):
            engine.open()

    def test_jobs_requires_parallel_mode(self):
        with pytest.raises(QueryError, match="mode='parallel'"):
            _medline_engine(mode="auto", jobs=2)
        with pytest.raises(QueryError, match="jobs"):
            _medline_engine(mode="parallel", jobs=0)

    def test_corpus_rejects_measure_memory_and_live(self, medline_corpus):
        engine = _medline_engine(mode="parallel", jobs=1)
        with pytest.raises(QueryError, match="measure_memory"):
            engine.run(api.Source.from_paths(medline_corpus),
                       measure_memory=True)
        with pytest.raises(QueryError, match="live"):
            engine.run(api.Source.from_paths(medline_corpus), live=True)

    def test_corpus_source_is_not_a_chunk_stream(self, medline_corpus):
        source = api.Source.from_paths(medline_corpus)
        with pytest.raises(ReproError, match="corpus"):
            with source.open():
                pass
        with pytest.raises(ReproError, match="not a corpus"):
            api.Source.from_text("<x/>").documents()


# ----------------------------------------------------------------------
# Error propagation
# ----------------------------------------------------------------------
class TestErrorPropagation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_poisoned_document_names_the_path(self, medline_corpus, tmp_path,
                                              jobs):
        poisoned = tmp_path / "poisoned.xml"
        poisoned.write_text("<NotMedline></NotMedline>", encoding="utf-8")
        corpus = medline_corpus[:2] + [str(poisoned)] + medline_corpus[2:]
        engine = _medline_engine(mode="parallel", jobs=jobs)
        with pytest.raises(parallel.ParallelExecutionError) as excinfo:
            engine.run(api.Source.from_paths(corpus), binary=True)
        error = excinfo.value
        assert str(poisoned) in str(error)
        assert error.document == str(poisoned)
        assert isinstance(error.original, RuntimeFilterError)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_document(self, medline_corpus, jobs):
        corpus = [medline_corpus[0], "/no/such/document.xml"]
        engine = _medline_engine(mode="parallel", jobs=jobs)
        with pytest.raises(parallel.ParallelExecutionError) as excinfo:
            engine.run(api.Source.from_paths(corpus), binary=True)
        assert "/no/such/document.xml" in str(excinfo.value)
        assert isinstance(excinfo.value.original, FileNotFoundError)


# ----------------------------------------------------------------------
# Corpus sources
# ----------------------------------------------------------------------
class TestCorpusSources:
    def test_from_dir_sorted_and_deterministic(self, medline_corpus):
        directory = os.path.dirname(medline_corpus[0])
        source = api.Source.from_dir(directory, pattern="*.xml")
        names = [name for name, _payload in source.documents()]
        assert names == sorted(medline_corpus)
        with pytest.raises(QueryError, match="no documents"):
            api.Source.from_dir(directory, pattern="*.nothing")

    def test_from_paths_needs_documents(self):
        with pytest.raises(QueryError, match="at least one"):
            api.Source.from_paths([])

    def test_split_documents_across_chunk_boundaries(self):
        records = [b"<d><x>%d</x></d>" % index for index in range(7)]
        stream = b"\n".join(records)
        # Every chunk size, including ones splitting the end tag itself.
        for chunk_size in (1, 2, 3, 5, 8, 64, len(stream)):
            chunks = [
                stream[start:start + chunk_size]
                for start in range(0, len(stream), chunk_size)
            ]
            assert list(split_documents(chunks, b"</d>")) == records

    def test_split_documents_trailing_garbage_surfaces(self):
        blobs = list(split_documents([b"<d/>X</d>junk"], b"</d>"))
        assert blobs == [b"<d/>X</d>", b"junk"]

    def test_from_records_matches_per_file_corpus(self, medline_corpus):
        concatenated = b"".join(
            open(path, "rb").read() for path in medline_corpus
        )
        reference = _medline_engine().run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_records(
                concatenated, end_tag=b"</MedlineCitationSet>",
                chunk_size=32 * 1024,
            ),
            binary=True,
        )
        assert run.outputs == reference.outputs
        assert [document.name for document in run.documents] == [
            f"record[{index}]" for index in range(len(medline_corpus))
        ]


# ----------------------------------------------------------------------
# Record spans: what crosses the process boundary
# ----------------------------------------------------------------------
_MEDLINE_END = b"</MedlineCitationSet>"


@pytest.fixture
def pickled_bytes(monkeypatch):
    """Bytes this process pickles into, or unpickles out of, the worker
    queues: tasks go out through ``ForkingPickler.dumps`` (on the queue
    feeder thread), results come back through ``ForkingPickler.loads``."""
    lock = threading.Lock()
    total = [0]
    dumps = ForkingPickler.dumps.__func__
    loads = ForkingPickler.loads

    def counted(size: int) -> None:
        with lock:
            total[0] += size

    def counting_dumps(cls, obj, protocol=None):
        data = dumps(cls, obj, protocol)
        counted(len(data))
        return data

    def counting_loads(data, /, **kwargs):
        counted(len(data))
        return loads(data, **kwargs)

    monkeypatch.setattr(ForkingPickler, "dumps", classmethod(counting_dumps))
    monkeypatch.setattr(ForkingPickler, "loads", staticmethod(counting_loads))
    return total


class TestRecordSpanTransport:
    @pytest.fixture(scope="class")
    def stream(self, medline_corpus):
        return b"\n".join(open(path, "rb").read() for path in medline_corpus)

    @pytest.fixture(scope="class")
    def reference(self, stream):
        """Sequential, over blobs: a chunk-stream source is split by
        ``split_documents``, so no span is involved."""
        blobs = api.Source.from_records(
            api.Source.from_iter([stream]), end_tag=_MEDLINE_END
        )
        return _medline_engine().run(blobs, binary=True)

    @staticmethod
    def _assert_identical(outcomes, reference):
        assert [outcome.name for outcome in outcomes] == [
            document.name for document in reference.documents
        ]
        for outcome, document in zip(outcomes, reference.documents):
            assert outcome.outputs == [r.output for r in document.run.results]
            assert [_stats_key(stats) for stats in outcome.stats] == [
                _stats_key(r.stats) for r in document.run.results
            ]

    def test_parallel_run_ships_offsets_not_records(
        self, stream, reference, pickled_bytes
    ):
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_records(stream, end_tag=_MEDLINE_END), binary=True
        )
        assert run.outputs == reference.outputs
        for mine, theirs in zip(run.results, reference.results):
            assert _stats_key(mine.stats) == _stats_key(theirs.stats)
        output_bytes = sum(len(output) for output in run.outputs)
        records = len(run.documents)
        # The projections come back; what goes out is offsets, names and
        # framing -- nothing near the records themselves.
        assert output_bytes <= pickled_bytes[0] <= output_bytes + 1024 * records
        assert len(stream) > 2 * (output_bytes + 1024 * records)

    @pytest.mark.parametrize("pool_kind", ["spawn", "borrowed"])
    def test_pools_without_the_stream_get_blobs(
        self, stream, reference, pickled_bytes, pool_kind
    ):
        engine = _medline_engine()
        source = api.Source.from_records(stream, end_tag=_MEDLINE_END)
        if pool_kind == "spawn":
            # Spawned workers would need the stream pickled, so the pool
            # drops it even when offered.
            pool = parallel.WorkerPool(engine, 2, start_method="spawn",
                                       _buffer=stream)
        else:
            pool = parallel.WorkerPool(engine, 2)
        with pool:
            outcomes = list(parallel.execute_corpus(
                engine, source.documents(), jobs=2, pool=pool,
                _buffer=source._buffer,
            ))
        self._assert_identical(outcomes, reference)
        assert pickled_bytes[0] > len(stream)

    def test_in_process_run_reads_spans_in_place(self, stream, reference):
        source = api.Source.from_records(stream, end_tag=_MEDLINE_END)
        outcomes = list(parallel.execute_corpus(
            _medline_engine(), source.documents(), jobs=1,
            _buffer=source._buffer,
        ))
        self._assert_identical(outcomes, reference)

    def test_spans_without_their_stream_are_refused(self, stream):
        source = api.Source.from_records(stream, end_tag=_MEDLINE_END)
        with pytest.raises(ReproError, match="span payload"):
            list(parallel.execute_corpus(
                _medline_engine(), source.documents(), jobs=1,
            ))


# ----------------------------------------------------------------------
# The worker pool itself
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_remote_session_matches_in_process(self, medline_corpus):
        engine = _medline_engine()
        data = open(medline_corpus[1], "rb").read()
        reference = engine.run(api.Source.from_bytes(data), binary=True)
        with parallel.WorkerPool(engine, jobs=2) as pool:
            session = pool.open_session(binary=True)
            assert session.labels == engine.labels
            pieces = [[] for _ in engine.labels]
            for start in range(0, len(data), 8192):
                for index, piece in enumerate(
                    session.feed(data[start:start + 8192])
                ):
                    pieces[index].append(piece)
            for index, piece in enumerate(session.finish()):
                pieces[index].append(piece)
            outputs = [b"".join(parts) for parts in pieces]
            assert outputs == reference.outputs
            assert [
                _stats_key(stats) for stats in session.stats
            ] == [_stats_key(result.stats) for result in reference]

    def test_pool_rejects_use_after_close(self, medline_corpus):
        engine = _medline_engine()
        pool = parallel.WorkerPool(engine, jobs=1)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.submit_document("x", ("path", medline_corpus[0], 65536))

    def test_engine_spec_round_trip(self):
        import pickle

        engine = _medline_engine(mode="parallel", jobs=2)
        spec = parallel.EngineSpec.from_engine(engine)
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert rebuilt.labels == engine.labels
        assert rebuilt.mode == "auto"


# ----------------------------------------------------------------------
# Buffer-reuse ingestion
# ----------------------------------------------------------------------
class TestBufferReuse:
    @pytest.mark.parametrize("chunk_size", [1024, 65536, 1 << 20])
    def test_pooled_file_chunks_byte_identical(self, medline_corpus,
                                               chunk_size):
        path = medline_corpus[0]
        fresh = b"".join(file_chunks(path, chunk_size))
        pool = BufferPool(chunk_size, capacity=2)
        pooled = b"".join(
            bytes(chunk) for chunk in file_chunks(path, chunk_size, pool=pool)
        )
        assert pooled == fresh
        assert pool.allocated == 1  # one recycled buffer serves the stream

    @pytest.mark.parametrize("chunk_size", [4096, 65536])
    def test_pooled_run_matches_fresh_run(self, medline_corpus, chunk_size):
        engine = _medline_engine(queries=("M2",))
        path = medline_corpus[0]
        fresh = engine.run(
            api.Source.from_file(path, chunk_size=chunk_size), binary=True
        )
        pooled = engine.run(
            api.Source.from_file(path, chunk_size=chunk_size, pool=True),
            binary=True,
        )
        assert pooled.single.output == fresh.single.output
        assert _stats_key(pooled.single.stats) == _stats_key(fresh.single.stats)

    def test_shared_scan_accepts_pooled_chunks(self, medline_corpus):
        engine = _medline_engine()  # two queries -> shared scan
        path = medline_corpus[2]
        fresh = engine.run(
            api.Source.from_file(path, chunk_size=8192), binary=True
        )
        pooled = engine.run(
            api.Source.from_file(path, chunk_size=8192, pool=True),
            binary=True,
        )
        assert pooled.outputs == fresh.outputs

    def test_mutation_after_feed_is_safe(self, medline_document_small,
                                         medline_dtd_fixture):
        """The runtime owns its carry window before the buffer is reused."""
        data = medline_document_small.encode("utf-8")
        engine = api.Engine(api.Query.from_spec(
            medline_dtd_fixture, MEDLINE_QUERIES["M2"], backend="native"
        ))
        reference = engine.run(api.Source.from_bytes(data), binary=True)
        session = engine.open(binary=True)
        pieces = []
        chunk_size = 4096
        for start in range(0, len(data), chunk_size):
            buffer = bytearray(data[start:start + chunk_size])
            pieces.append(session.feed(buffer)[0])
            buffer[:] = b"\xff" * len(buffer)  # clobber the recycled buffer
        pieces.append(session.finish()[0])
        assert b"".join(pieces) == reference.single.output

    def test_socket_chunks_recv_into_pool(self):
        class FakeConnection:
            def __init__(self, data: bytes, step: int) -> None:
                self._data = data
                self._step = step
                self._offset = 0

            def recv_into(self, buffer) -> int:
                piece = self._data[self._offset:self._offset + self._step]
                self._offset += len(piece)
                buffer[: len(piece)] = piece
                return len(piece)

        from repro.core.sources import socket_chunks

        payload = bytes(range(256)) * 33
        pool = BufferPool(64, capacity=2)
        received = b"".join(
            bytes(chunk)
            for chunk in socket_chunks(
                FakeConnection(payload, 64), 64, pool=pool
            )
        )
        assert received == payload
        assert pool.allocated == 1

    def test_cursor_seal_owns_borrowed_tail(self):
        from repro.core.stream import ChunkCursor

        cursor = ChunkCursor(binary=True)
        buffer = bytearray(b"abcdefgh")
        cursor.append(buffer)
        cursor.discard_to(4)
        cursor.seal()
        buffer[:] = b"\x00" * len(buffer)
        assert cursor.slice(4, 8) == b"efgh"
        assert isinstance(cursor.slice(4, 8), bytes)

    def test_buffer_pool_recycles(self):
        pool = BufferPool(1024, capacity=2)
        first = pool.acquire()
        pool.release(first)
        second = pool.acquire()
        assert second is first
        assert pool.allocated == 1
        assert pool.reused == 1
        # Foreign-sized buffers are never pooled.
        pool.release(bytearray(10))
        assert pool.acquire() is not None
        with pytest.raises(ValueError):
            BufferPool(0)


# ----------------------------------------------------------------------
# Statistics aggregation
# ----------------------------------------------------------------------
def test_run_statistics_merge_sums_counters():
    first = RunStatistics(input_size=10, output_size=4, tokens_matched=3,
                          run_seconds=0.5, peak_memory_bytes=100)
    second = RunStatistics(input_size=5, output_size=1, tokens_matched=2,
                           run_seconds=0.25, peak_memory_bytes=300)
    first.merge(second)
    assert first.input_size == 15
    assert first.output_size == 5
    assert first.tokens_matched == 5
    assert first.run_seconds == 0.75
    assert first.peak_memory_bytes == 300  # peaks take the max, not the sum


def test_corpus_chunk_size_reaches_document_reads(medline_corpus, monkeypatch):
    """from_paths(chunk_size=...) governs how workers read each document."""
    seen: list[int] = []
    original = api.Source.from_file.__func__

    def spying_from_file(cls, path, **kwargs):
        seen.append(kwargs.get("chunk_size"))
        return original(cls, path, **kwargs)

    monkeypatch.setattr(api.Source, "from_file", classmethod(spying_from_file))
    engine = _medline_engine(mode="parallel", jobs=1, queries=("M2",))
    engine.run(
        api.Source.from_paths(medline_corpus[:2], chunk_size=12_288),
        binary=True,
    )
    assert seen == [12_288, 12_288]


def test_pool_must_match_chunk_size():
    with pytest.raises(ValueError, match="chunk size"):
        list(file_chunks(__file__, 4096, pool=BufferPool(8192)))
