"""The unified dataflow API: Source → Query → Engine → Sink.

Covers the PR-4 redesign: source shapes over one engine, query hashing and
plan-cache sharing, engine/session parity with the pre-existing session
machinery, sink routing and lifecycle, and live attach/detach on a
shared-scan session.
"""

from __future__ import annotations

import gc
import io
import weakref

import pytest

from repro import api
from repro.core.multi import MultiQueryEngine
from repro.core.stream import iter_chunks
from repro.errors import QueryError, ReproError, RuntimeFilterError
from repro.workloads import load_dataset
from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
from repro.workloads.xmark import XMARK_QUERIES, xmark_dtd

#: Statistics fields that must replay exactly across execution paths
#: (matcher counters live once on the shared scan; timing is wall-clock).
STRUCTURAL_FIELDS = (
    "input_size",
    "output_size",
    "tokens_matched",
    "tokens_copied",
    "regions_copied",
    "initial_jumps",
    "initial_jump_chars",
    "local_scan_chars",
)


def assert_structurally_equal(stats, reference, *, fields=STRUCTURAL_FIELDS):
    for field in fields:
        assert getattr(stats, field) == getattr(reference, field), field


@pytest.fixture(scope="module")
def medline_document():
    return load_dataset("medline", size_bytes=120_000)


@pytest.fixture(scope="module")
def xmark_document():
    return load_dataset("xmark", size_bytes=120_000)


@pytest.fixture(scope="module")
def medline_query():
    return api.Query.from_spec(medline_dtd(), MEDLINE_QUERIES["M2"])


@pytest.fixture(scope="module")
def medline_file(tmp_path_factory, medline_document):
    path = tmp_path_factory.mktemp("api") / "medline.xml"
    path.write_text(medline_document, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def reference_output(medline_query, medline_document):
    """The projection by the (non-deprecated) session machinery."""
    return (
        medline_query.plan()
        .session(binary=True)
        .run(iter_chunks(medline_document.encode("utf-8"), 4096))
        .output
    )


# ----------------------------------------------------------------------
# Source
# ----------------------------------------------------------------------
class TestSource:
    def test_every_source_shape_yields_the_same_projection(
        self, monkeypatch, medline_query, medline_document, medline_file,
        reference_output,
    ):
        data = medline_document.encode("utf-8")
        engine = api.Engine(medline_query)

        class FakeSocket:
            def __init__(self, payload):
                self._view, self._at = memoryview(payload), 0

            def recv(self, size):
                chunk = self._view[self._at:self._at + size]
                self._at += len(chunk)
                return bytes(chunk)

        fake_stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", fake_stdin)
        sources = {
            "text": api.Source.from_text(medline_document),
            "text-chunked": api.Source.from_text(medline_document,
                                                 chunk_size=4096),
            "bytes": api.Source.from_bytes(data),
            "bytes-chunked": api.Source.from_bytes(data, chunk_size=1024),
            "file": api.Source.from_file(medline_file, chunk_size=4096),
            "mmap": api.Source.from_mmap(medline_file),
            "mmap-chunked": api.Source.from_mmap(medline_file,
                                                 chunk_size=4096),
            "iter": api.Source.from_iter(iter_chunks(data, 777)),
            "socket": api.Source.from_socket(FakeSocket(data),
                                             chunk_size=512),
            "stdin": api.Source.from_stdin(chunk_size=4096),
        }
        for kind, source in sources.items():
            run = engine.run(source, binary=True)
            assert run.single.output == reference_output, kind

    def test_repeatable_sources_reopen_and_one_shot_sources_do_not(
        self, medline_file
    ):
        source = api.Source.from_file(medline_file)
        assert b"".join(source.chunks()) == b"".join(source.chunks())
        once = api.Source.from_iter([b"<a></a>"])
        list(once.chunks())
        with pytest.raises(ReproError):
            list(once.chunks())

    def test_align_utf8_never_splits_a_code_point(self):
        payload = "café ☃ 日本語 \U0001f71a".encode("utf-8")
        source = api.Source.from_bytes(payload, chunk_size=1, align_utf8=True)
        rebuilt = []
        for chunk in source.chunks():
            chunk.decode("utf-8")  # must decode standalone
            rebuilt.append(chunk)
        assert b"".join(rebuilt) == payload

    def test_of_dispatches_on_raw_values(self, medline_document):
        assert api.Source.of(medline_document).kind == "text"
        assert api.Source.of(b"<a/>").kind == "bytes"
        assert api.Source.of([b"<a/>"]).kind == "iter"
        source = api.Source.from_bytes(b"<a/>")
        assert api.Source.of(source) is source


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
class TestQuery:
    def test_equal_queries_hash_equal_and_share_one_plan(self):
        dtd = medline_dtd()
        first = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"])
        second = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"])
        assert first == second
        assert hash(first) == hash(second)
        assert first.plan() is second.plan()  # the existing plan cache
        assert len({first: 1, second: 2}) == 1

    def test_label_and_backend_distinguish_queries(self):
        dtd = medline_dtd()
        base = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"])
        relabelled = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"],
                                         label="other")
        instrumented = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"],
                                           backend="instrumented")
        assert base != relabelled
        assert base != instrumented

    def test_xpath_query_extracts_projection_paths(self, xmark_document):
        dtd = xmark_dtd()
        spec = XMARK_QUERIES["XM1"]
        from_xpath = api.Query(spec.xpath, dtd)
        run = api.Engine(from_xpath).run(xmark_document)
        reference = api.Engine(api.Query.from_spec(dtd, spec)).run(
            xmark_document
        )
        assert run.single.output == reference.single.output

    def test_from_plan_wraps_without_recompiling(self, medline_query):
        plan = medline_query.plan()
        wrapped = api.Query.from_plan(plan, label="wrapped")
        assert wrapped.plan() is plan


# ----------------------------------------------------------------------
# Engine and Session
# ----------------------------------------------------------------------
class TestEngine:
    def test_single_query_matches_searching_session(
        self, medline_query, medline_document
    ):
        run = api.Engine(medline_query).run(
            api.Source.from_text(medline_document, chunk_size=4096)
        )
        reference = medline_query.plan().session().run(
            iter_chunks(medline_document, 4096)
        )
        assert run.single.output == reference.output
        assert_structurally_equal(run.single.stats, reference.stats)
        # The searching path also carries the matcher counters.
        assert run.single.stats.char_comparisons == \
            reference.stats.char_comparisons
        assert run.scan_stats is None

    def test_multi_query_matches_shared_scan_session(self, medline_document):
        dtd = medline_dtd()
        queries = [
            api.Query.from_spec(dtd, MEDLINE_QUERIES[name])
            for name in ("M2", "M4", "M5")
        ]
        run = api.Engine(queries).run(
            api.Source.from_text(medline_document, chunk_size=4096)
        )
        assert run.labels == ["M2", "M4", "M5"]
        assert run.scan_stats is not None
        engine = MultiQueryEngine(
            dtd, [MEDLINE_QUERIES[name] for name in ("M2", "M4", "M5")]
        )
        session = engine.session()
        pieces = [[] for _ in run.results]
        for chunk in iter_chunks(medline_document, 4096):
            for index, emitted in enumerate(session.feed(chunk)):
                pieces[index].append(emitted)
        for index, emitted in enumerate(session.finish()):
            pieces[index].append(emitted)
        for result, parts, stats in zip(run, pieces, session.stats):
            assert result.output == "".join(parts)
            assert_structurally_equal(result.stats, stats)

    def test_run_indexing_by_label_and_single_guard(self, medline_document):
        dtd = medline_dtd()
        run = api.Engine(
            [api.Query.from_spec(dtd, MEDLINE_QUERIES[name])
             for name in ("M2", "M5")]
        ).run(medline_document)
        assert run["M5"].label == "M5"
        with pytest.raises(KeyError):
            run["M9"]
        with pytest.raises(QueryError):
            run.single
        assert [result.label for result in run] == run.labels

    def test_mode_validation(self, medline_query):
        dtd = medline_dtd()
        other = api.Query.from_spec(dtd, MEDLINE_QUERIES["M4"])
        with pytest.raises(QueryError):
            api.Engine([medline_query, other], mode="search")
        with pytest.raises(QueryError):
            api.Engine([], mode="auto")
        with pytest.raises(QueryError):
            api.Engine(medline_query, mode="bogus")

    def test_shared_mode_for_single_query_matches_search_output(
        self, medline_query, medline_document, reference_output
    ):
        run = api.Engine(medline_query, mode="shared").run(
            api.Source.from_bytes(medline_document.encode("utf-8"),
                                  chunk_size=4096),
            binary=True,
        )
        assert run.single.output == reference_output
        assert run.scan_stats is not None

    def test_accepted_agrees_across_search_and_shared_paths(
        self, medline_query, medline_document
    ):
        for live in (False, True):
            session = api.Engine(medline_query).open(live=live)
            handle = session.handles[0]
            assert not handle.accepted
            session.feed(medline_document)
            session.finish()
            assert handle.accepted, f"live={live}"

    def test_measure_memory_lands_on_the_right_stats(
        self, medline_query, medline_document
    ):
        single = api.Engine(medline_query).run(
            medline_document, measure_memory=True
        )
        assert single.single.stats.peak_memory_bytes > 0
        shared = api.Engine(medline_query, mode="shared").run(
            medline_document, measure_memory=True
        )
        assert shared.scan_stats.peak_memory_bytes > 0


class TestSinks:
    def test_collect_and_callback_and_null_sinks(
        self, medline_query, medline_document, reference_output
    ):
        collect = api.CollectSink()
        fragments = []
        engine = api.Engine(medline_query)
        run = engine.run(
            api.Source.from_bytes(medline_document.encode("utf-8"),
                                  chunk_size=4096),
            sinks=[collect],
            binary=True,
        )
        assert run.single.output == b""  # routed to the sink
        assert collect.value() == reference_output
        engine.run(
            medline_document, sinks=[fragments.append], binary=True
        )
        assert b"".join(fragments) == reference_output
        null_run = engine.run(
            medline_document, sinks=[api.NullSink()], binary=True
        )
        assert null_run.single.stats.output_size == len(reference_output)

    def test_file_sink_streams_bytes_and_closes(
        self, tmp_path, medline_query, medline_document, reference_output
    ):
        target = tmp_path / "projection.xml"
        sink = api.FileSink(target)
        api.Engine(medline_query).run(medline_document, sinks=[sink])
        assert sink._stream.closed  # session.run closes its sinks
        assert target.read_bytes() == reference_output

    def test_binary_mode_inferred_from_sinks(
        self, tmp_path, medline_query, medline_document
    ):
        # FileSink prefers bytes; no explicit binary flag needed.
        target = tmp_path / "inferred.xml"
        api.Engine(medline_query).run(
            medline_document, sinks=[api.FileSink(target)]
        )
        assert target.read_bytes()

    def test_labelled_sink_mapping(self, medline_document):
        dtd = medline_dtd()
        engine = api.Engine(
            [api.Query.from_spec(dtd, MEDLINE_QUERIES[name])
             for name in ("M2", "M5")]
        )
        only_m5 = api.CollectSink()
        run = engine.run(medline_document, sinks={"M5": only_m5})
        assert run["M5"].output == ""
        assert only_m5.value() == engine.run(medline_document)["M5"].output
        assert run["M2"].output  # un-sinked query still accumulates
        with pytest.raises(QueryError):
            engine.run(medline_document, sinks={"M9": api.CollectSink()})

    def test_mismatched_sink_count_is_rejected(self, medline_query):
        engine = api.Engine(medline_query)
        with pytest.raises(QueryError):
            engine.run("<a/>", sinks=[api.NullSink(), api.NullSink()])

    def test_collect_sink_adopts_the_session_mode_when_empty(
        self, medline_document
    ):
        # A query that projects nothing must still yield the right empty
        # value from a mode-agnostic CollectSink.
        dtd = medline_dtd()
        # CollectionTitle is declared but never generated, so the
        # projection is legitimately empty.
        empty_query = api.Query.from_paths(
            dtd, ["//CollectionTitle#"], add_default_paths=False
        )
        sink = api.CollectSink()
        api.Engine(empty_query).run(
            medline_document.encode("utf-8"), sinks=[sink], binary=True
        )
        assert sink.value() == b""
        text_sink = api.CollectSink()
        api.Engine(empty_query).run(medline_document, sinks=[text_sink])
        assert text_sink.value() == ""


# ----------------------------------------------------------------------
# Live attach / detach
# ----------------------------------------------------------------------
class TestAttachDetach:
    CHUNK = 4096

    def _drive(self, session, data, pieces):
        for chunk in iter_chunks(data, self.CHUNK):
            for index, emitted in enumerate(session.feed(chunk)):
                while index >= len(pieces):
                    pieces.append([])
                if emitted:
                    pieces[index].append(emitted)

    def test_attach_before_first_byte_equals_fresh_full_run(
        self, xmark_document
    ):
        dtd = xmark_dtd()
        query_a = api.Query.from_spec(dtd, XMARK_QUERIES["XM1"])
        query_b = api.Query.from_spec(dtd, XMARK_QUERIES["XM6"])
        session = api.Engine(query_a).open(live=True, binary=True)
        handle = session.attach(query_b)
        assert handle.attached_at == 0
        pieces: list[list] = [[], []]
        data = xmark_document.encode("utf-8")
        self._drive(session, data, pieces)
        for index, emitted in enumerate(session.finish()):
            if emitted:
                pieces[index].append(emitted)
        fresh = api.Engine(query_b).run(
            api.Source.from_bytes(data, chunk_size=self.CHUNK), binary=True
        )
        assert b"".join(pieces[1]) == fresh.single.output
        assert handle.accepted

    def test_attach_mid_document_equals_fresh_session_on_remaining_bytes(
        self, xmark_document
    ):
        dtd = xmark_dtd()
        query_a = api.Query.from_spec(dtd, XMARK_QUERIES["XM1"])
        query_b = api.Query.from_spec(dtd, XMARK_QUERIES["XM6"])
        data = xmark_document.encode("utf-8")
        half = len(data) // 2

        session = api.Engine(query_a).open(live=True, binary=True)
        pieces: list[list] = [[]]
        self._drive(session, data[:half], pieces)
        handle = session.attach(query_b)
        offset = handle.attached_at
        assert half - self.CHUNK <= offset <= half
        self._drive(session, data[half:], pieces)
        finished = session.finish()
        attached_output = b"".join(pieces[1]) + finished[1]

        # The reference: a fresh shared-scan session fed only the bytes
        # from the attach offset on.
        fresh = MultiQueryEngine(dtd, [query_b.plan()]).session(binary=True)
        fresh_pieces: list[bytes] = []
        remaining = data[offset:]
        for chunk in iter_chunks(remaining, self.CHUNK):
            fresh_pieces.extend(fresh.feed(chunk))
        try:
            fresh_pieces.extend(fresh.finish())
            fresh_accepted = fresh.accepted(0)
        except RuntimeFilterError:
            # A mid-document suffix legitimately may never accept; the
            # attached query reports the same through its handle.
            fresh_accepted = False
        assert attached_output == b"".join(fresh_pieces)
        assert handle.accepted == fresh_accepted
        assert handle.stats.input_size == len(remaining)
        assert_structurally_equal(
            handle.stats,
            fresh.stats[0],
            fields=(
                "input_size",
                "tokens_matched",
                "tokens_copied",
                "regions_copied",
                "initial_jumps",
                "initial_jump_chars",
                "local_scan_chars",
            ),
        )
        # The original query is oblivious to the attach.
        original = api.Engine(query_a).run(
            api.Source.from_bytes(data, chunk_size=self.CHUNK), binary=True
        )
        assert b"".join(pieces[0]) + finished[0] == original.single.output

    def test_attach_with_new_keywords_rebuilds_the_union_scan(
        self, medline_document
    ):
        dtd = medline_dtd()
        query_a = api.Query.from_spec(dtd, MEDLINE_QUERIES["M2"])
        query_b = api.Query.from_spec(dtd, MEDLINE_QUERIES["M5"])
        engine = api.Engine(query_a)
        session = engine.open(live=True, binary=True)
        handle = session.attach(query_b)  # M5 keywords are new to the scan
        pieces: list[list] = [[], []]
        self._drive(session, medline_document.encode("utf-8"), pieces)
        for index, emitted in enumerate(session.finish()):
            if emitted:
                pieces[index].append(emitted)
        fresh = api.Engine(query_b).run(
            medline_document.encode("utf-8"), binary=True
        )
        assert b"".join(pieces[1]) == fresh.single.output
        assert handle.accepted

    def test_detach_freezes_output_and_statistics(self, medline_document):
        dtd = medline_dtd()
        queries = [
            api.Query.from_spec(dtd, MEDLINE_QUERIES["M2"]),
            api.Query.from_spec(dtd, MEDLINE_QUERIES["M5"]),
        ]
        engine = api.Engine(queries)
        data = medline_document.encode("utf-8")
        half = len(data) // 2

        session = engine.open(binary=True)
        pieces: list[list] = [[], []]
        self._drive(session, data[:half], pieces)
        handle = session.handles[1]
        pending = session.detach(handle)
        if pending:
            pieces[1].append(pending)
        # The frozen statistics are sealed complete: output_size reflects
        # everything emitted up to the detach.
        assert handle.stats.output_size == sum(len(p) for p in pieces[1])
        snapshot = vars(handle.stats).copy()
        self._drive(session, data[half:], pieces)
        finished = session.finish()
        assert finished[1] == b""
        assert vars(handle.stats) == snapshot
        assert handle.detached
        # Whatever it emitted before the detach is a prefix of the full
        # projection, and the surviving query is unaffected.
        full = engine.run(
            api.Source.from_bytes(data, chunk_size=self.CHUNK), binary=True
        )
        assert full["M5"].output.startswith(b"".join(pieces[1]))
        assert b"".join(pieces[0]) + finished[0] == full["M2"].output
        with pytest.raises(QueryError):
            session.detach(handle)  # double detach

    def test_attach_requires_a_shared_scan_session(self, medline_query):
        session = api.Engine(medline_query).open()
        with pytest.raises(QueryError):
            session.attach(medline_query)
        with pytest.raises(QueryError):
            session.detach(session.handles[0])

    def test_detach_rejects_foreign_handles(self, medline_query):
        first = api.Engine(medline_query, mode="shared").open()
        second = api.Engine(medline_query, mode="shared").open()
        with pytest.raises(QueryError):
            second.detach(first.handles[0])

    def test_attach_after_finish_is_rejected(self, medline_query):
        session = api.Engine(medline_query, mode="shared").open(binary=True)
        with pytest.raises(RuntimeFilterError):
            # Empty input is not a conforming document...
            session.finish()
        with pytest.raises(RuntimeFilterError):
            session.attach(medline_query)


class TestSessionLifetime:
    """A closed session is freed by reference counting alone."""

    @pytest.mark.parametrize("mode", ["shared", "search"])
    def test_closed_sessions_need_no_cyclic_gc(
        self, mode, medline_query, medline_document
    ):
        queries = [medline_query]
        if mode == "shared":
            queries.append(
                api.Query.from_spec(medline_query.dtd, MEDLINE_QUERIES["M5"])
            )
        engine = api.Engine(queries, mode=mode)
        data = medline_document.encode("utf-8")
        refs = []
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                session = engine.open(binary=True)
                handle = session.handles[0]
                session.feed(data)
                session.finish()
                assert handle.accepted and handle.stats.output_size > 0
                inner = session._shared if mode == "shared" else session._single
                refs += [weakref.ref(session), weakref.ref(inner)]
                del session, handle, inner
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_attached_handle_keeps_its_session_working(self, medline_query):
        session = api.Engine(medline_query, mode="shared").open(binary=True)
        late = session.attach(
            api.Query.from_spec(medline_query.dtd, MEDLINE_QUERIES["M5"]), label="late"
        )
        assert [handle.label for handle in session.handles] == ["M2", "late"]
        assert late.session is session and not late.detached
        session.detach(late)
        assert session.handles[1].detached
