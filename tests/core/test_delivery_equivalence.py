"""Byte-identity of the token-event delivery modes.

The acceptance property of the below-the-interpreter hot path: for every
delivery mode (``pertoken`` generator reference, ``batched`` flat loop,
``accel`` C kernel), every backend, and any chunking -- including
adversarial chunk sizes that split multi-byte UTF-8 sequences, keywords and
tags -- the projected output and **all** statistics are identical.  The
same holds for the multi-query shared scan (pure loop vs ``scan_events``
kernel) and for the flat-array ``collect_chunk_ids`` matcher contract
against the tuple-based ``collect_chunk`` reference.
"""

from __future__ import annotations

import random

import pytest

from repro import SmpPrefilter
from repro.accel import accel_available
from repro.core import multi
from repro.core.multi import MultiQueryEngine
from repro.core.runtime import DELIVERIES, resolve_delivery
from repro.matching.factory import available_backends, make_matcher
from repro.projection.extraction import QuerySpec
from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
from repro.workloads.medline.generator import generate_medline_document_of_size
from repro.workloads.xmark import XMARK_QUERIES, xmark_dtd
from repro.workloads.xmark.generator import generate_xmark_document_of_size

BACKENDS = tuple(available_backends())

#: Chunkings stressing different suspension behaviour: sequence-splitting
#: tiny chunks, odd mid-keyword sizes, and the large streaming sizes.
CHUNKINGS = ([1, 2, 3], [17, 63], [4096], [65536])

accel_only = pytest.mark.skipif(
    not accel_available(), reason="repro._accel extension not built"
)


def stats_tuple(stats):
    return (
        stats.input_size,
        stats.output_size,
        stats.char_comparisons,
        stats.local_scan_chars,
        stats.shifts,
        stats.shift_total,
        stats.initial_jumps,
        stats.initial_jump_chars,
        stats.tokens_matched,
        stats.tokens_copied,
        stats.regions_copied,
    )


def feed_all(session, data: bytes, sizes, rng) -> bytes:
    out = []
    position = 0
    while position < len(data):
        size = rng.choice(sizes)
        out.append(session.feed(data[position:position + size]))
        position += size
    out.append(session.finish())
    return b"".join(out)


@pytest.fixture(scope="module")
def medline_corpus():
    dtd = medline_dtd()
    # Non-ASCII text content makes chunk splits fall inside UTF-8 sequences.
    document = generate_medline_document_of_size(20_000)
    document = document.replace("the", "thé").replace("of", "øf")
    return dtd, document.encode("utf-8")


@pytest.fixture(scope="module")
def xmark_corpus():
    dtd = xmark_dtd()
    return dtd, generate_xmark_document_of_size(20_000).encode("utf-8")


class TestSingleQueryDeliveries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_matches_pertoken_all_backends(self, medline_corpus, backend):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend=backend
        )
        for sizes in CHUNKINGS:
            reference = plan.session(binary=True, delivery="pertoken")
            expected = feed_all(reference, data, sizes, random.Random(3))
            batched = plan.session(binary=True, delivery="batched")
            assert feed_all(batched, data, sizes, random.Random(3)) == expected
            assert stats_tuple(batched.stats) == stats_tuple(reference.stats)

    @accel_only
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    def test_accel_matches_pertoken(self, medline_corpus, chunking):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend="native"
        )
        reference = plan.session(binary=True, delivery="pertoken")
        expected = feed_all(reference, data, chunking, random.Random(5))
        accel = plan.session(binary=True, delivery="accel")
        assert accel.delivery == "accel"
        assert feed_all(accel, data, chunking, random.Random(5)) == expected
        assert stats_tuple(accel.stats) == stats_tuple(reference.stats)

    @accel_only
    def test_accel_across_queries_and_workloads(self, medline_corpus, xmark_corpus):
        for (dtd, data), queries in (
            (medline_corpus, MEDLINE_QUERIES),
            (xmark_corpus, XMARK_QUERIES),
        ):
            for spec in queries.values():
                plan = SmpPrefilter.compile_for_query(dtd, spec, backend="native")
                reference = plan.session(binary=True, delivery="pertoken")
                expected = feed_all(reference, data, [17, 63], random.Random(7))
                accel = plan.session(binary=True, delivery="accel")
                assert feed_all(accel, data, [17, 63], random.Random(7)) == expected
                assert stats_tuple(accel.stats) == stats_tuple(reference.stats)

    def test_non_native_backend_degrades_accel_to_batched(self, medline_corpus):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M1"], backend="instrumented"
        )
        session = plan.session(binary=True, delivery="accel")
        # The C kernel replays native-backend statistics only; other
        # backends run the pure batched loop (same output, same stats).
        assert session.delivery in ("batched", "accel")
        if accel_available():
            assert session.delivery == "batched"

    def test_resolve_delivery_contract(self):
        assert resolve_delivery("pertoken") == "pertoken"
        assert resolve_delivery("batched") == "batched"
        assert resolve_delivery(None) in ("accel", "batched")
        assert resolve_delivery("accel") in ("accel", "batched")
        with pytest.raises(ValueError):
            resolve_delivery("bogus")
        assert set(DELIVERIES) == {"batched", "accel", "pertoken"}

    def test_repro_delivery_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DELIVERY", "pertoken")
        assert resolve_delivery(None) == "pertoken"
        monkeypatch.setenv("REPRO_DELIVERY", "batched")
        assert resolve_delivery(None) == "batched"
        monkeypatch.setenv("REPRO_DELIVERY", "accel")
        assert resolve_delivery(None) in ("accel", "batched")
        # An explicit delivery argument always wins over the environment.
        monkeypatch.setenv("REPRO_DELIVERY", "pertoken")
        assert resolve_delivery("batched") == "batched"
        # The empty string means "unset", matching REPRO_PURE's convention.
        monkeypatch.setenv("REPRO_DELIVERY", "")
        assert resolve_delivery(None) in ("accel", "batched")
        monkeypatch.setenv("REPRO_DELIVERY", "bogus")
        with pytest.raises(ValueError, match="REPRO_DELIVERY"):
            resolve_delivery(None)

    def test_repro_delivery_reaches_sessions(self, medline_corpus, monkeypatch):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend="native"
        )
        monkeypatch.setenv("REPRO_DELIVERY", "pertoken")
        assert plan.session(binary=True).delivery == "pertoken"
        engine = MultiQueryEngine(dtd, [MEDLINE_QUERIES["M2"]], backend="native")
        assert engine.session(binary=True).delivery == "pertoken"


class TestMultiQueryDeliveries:
    def multi_outputs(self, engine, data, sizes, rng, delivery):
        session = engine.session(binary=True, delivery=delivery)
        outputs = [[] for _ in engine.prefilters]
        position = 0
        while position < len(data):
            size = rng.choice(sizes)
            for index, piece in enumerate(session.feed(data[position:position + size])):
                outputs[index].append(piece)
            position += size
        for index, piece in enumerate(session.finish()):
            outputs[index].append(piece)
        return (
            [b"".join(chunks) for chunks in outputs],
            [stats_tuple(stats) for stats in session.stats],
            stats_tuple(session.scan_stats),
            session.delivery,
        )

    @accel_only
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    def test_accel_union_scan_matches_pure(self, medline_corpus, chunking):
        dtd, data = medline_corpus
        engine = MultiQueryEngine(
            dtd, list(MEDLINE_QUERIES.values()), backend="native"
        )
        reference = self.multi_outputs(
            engine, data, chunking, random.Random(9), "batched"
        )
        accelerated = self.multi_outputs(
            engine, data, chunking, random.Random(9), "accel"
        )
        assert accelerated[3] == "accel" and reference[3] == "batched"
        assert accelerated[:3] == reference[:3]

    @accel_only
    @pytest.mark.parametrize("delivery", ("batched", "accel"))
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    def test_multi_deliveries_match_pertoken(self, medline_corpus, chunking, delivery):
        """Every shared-scan tier reproduces the per-token reference exactly:
        outputs, all eleven per-stream statistics, and the union scan stats."""
        dtd, data = medline_corpus
        engine = MultiQueryEngine(
            dtd, list(MEDLINE_QUERIES.values()), backend="native"
        )
        reference = self.multi_outputs(
            engine, data, chunking, random.Random(11), "pertoken"
        )
        subject = self.multi_outputs(
            engine, data, chunking, random.Random(11), delivery
        )
        assert reference[3] == "pertoken" and subject[3] == delivery
        assert subject[:3] == reference[:3]

    @accel_only
    def test_accel_union_scan_with_attach_detach(self, medline_corpus):
        dtd, data = medline_corpus
        specs = list(MEDLINE_QUERIES.values())
        third = len(data) // 3

        def run(delivery):
            engine = MultiQueryEngine(dtd, specs[:2], backend="native")
            session = engine.session(binary=True, delivery=delivery)
            session.feed(data[:third])
            # Attaching mid-document extends the union vocabulary, which
            # rebuilds the dispatcher (and recompiles the C keyword set).
            session.attach(
                SmpPrefilter.compile_for_query(dtd, specs[2], backend="native")
            )
            session.feed(data[third:2 * third])
            session.detach(0)
            session.feed(data[2 * third:])
            outputs = session.finish()
            return (
                outputs,
                [stats_tuple(stats) for stats in session.stats],
                stats_tuple(session.scan_stats),
            )

        assert run("accel") == run("batched") == run("pertoken")

    @accel_only
    def test_generated_64_query_stress(self, medline_corpus):
        """64 generated queries through one native step program.

        Every declared MEDLINE element yields two descendant-path variants;
        the first 64 that compile run as one shared session, stressing the
        widest step tables and span batches the suite produces (the span
        buffer can overflow mid-token-event, exercising the SPANS_FULL
        resume).  Output and statistics must match the per-token loop.
        """
        dtd, data = medline_corpus
        specs = []
        for element in sorted(dtd.elements):
            for variant, path in (
                ("a", f"/MedlineCitationSet//{element}"),
                ("b", f"//{element}"),
            ):
                spec = QuerySpec(
                    name=f"G-{variant}-{element}",
                    query=path,
                    projection_paths=(path + "#", "/*"),
                )
                try:
                    SmpPrefilter.compile_for_query(dtd, spec, backend="native")
                except Exception:
                    continue  # unprojectable declarations are not the point
                specs.append(spec)
                if len(specs) == 64:
                    break
            if len(specs) == 64:
                break
        assert len(specs) == 64, "the MEDLINE DTD no longer yields 64 queries"
        engine = MultiQueryEngine(dtd, specs, backend="native")
        for chunking in ([17, 63], [65536]):
            reference = self.multi_outputs(
                engine, data, chunking, random.Random(13), "pertoken"
            )
            for delivery in ("batched", "accel"):
                subject = self.multi_outputs(
                    engine, data, chunking, random.Random(13), delivery
                )
                assert subject[3] == delivery
                assert subject[:3] == reference[:3], (delivery, chunking)

    @accel_only
    def test_step_programs_compiled_once_per_dispatcher(
        self, medline_corpus, monkeypatch
    ):
        dtd, data = medline_corpus
        compiled = []
        real = multi.compile_step_tables

        def counting(tables, keywords, accel_mod):
            compiled.append(tables)
            return real(tables, keywords, accel_mod)

        monkeypatch.setattr(multi, "compile_step_tables", counting)
        specs = [MEDLINE_QUERIES[name] for name in ("M2", "M3", "M5")]
        engine = MultiQueryEngine(dtd, specs, backend="native")
        sessions = []
        for _ in range(4):
            session = engine.session(binary=True, delivery="accel")
            outputs = session.feed(data)
            outputs = [a + b for a, b in zip(outputs, session.finish())]
            stats = [stats_tuple(record) for record in session.stats]
            sessions.append((session, outputs, stats))
        assert len(compiled) == len(specs)
        first, others = sessions[0], sessions[1:]
        for session, outputs, stats in others:
            assert (outputs, stats) == first[1:]
            for program, shared in zip(
                session._native.programs, first[0]._native.programs
            ):
                assert program is shared
            # Per-session runtime state stays per session.
            assert session._native.state is not first[0]._native.state
        assert len(engine.dispatcher.step_programs) == len(specs)

    @accel_only
    def test_native_attach_detach_mid_span_batch(self, medline_corpus):
        """Attach/detach at awkward offsets while the native stepper runs.

        Unlike the three-phase test above, membership here changes at
        *every* feed boundary with tiny chunks, so export/import of the
        per-stream state blocks happens while jumps are pending and copy
        regions are open.
        """
        dtd, data = medline_corpus
        specs = list(MEDLINE_QUERIES.values())

        def run(delivery):
            engine = MultiQueryEngine(dtd, specs[:1], backend="native")
            session = engine.session(binary=True, delivery=delivery)
            rng = random.Random(17)
            attached = [0]
            position = 0
            step = max(1, len(data) // 23)
            while position < len(data):
                session.feed(data[position:position + step])
                position += step
                roll = rng.random()
                if roll < 0.3 and len(attached) < len(specs):
                    index = session.attach(SmpPrefilter.compile_for_query(
                        dtd, specs[len(attached)], backend="native"
                    ))
                    attached.append(index)
                elif roll < 0.4 and len(attached) > 1:
                    session.detach(attached.pop(rng.randrange(len(attached))))
            outputs = session.finish()
            return (
                outputs,
                [stats_tuple(stats) for stats in session.stats],
                stats_tuple(session.scan_stats),
            )

        assert run("accel") == run("batched") == run("pertoken")


class TestCollectChunkIds:
    KEYWORD_SETS = (
        ("<MedlineCitation",),
        ("<Abstract", "<AbstractText", "</Abstract"),
        ("<a", "<ab", "<abc", "</a"),
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("keywords", KEYWORD_SETS, ids=lambda kws: str(len(kws)))
    def test_ids_stream_matches_tuple_stream(self, backend, keywords):
        byte_keywords = tuple(keyword.encode() for keyword in keywords)
        text = (
            b'<ab x="1"><abc><a></a><Abstract><AbstractText a="v>w"/>'
            b"</Abstract><MedlineCitation>t</MedlineCitation>" * 40
        )
        for chunk in (256, 4096):
            reference = make_matcher(byte_keywords, backend=backend)
            subject = make_matcher(byte_keywords, backend=backend)
            position = 0
            out = None
            while position < len(text):
                end = min(len(text), position + chunk)
                at_eof = end == len(text)
                window = text[:end]
                hits, resume = reference.collect_chunk(
                    window, 0, position, end, at_eof=at_eof
                )
                events, count, id_resume = subject.collect_chunk_ids(
                    window, 0, position, end, at_eof=at_eof, out=out
                )
                out = events  # exercise the reuse contract
                assert id_resume == resume
                decoded = [
                    (events[2 * i], byte_keywords[events[2 * i + 1]])
                    for i in range(count)
                ]
                assert decoded == hits
                position = resume
            assert (
                subject.stats.snapshot() if hasattr(subject.stats, "snapshot")
                else vars(subject.stats)
            ) == (
                reference.stats.snapshot() if hasattr(reference.stats, "snapshot")
                else vars(reference.stats)
            )
