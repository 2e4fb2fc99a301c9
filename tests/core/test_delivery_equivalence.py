"""Byte-identity of the token-event delivery modes.

The acceptance property of the below-the-interpreter hot path: for both
delivery modes (``batched`` pure reference, ``accel`` C kernel), every
backend, and any chunking -- including adversarial chunk sizes that split
multi-byte UTF-8 sequences, keywords and tags -- the projected output and
**all** statistics equal the whole-document ``batched`` run.  The same
holds for the multi-query shared scan (pure union-pattern loop vs the
native ``step_events`` stepper), including the native kernel's bail back
to the pure loop on a transition error.
"""

from __future__ import annotations

import random
import re

import pytest

from repro import SmpPrefilter
from repro.accel import accel_available, reset as reset_accel
from repro.core import multi
from repro.core.multi import MultiQueryEngine, MultiQuerySession
from repro.core.runtime import (
    DELIVERIES,
    reset_accel_degrade_warning,
    resolve_delivery,
)
from repro.errors import RuntimeFilterError
from repro.matching.factory import available_backends
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
    def test_chunked_batched_matches_whole_all_backends(
        self, medline_corpus, backend
    ):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend=backend
        )
        reference = plan.session(binary=True, delivery="batched")
        expected = reference.feed(data) + reference.finish()
        for sizes in CHUNKINGS:
            batched = plan.session(binary=True, delivery="batched")
            assert feed_all(batched, data, sizes, random.Random(3)) == expected
            assert stats_tuple(batched.stats) == stats_tuple(reference.stats)

    @accel_only
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    def test_accel_matches_batched(self, medline_corpus, chunking):
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend="native"
        )
        reference = plan.session(binary=True, delivery="batched")
        expected = reference.feed(data) + reference.finish()
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
                reference = plan.session(binary=True, delivery="batched")
                expected = reference.feed(data) + reference.finish()
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
        assert resolve_delivery("batched") == "batched"
        assert resolve_delivery(None) in ("accel", "batched")
        assert resolve_delivery("accel") in ("accel", "batched")
        with pytest.raises(ValueError):
            resolve_delivery("bogus")
        assert DELIVERIES == ("batched", "accel")

    def test_repro_pure_reaches_sessions(self, medline_corpus, monkeypatch):
        """``REPRO_PURE=1`` is the one environment switch: every session,
        single-query or shared, even one asking for ``accel``, runs the
        pure reference."""
        dtd, data = medline_corpus
        plan = SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend="native"
        )
        engine = MultiQueryEngine(dtd, [MEDLINE_QUERIES["M2"]], backend="native")
        reference = plan.session(binary=True, delivery="batched")
        expected = reference.feed(data) + reference.finish()
        monkeypatch.setenv("REPRO_PURE", "1")
        reset_accel()
        reset_accel_degrade_warning()
        try:
            assert resolve_delivery(None) == "batched"
            assert plan.session(binary=True).delivery == "batched"
            assert engine.session(binary=True).delivery == "batched"
            with pytest.warns(RuntimeWarning, match="not importable"):
                forced = plan.session(binary=True, delivery="accel")
            assert forced.delivery == "batched"
            assert forced.feed(data) + forced.finish() == expected
            assert forced.stats.accel_degraded
        finally:
            # The probe is lazy: it re-reads the restored environment.
            reset_accel()


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

    @pytest.mark.parametrize(
        "delivery", ("batched", pytest.param("accel", marks=accel_only))
    )
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    def test_multi_deliveries_match_whole_batched(
        self, medline_corpus, chunking, delivery
    ):
        """Both shared-scan tiers reproduce the whole-document pure run
        exactly: outputs, all eleven per-stream statistics, and the union
        scan stats."""
        dtd, data = medline_corpus
        engine = MultiQueryEngine(
            dtd, list(MEDLINE_QUERIES.values()), backend="native"
        )
        reference = self.multi_outputs(
            engine, data, [len(data)], random.Random(11), "batched"
        )
        subject = self.multi_outputs(
            engine, data, chunking, random.Random(11), delivery
        )
        assert reference[3] == "batched" and subject[3] == delivery
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

        assert run("accel") == run("batched")

    @accel_only
    def test_generated_64_query_stress(self, medline_corpus):
        """64 generated queries through one native step program.

        Every declared MEDLINE element yields two descendant-path variants;
        the first 64 that compile run as one shared session, stressing the
        widest step tables and span batches the suite produces (the span
        buffer can overflow mid-token-event, exercising the SPANS_FULL
        resume).  Output and statistics must match the whole-document pure
        loop.
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
        reference = self.multi_outputs(
            engine, data, [len(data)], random.Random(13), "batched"
        )
        for chunking in ([17, 63], [65536]):
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

        assert run("accel") == run("batched")

    @accel_only
    def test_native_bail_replays_in_pure_loop(self, medline_corpus, monkeypatch):
        """A transition the native step tables cannot take (``STEP_BAIL``).

        An empty first citation makes a bachelor ``<MedlineCitation/>``
        whose closing transition the DTD forbids.  The native kernel stops
        before mutating any stream and hands the event to the pure loop,
        which must raise exactly the error the pure delivery raises.
        """
        dtd, data = medline_corpus
        broken = re.sub(
            rb"<MedlineCitation[ >].*?</MedlineCitation>",
            b"<MedlineCitation/>", data, count=1, flags=re.DOTALL,
        )
        assert broken != data
        engine = MultiQueryEngine(
            dtd, list(MEDLINE_QUERIES.values()), backend="native"
        )
        pure_calls = []
        real_pure = MultiQuerySession._process_pure

        def counting_pure(session):
            pure_calls.append(session.delivery)
            return real_pure(session)

        monkeypatch.setattr(MultiQuerySession, "_process_pure", counting_pure)
        errors = {}
        for delivery in ("accel", "batched"):
            session = engine.session(binary=True, delivery=delivery)
            assert session.delivery == delivery
            with pytest.raises(RuntimeFilterError) as caught:
                session.feed(broken)
                session.finish()
            errors[delivery] = (type(caught.value), str(caught.value))
        assert errors["accel"] == errors["batched"]
        assert "no transition from runtime state" in errors["accel"][1]
        assert "</MedlineCitation> (input offset 20)" in errors["accel"][1]
        # The native session entered the pure loop exactly once: the bail.
        assert pure_calls.count("accel") == 1
