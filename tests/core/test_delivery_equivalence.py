"""Byte-identity of the token-event delivery modes.

The acceptance property of the below-the-interpreter hot path: for both
delivery modes (``batched`` pure reference, ``accel`` C kernel), every
backend, and any chunking -- including adversarial chunk sizes that split
multi-byte UTF-8 sequences, keywords and tags -- the projected output and
**all** statistics equal the whole-document ``batched`` run.  The same
holds for the multi-query shared scan (pure union-pattern loop vs the
native ``step_events`` stepper), including the native kernel's bail back
to the pure loop on a transition error and its early return once its
per-query output buffers hold 64 KiB.
"""

from __future__ import annotations

import math
import random
import re

import pytest

from repro import SmpPrefilter
from repro.accel import accel_available, load_accel, reset as reset_accel
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

#: perfbench's xmark-shared16 query set: 16 XMark queries, one shared scan.
XMARK_SHARED = tuple(f"XM{n}" for n in (*range(1, 15), 17, 18))

#: ``step_events`` statuses and its output cap (``STEP_OUTPUT_CAP``), all
#: from ``_accel.c``.
STEP_BAIL = 3
STEP_OUTPUT_FULL = 4
OUTPUT_CAP = 64 * 1024


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


@pytest.fixture(scope="module")
def xmark_mib():
    """The 16 shared XMark queries over a >= 1 MiB document, and the
    whole-document ``batched`` run of that document.  One 1 MiB feed makes
    far more than the native kernel's 64 KiB of output."""
    engine = MultiQueryEngine(
        xmark_dtd(), [XMARK_QUERIES[name] for name in XMARK_SHARED],
        backend="native",
    )
    data = generate_xmark_document_of_size(1_200_000, seed=5).encode("utf-8")
    assert len(data) >= 1 << 20
    reference = TestMultiQueryDeliveries.multi_outputs(
        engine, data, [len(data)], random.Random(0), "batched"
    )
    return engine, data, reference


@pytest.fixture
def kernel_calls(monkeypatch):
    """``(status, buffered output bytes)`` of every ``step_events`` call."""
    module = load_accel()
    if module is None:
        pytest.skip("repro._accel extension not built")
    real = module.step_events
    calls = []

    def recording(*args):
        result = real(*args)
        calls.append((result[0], sum(len(output) for output in args[-1])))
        return result

    monkeypatch.setattr(module, "step_events", recording)
    return calls


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
    @staticmethod
    def multi_outputs(engine, data, sizes, rng, delivery, binary=True):
        session = engine.session(binary=binary, delivery=delivery)
        outputs = [[] for _ in engine.prefilters]
        position = 0
        while position < len(data):
            size = rng.choice(sizes)
            for index, piece in enumerate(session.feed(data[position:position + size])):
                outputs[index].append(piece)
            position += size
        for index, piece in enumerate(session.finish()):
            outputs[index].append(piece)
        empty = b"" if binary else ""
        return (
            [empty.join(chunks) for chunks in outputs],
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
        widest step tables the suite produces.  (Its ~20 KB document never
        fills the kernel's 64 KiB output buffers; the ``STEP_OUTPUT_FULL``
        resume is covered by :class:`TestNativeOutputBuffers`.)  Output and
        statistics must match the whole-document pure loop.
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


@accel_only
class TestNativeOutputBuffers:
    """The native kernel copies each decided span into its query's output
    buffer; the session hands each non-empty buffer to the query's sink
    once per kernel call.  The kernel returns ``STEP_OUTPUT_FULL`` once the
    buffers hold 64 KiB and is called again from the event it stopped on.
    Output and all statistics stay those of the ``batched`` reference.
    """

    run = staticmethod(TestMultiQueryDeliveries.multi_outputs)

    @pytest.mark.parametrize(
        "chunk, resumes", [(1 << 20, True), (4096, False)], ids=["1MiB", "4KiB"]
    )
    def test_output_full_resume_matches_whole_batched(
        self, xmark_mib, kernel_calls, chunk, resumes
    ):
        """A 1 MiB feed makes the kernel return full many times mid-window;
        4 KiB feeds never fill the buffers, because the cap counts the
        output of one call and a 4 KiB window yields far less."""
        engine, data, reference = xmark_mib
        subject = self.run(engine, data, [chunk], random.Random(0), "accel")
        assert subject[3] == "accel"
        assert subject[:3] == reference[:3]
        full = [buffered for status, buffered in kernel_calls
                if status == STEP_OUTPUT_FULL]
        assert bool(full) == resumes
        assert all(buffered >= OUTPUT_CAP for buffered in full)

    def test_bail_after_buffered_output(self, medline_corpus, kernel_calls):
        """``STEP_BAIL`` on an event after the same kernel call buffered
        output: the buffers reach the sinks before the pure loop replays the
        event, so every sink holds the bytes the pure delivery emitted
        before the identical error."""
        dtd, data = medline_corpus
        sixth = [m.start() for m in re.finditer(rb"<MedlineCitation[ >]", data)][5]
        broken = data[:sixth] + re.sub(
            rb"<MedlineCitation[ >].*?</MedlineCitation>",
            b"<MedlineCitation/>", data[sixth:], count=1, flags=re.DOTALL,
        )
        engine = MultiQueryEngine(
            dtd, list(MEDLINE_QUERIES.values()), backend="native"
        )
        seen = {}
        for delivery in ("accel", "batched"):
            pieces = [[] for _ in engine.prefilters]
            session = engine.session(
                binary=True, delivery=delivery,
                sinks=[piece.append for piece in pieces],
            )
            assert session.delivery == delivery
            with pytest.raises(RuntimeFilterError) as caught:
                session.feed(broken)
                session.finish()
            seen[delivery] = (
                [b"".join(piece) for piece in pieces],
                [stats_tuple(stats) for stats in session.stats],
                stats_tuple(session.scan_stats),
                type(caught.value),
                str(caught.value),
            )
        assert seen["accel"] == seen["batched"]
        assert "no transition from runtime state" in seen["accel"][4]
        assert all(seen["accel"][0])
        bails = [buffered for status, buffered in kernel_calls
                 if status == STEP_BAIL]
        assert len(bails) == 1 and bails[0] > 0

    def test_attach_detach_between_full_feeds(self, xmark_mib, kernel_calls):
        """Membership changes between feeds whose kernel calls fill the
        buffers; every buffer is empty again when ``feed`` returns."""
        engine, data, _ = xmark_mib
        plans = engine.prefilters
        step = 192 * 1024

        def run(delivery):
            session = MultiQueryEngine(
                engine.dtd, plans[:8], backend="native"
            ).session(binary=True, delivery=delivery)
            outputs = []
            rng = random.Random(23)
            pending = list(plans[8:])
            attached = list(range(8))
            for feed, start in enumerate(range(0, len(data), step)):
                outputs.append(session.feed(data[start:start + step]))
                if delivery == "accel":
                    assert not any(session._native.outputs)
                if feed % 2 == 0 and pending:
                    for _ in range(4):
                        attached.append(session.attach(pending.pop(0)))
                else:
                    session.detach(attached.pop(rng.randrange(len(attached))))
            outputs.append(session.finish())
            return (
                outputs,
                [stats_tuple(stats) for stats in session.stats],
                stats_tuple(session.scan_stats),
            )

        assert run("accel") == run("batched")
        assert any(status == STEP_OUTPUT_FULL for status, _ in kernel_calls)

    @pytest.mark.parametrize("chunk", [1 << 20, 4093], ids=["1MiB", "4093B"])
    def test_text_mode_multibyte_in_copied_regions(
        self, xmark_mib, kernel_calls, chunk
    ):
        """``binary=False``: 2-, 3- and 4-byte UTF-8 characters inside the
        copied text decode exactly as in the pure run, at any buffer or
        chunk boundary."""
        engine, data, _ = xmark_mib
        data = re.sub(
            rb">[^<]+<",
            lambda m: m.group().replace(b"e", "é".encode())
            .replace(b"a", "€".encode()).replace(b"o", "😀".encode()),
            data,
        )
        reference = self.run(
            engine, data, [len(data)], random.Random(0), "batched", binary=False
        )
        subject = self.run(
            engine, data, [chunk], random.Random(0), "accel", binary=False
        )
        assert subject[:3] == reference[:3]
        assert {"é", "€", "😀"} <= set("".join(subject[0]))
        assert any(status == STEP_OUTPUT_FULL for status, _ in kernel_calls) \
            == (chunk == 1 << 20)

    def test_sink_writes_per_feed_are_bounded(self, xmark_mib):
        """Per-span emission must not come back: the native session makes
        at most ``N * (2 + ceil(feed output / 64 KiB))`` sink writes per
        feed (one per query per kernel call, plus the open-region flush),
        where one write per span would be ~25k per 1 MiB feed here.  The
        ``batched`` path writes the same bytes through its sinks."""
        engine, data, reference = xmark_mib
        count = len(engine.prefilters)
        received = {}
        for delivery in ("accel", "batched"):
            pieces = [[] for _ in range(count)]
            session = engine.session(
                binary=True, delivery=delivery,
                sinks=[piece.append for piece in pieces],
            )
            for start in range(0, len(data), 1 << 20):
                writes = sum(map(len, pieces))
                size = sum(len(part) for piece in pieces for part in piece)
                session.feed(data[start:start + (1 << 20)])
                writes = sum(map(len, pieces)) - writes
                size = sum(len(part) for piece in pieces for part in piece) - size
                if delivery == "accel":
                    assert writes <= count * (2 + math.ceil(size / OUTPUT_CAP))
            session.finish()
            received[delivery] = [b"".join(piece) for piece in pieces]
        assert received["accel"] == received["batched"] == reference[0]
