"""Equivalence and behaviour of the shared-scan multi-query engine.

The defining property of :class:`repro.core.multi.MultiQueryEngine` is that
sharing one document pass across N compiled queries changes the *cost*, not
the *result*: for every query, the projected output and the structural run
statistics must be byte-identical to running an independent
:class:`repro.core.prefilter.FilterSession`, across chunked and
whole-document input.
"""

from __future__ import annotations

import itertools

import pytest

from repro import MultiQueryEngine, SmpPrefilter
from repro.core.stream import iter_chunks
from repro.errors import QueryError, RuntimeFilterError
from repro.workloads import load_dataset
from repro.workloads.medline import MEDLINE_QUERIES, MEDLINE_QUERY_ORDER, medline_dtd
from repro.workloads.xmark import XMARK_QUERIES, xmark_dtd

#: The statistics fields the engine replays exactly.  Matcher-level counters
#: (char_comparisons, shifts) accrue once on the shared scan instead of once
#: per query -- that is the saved work -- and timing fields are wall-clock.
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

DOCUMENT_BYTES = 150_000
CHUNKINGS = (4096, 10 ** 9)  # chunked and effectively whole-document

XMARK_ORDER = sorted(XMARK_QUERIES)
XMARK_PAIRS = list(zip(XMARK_ORDER, XMARK_ORDER[1:]))
XMARK_TRIPLES = [tuple(XMARK_ORDER[i:i + 3]) for i in range(0, len(XMARK_ORDER) - 2, 3)]

MEDLINE_PAIRS = list(itertools.combinations(MEDLINE_QUERY_ORDER, 2))
MEDLINE_TRIPLES = list(itertools.combinations(MEDLINE_QUERY_ORDER, 3))


@pytest.fixture(scope="module")
def medline_document():
    return load_dataset("medline", size_bytes=DOCUMENT_BYTES)


@pytest.fixture(scope="module")
def xmark_document():
    return load_dataset("xmark", size_bytes=DOCUMENT_BYTES)


def assert_equivalent(dtd, specs, document, chunk_size):
    engine = MultiQueryEngine(dtd, specs, backend="native")
    run = engine.session().run(iter_chunks(document, chunk_size))
    for spec, output, stats in zip(specs, run.outputs, run.stats):
        plan = SmpPrefilter.cached_for_query(dtd, spec, backend="native")
        reference = plan.session().run(iter_chunks(document, chunk_size))
        assert output == reference.output, spec.name
        for field in STRUCTURAL_FIELDS:
            assert getattr(stats, field) == getattr(reference.stats, field), (
                spec.name, field
            )


class TestMedlineEquivalence:
    @pytest.mark.parametrize("names", MEDLINE_PAIRS + MEDLINE_TRIPLES,
                             ids="-".join)
    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_pairs_and_triples(self, names, chunk_size, medline_document):
        specs = [MEDLINE_QUERIES[name] for name in names]
        assert_equivalent(medline_dtd(), specs, medline_document, chunk_size)

    def test_all_five_queries_at_once(self, medline_document):
        specs = [MEDLINE_QUERIES[name] for name in MEDLINE_QUERY_ORDER]
        assert_equivalent(medline_dtd(), specs, medline_document, 64 * 1024)


class TestXmarkEquivalence:
    @pytest.mark.parametrize("names", XMARK_PAIRS, ids="-".join)
    def test_pairs(self, names, xmark_document):
        specs = [XMARK_QUERIES[name] for name in names]
        assert_equivalent(xmark_dtd(), specs, xmark_document, 4096)

    @pytest.mark.parametrize("names", XMARK_TRIPLES, ids="-".join)
    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_triples(self, names, chunk_size, xmark_document):
        specs = [XMARK_QUERIES[name] for name in names]
        assert_equivalent(xmark_dtd(), specs, xmark_document, chunk_size)


class TestEngineBehaviour:
    def test_duplicate_queries_share_one_plan_and_agree(self, medline_document):
        spec = MEDLINE_QUERIES["M2"]
        engine = MultiQueryEngine(medline_dtd(), [spec, spec], backend="native")
        assert engine.prefilters[0] is engine.prefilters[1]
        run = engine.session().run(medline_document)
        assert run.outputs[0] == run.outputs[1]

    def test_plan_cache_shared_across_engines(self):
        dtd = medline_dtd()
        first = MultiQueryEngine(dtd, [MEDLINE_QUERIES["M2"]], backend="native")
        second = MultiQueryEngine(dtd, [MEDLINE_QUERIES["M2"]], backend="native")
        assert first.prefilters[0] is second.prefilters[0]

    def test_sinks_receive_the_same_output(self, medline_document):
        specs = [MEDLINE_QUERIES[name] for name in ("M2", "M5")]
        engine = MultiQueryEngine(medline_dtd(), specs, backend="native")
        collected = [[], []]
        run = engine.session(sinks=[collected[0].append, collected[1].append]).run(iter_chunks(medline_document, 4096))
        buffered = engine.session().run(iter_chunks(medline_document, 4096))
        assert run.outputs == ["", ""]  # routed to the sinks instead
        assert ["".join(fragments) for fragments in collected] == buffered.outputs

    def test_memory_stays_bounded(self, medline_document):
        specs = [MEDLINE_QUERIES[name] for name in MEDLINE_QUERY_ORDER]
        engine = MultiQueryEngine(medline_dtd(), specs, backend="native")
        session = engine.session(sinks=[lambda _: None] * len(specs))
        chunk_size = 4096
        high_water = 0
        for chunk in iter_chunks(medline_document, chunk_size):
            session.feed(chunk)
            high_water = max(high_water, session.buffered_bytes)
        session.finish()
        # The retained window is the carry-over (suspended scan tail plus
        # un-flushed copy regions), never the document.
        assert high_water < 16 * chunk_size

    def test_per_query_matcher_counters_live_on_the_scan(self, medline_document):
        specs = [MEDLINE_QUERIES[name] for name in ("M2", "M4")]
        engine = MultiQueryEngine(medline_dtd(), specs, backend="native")
        run = engine.session().run(medline_document)
        assert run.scan_stats.char_comparisons > 0
        for stats in run.stats:
            assert stats.char_comparisons == 0

    def test_accepts_xpath_strings_and_prebuilt_plans(self, medline_document):
        dtd = medline_dtd()
        spec = MEDLINE_QUERIES["M2"]
        plan = SmpPrefilter.cached_for_query(dtd, spec, backend="native")
        engine = MultiQueryEngine(
            dtd, ["/MedlineCitationSet/MedlineCitation", plan], backend="native"
        )
        run = engine.session().run(medline_document)
        assert len(run.outputs) == 2
        reference = plan.session().run(iter_chunks(medline_document, 64 * 1024))
        assert run.outputs[1] == reference.output

    def test_rejects_empty_query_list(self):
        with pytest.raises(QueryError):
            MultiQueryEngine(medline_dtd(), [])

    def test_rejects_wrong_sink_count(self):
        engine = MultiQueryEngine(
            medline_dtd(), [MEDLINE_QUERIES["M2"]], backend="native"
        )
        with pytest.raises(QueryError):
            engine.session(sinks=[])

    def test_nonconforming_document_raises(self):
        engine = MultiQueryEngine(
            medline_dtd(), [MEDLINE_QUERIES["M2"]], backend="native"
        )
        session = engine.session()
        session.feed("<MedlineCitationSet><bogus>")
        with pytest.raises(RuntimeFilterError):
            session.finish()
