"""Integration tests: the SMP runtime agrees with the token-based reference
projector and is projection-safe on the experimental workloads."""

from __future__ import annotations

import pytest

from repro import SmpPrefilter, api
from repro.projection import ReferenceProjector
from repro.workloads.medline import (
    MEDLINE_QUERIES,
    MEDLINE_QUERY_ORDER,
    generate_medline_document,
)
from repro.workloads.xmark import XMARK_QUERIES, XMARK_QUERY_ORDER
from repro.xml import parse_document
from repro.xpath import StreamingXPathEngine, evaluate_xpath, string_value


def _project_both(dtd, paths, document):
    prefilter = SmpPrefilter.compile(dtd, paths, add_default_paths=False)
    smp_output = prefilter.session().run(document).output
    reference_output = ReferenceProjector(
        paths, add_default_paths=False, alphabet=dtd.tag_names(),
    ).project_text(document).output
    return smp_output, reference_output


@pytest.mark.parametrize("query_name", XMARK_QUERY_ORDER)
def test_xmark_queries_agree_with_reference(
    query_name, xmark_dtd_fixture, xmark_document_small,
):
    spec = XMARK_QUERIES[query_name]
    smp_output, reference_output = _project_both(
        xmark_dtd_fixture, spec.parsed_paths(), xmark_document_small,
    )
    assert smp_output == reference_output


@pytest.mark.parametrize("query_name", MEDLINE_QUERY_ORDER)
def test_medline_queries_agree_with_reference(
    query_name, medline_dtd_fixture, medline_document_small,
):
    spec = MEDLINE_QUERIES[query_name]
    smp_output, reference_output = _project_both(
        medline_dtd_fixture, spec.parsed_paths(), medline_document_small,
    )
    assert smp_output == reference_output


@pytest.mark.parametrize("query_name", XMARK_QUERY_ORDER)
def test_xmark_projection_is_well_formed_and_smaller(
    query_name, xmark_dtd_fixture, xmark_document_small,
):
    spec = XMARK_QUERIES[query_name]
    prefilter = SmpPrefilter.compile(
        xmark_dtd_fixture, spec.parsed_paths(), add_default_paths=False,
    )
    run = prefilter.session().run(xmark_document_small)
    projected = parse_document(run.output)
    assert projected.root.name == "site"
    assert run.output_size < len(xmark_document_small)
    # SMP inspects only a fraction of the characters (Table I: at most 23%,
    # allow head-room for the small test document).
    assert run.stats.char_comparison_ratio < 45.0


@pytest.mark.parametrize("query_name", MEDLINE_QUERY_ORDER)
def test_medline_query_results_preserved_by_projection(
    query_name, medline_dtd_fixture, medline_document_small,
):
    """Projection-safety in action: evaluating the Table II XPath query on
    the projected document yields the same values as on the original, both
    in memory and with the streaming engine of Figure 7(b)."""
    spec = MEDLINE_QUERIES[query_name]
    prefilter = SmpPrefilter.compile(
        medline_dtd_fixture, spec.parsed_paths(), add_default_paths=False,
    )
    projected = prefilter.session().run(medline_document_small).output
    original_results = evaluate_xpath(spec.query, parse_document(medline_document_small))
    projected_results = evaluate_xpath(spec.query, parse_document(projected))
    assert [string_value(item) for item in original_results] == [
        string_value(item) for item in projected_results
    ]
    engine = StreamingXPathEngine(spec.query)
    assert _serialized(engine.evaluate(projected)) == _serialized(
        engine.evaluate(medline_document_small)
    )


def test_shared_scan_projections_preserve_query_results(medline_dtd_fixture):
    """One shared scan for M2 and M5: each query's own projection answers
    its query as the original document does."""
    # Seed 7 gives both queries answers, so the comparison is not vacuous.
    document = generate_medline_document(citations=60, seed=7)
    specs = [MEDLINE_QUERIES[name] for name in ("M2", "M5")]
    run = api.Engine(
        [api.Query.from_spec(medline_dtd_fixture, spec) for spec in specs],
        mode="shared",
    ).run(api.Source.of(document, chunk_size=4096))
    assert len(run.outputs) == len(specs)
    for spec, projected in zip(specs, run.outputs):
        engine = StreamingXPathEngine(spec.query)
        expected = _serialized(engine.evaluate(document))
        assert expected
        assert _serialized(engine.evaluate(projected)) == expected


def _serialized(items):
    return [item.serialize() if hasattr(item, "serialize") else str(item)
            for item in items]


def test_m1_projects_to_structure_only(medline_dtd_fixture, medline_document_small):
    """M1 targets an element that never occurs: the projection keeps only the
    top-level node (the paper reports a 0 MB projection)."""
    spec = MEDLINE_QUERIES["M1"]
    prefilter = SmpPrefilter.compile(
        medline_dtd_fixture, spec.parsed_paths(), add_default_paths=False,
    )
    run = prefilter.session().run(medline_document_small)
    assert run.output == "<MedlineCitationSet></MedlineCitationSet>"
    assert run.stats.projection_ratio < 0.001


def test_projection_sizes_order_matches_table1(xmark_dtd_fixture, xmark_document_small):
    """Relative projection sizes follow the paper: XM10/XM14 are the largest
    projections, XM6 (structure only) is among the smallest."""
    sizes = {}
    for name in ("XM5", "XM6", "XM10", "XM13", "XM14"):
        spec = XMARK_QUERIES[name]
        prefilter = SmpPrefilter.compile(
            xmark_dtd_fixture, spec.parsed_paths(), add_default_paths=False,
        )
        sizes[name] = prefilter.session().run(xmark_document_small).output_size
    assert sizes["XM14"] > sizes["XM13"] > sizes["XM6"]
    assert sizes["XM10"] > sizes["XM5"]


def test_native_backend_matches_instrumented_on_workload(
    xmark_dtd_fixture, xmark_document_small,
):
    spec = XMARK_QUERIES["XM19"]
    instrumented = SmpPrefilter.compile(
        xmark_dtd_fixture, spec.parsed_paths(), backend="instrumented",
        add_default_paths=False,
    ).session().run(xmark_document_small)
    native = SmpPrefilter.compile(
        xmark_dtd_fixture, spec.parsed_paths(), backend="native",
        add_default_paths=False,
    ).session().run(xmark_document_small)
    assert instrumented.output == native.output
