"""The Figure 7(b) pairing: SMP projection in front of the streaming engine.

The streaming XPath engine gives the same answers on a query's SMP
projection as on the original document, whatever the chunking of the
input the projection was made from, and it sees fewer SAX events on the
projection.  SAX events are also the same for text decoded from byte
chunks split inside multi-byte characters.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.sources import decode_chunks, iter_byte_chunks
from repro.workloads.medline import MEDLINE_QUERIES, generate_medline_document
from repro.xml.sax import EventCollector, parse_with_handler
from repro.xpath import StreamingXPathEngine

UNICODE_DOCUMENT = (
    "<site><item id='ü1'><name>Zürich ☃</name><note>\U0001d11e ok</note>"
    "<empty/></item><item id='2'><name>café</name></item></site>"
)


def serialized(items):
    return sorted(
        item.serialize() if hasattr(item, "serialize") else str(item)
        for item in items
    )


@pytest.fixture(scope="module")
def medline_document_tiny():
    # Seed 7 gives M2, M4 and M5 answers; M1 and M3 are selective enough
    # to have none in a document this small.
    return generate_medline_document(citations=40, seed=7)


class TestDecodedByteChunks:
    @pytest.mark.parametrize("chunk_size", [1, 3, 50])
    def test_event_stream_equivalence(self, chunk_size):
        reference = EventCollector()
        parse_with_handler(UNICODE_DOCUMENT, reference)
        decoded = "".join(decode_chunks(
            iter_byte_chunks(UNICODE_DOCUMENT.encode("utf-8"), chunk_size)
        ))
        streamed = EventCollector()
        parse_with_handler(decoded, streamed)
        assert streamed.events == reference.events


class TestProjectedEvaluation:
    @pytest.mark.parametrize("chunk_size", [7, 333, 65_536])
    @pytest.mark.parametrize("query_name", ["M1", "M2", "M3", "M4", "M5"])
    def test_projection_preserves_answers(
        self, medline_dtd_fixture, medline_document_tiny, query_name,
        chunk_size,
    ):
        document = medline_document_tiny
        spec = MEDLINE_QUERIES[query_name]
        run = api.Engine(api.Query.from_spec(medline_dtd_fixture, spec)).run(
            api.Source.of(document, chunk_size=chunk_size)
        )
        projected = run.single.output
        assert run.single.output_size < len(document)
        engine = StreamingXPathEngine(spec.query)
        expected = serialized(engine.evaluate(document))
        original_events = engine.last_stats.events
        assert serialized(engine.evaluate(projected)) == expected
        # The engine only saw the projection, not the raw document.
        assert 0 < engine.last_stats.events < original_events

    def test_paths_extracted_from_query(
        self, medline_dtd_fixture, medline_document_tiny,
    ):
        query = MEDLINE_QUERIES["M4"].query
        run = api.Engine(api.Query(query, medline_dtd_fixture)).run(
            medline_document_tiny
        )
        engine = StreamingXPathEngine(query)
        expected = serialized(engine.evaluate(medline_document_tiny))
        assert expected
        assert serialized(engine.evaluate(run.single.output)) == expected

    def test_file_source_matches_in_memory(self, tmp_path, medline_dtd_fixture):
        document = generate_medline_document(citations=8, seed=21)
        path = tmp_path / "medline.xml"
        path.write_text(document, encoding="utf-8")
        engine = api.Engine(
            api.Query.from_spec(medline_dtd_fixture, MEDLINE_QUERIES["M2"])
        )
        from_file = engine.run(api.Source.from_file(str(path), chunk_size=512))
        in_memory = engine.run(document)
        output = from_file.single.output
        if isinstance(output, bytes):
            output = output.decode("utf-8")
        streaming = StreamingXPathEngine(MEDLINE_QUERIES["M2"].query)
        assert serialized(streaming.evaluate(output)) == serialized(
            streaming.evaluate(in_memory.single.output)
        )
