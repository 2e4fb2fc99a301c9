"""The byte-oriented input subsystem and its incremental UTF-8 handling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sources import (
    Utf8ChunkAligner,
    Utf8SlidingDecoder,
    align_utf8_chunks,
    decode_chunks,
    file_chunks,
    iter_byte_chunks,
    mmap_chunks,
    open_mmap,
    socket_chunks,
    utf8_boundary,
)
from repro.core.stream import ChunkCursor

#: Code points with 1-, 2-, 3- and 4-byte UTF-8 encodings, plus the BOM.
SAMPLE_TEXT = "a é ☃ \U0001d11e ﻿ z 日本語 €"


class TestUtf8Boundary:
    def test_empty_and_ascii(self):
        assert utf8_boundary(b"") == 0
        assert utf8_boundary(b"hello") == 5

    @pytest.mark.parametrize("text,tail", [
        ("é", 1),       # 2-byte sequence, cut after lead
        ("☃", 1),       # 3-byte sequence, cut after lead
        ("☃", 2),       # 3-byte sequence, cut mid-continuation
        ("\U0001d11e", 1),
        ("\U0001d11e", 2),
        ("\U0001d11e", 3),
        ("\ufeff", 1),  # the BOM is an ordinary 3-byte sequence
        ("\ufeff", 2),
    ])
    def test_partial_tail_is_excluded(self, text, tail):
        data = b"x" + text.encode("utf-8")
        truncated = data[:len(data) - tail]
        cut = utf8_boundary(truncated)
        assert cut == 1  # only the ASCII prefix is complete
        truncated[:cut].decode("utf-8")  # must decode cleanly

    def test_complete_sequences_pass_whole(self):
        data = SAMPLE_TEXT.encode("utf-8")
        assert utf8_boundary(data) == len(data)

    def test_every_prefix_decodes(self):
        data = SAMPLE_TEXT.encode("utf-8")
        for stop in range(len(data) + 1):
            prefix = data[:stop]
            prefix[:utf8_boundary(prefix)].decode("utf-8")


class TestUtf8ChunkAligner:
    def test_never_splits_a_character(self):
        data = SAMPLE_TEXT.encode("utf-8")
        rng = random.Random(7)
        for _ in range(50):
            aligner = Utf8ChunkAligner()
            out = []
            position = 0
            while position < len(data):
                size = rng.randint(1, 5)
                out.append(aligner.push(data[position:position + size]))
                position += size
            assert aligner.finish() == b""
            for piece in out:
                piece.decode("utf-8")  # each aligned piece is decodable
            assert b"".join(out) == data

    def test_finish_returns_dangling_tail(self):
        aligner = Utf8ChunkAligner()
        assert aligner.push("é".encode("utf-8")[:1]) == b""
        assert aligner.finish() == "é".encode("utf-8")[:1]

    def test_align_utf8_chunks_generator(self):
        data = SAMPLE_TEXT.encode("utf-8")
        pieces = list(align_utf8_chunks(data[i:i + 1] for i in range(len(data))))
        assert b"".join(pieces) == data
        for piece in pieces:
            piece.decode("utf-8")


class TestUtf8SlidingDecoder:
    def test_decodes_split_fragments(self):
        data = SAMPLE_TEXT.encode("utf-8")
        decoder = Utf8SlidingDecoder()
        text = "".join(decoder.decode(data[i:i + 1]) for i in range(len(data)))
        text += decoder.finish()
        assert text == SAMPLE_TEXT

    def test_finish_raises_on_dangling_sequence(self):
        decoder = Utf8SlidingDecoder()
        decoder.decode("é".encode("utf-8")[:1])
        with pytest.raises(UnicodeDecodeError):
            decoder.finish()

    def test_decode_chunks_round_trip(self):
        data = SAMPLE_TEXT.encode("utf-8")
        assert "".join(decode_chunks(iter_byte_chunks(data, 2))) == SAMPLE_TEXT


class _FakeSocket:
    def __init__(self, payload: bytes, piece: int) -> None:
        self._payload = payload
        self._piece = piece
        self._sent = 0

    def recv(self, size: int) -> bytes:
        take = min(self._piece, size, len(self._payload) - self._sent)
        chunk = self._payload[self._sent:self._sent + take]
        self._sent += take
        return chunk


class TestByteSources:
    def test_file_chunks(self, tmp_path):
        payload = b"0123456789" * 100
        path = tmp_path / "payload.bin"
        path.write_bytes(payload)
        chunks = list(file_chunks(str(path), 64))
        assert b"".join(chunks) == payload
        assert all(len(chunk) <= 64 for chunk in chunks)

    def test_mmap_chunks_sliced(self, tmp_path):
        payload = b"abcdef" * 50
        path = tmp_path / "payload.bin"
        path.write_bytes(payload)
        assert b"".join(mmap_chunks(str(path), 32)) == payload

    def test_mmap_whole_map_drives_a_cursor(self, tmp_path):
        payload = b"<root>" + b"x" * 500 + b"</root>"
        path = tmp_path / "doc.xml"
        path.write_bytes(payload)
        with open_mmap(str(path)) as mapping:
            cursor = ChunkCursor(binary=True)
            cursor.append(mapping)
            cursor.close()
            assert cursor.find(b"</root>", 0) == len(payload) - 7
            assert cursor.slice(0, 6) == b"<root>"
            assert cursor.char(0) == ord("<")
            text, base = cursor.view()
            assert base == 0 and len(text) == len(payload)
            cursor.discard_to(cursor.end)  # release before the map closes
        assert len(cursor) == 0

    def test_socket_chunks(self):
        payload = b"streamed bytes over a socket" * 10
        connection = _FakeSocket(payload, piece=7)
        assert b"".join(socket_chunks(connection, 64)) == payload

    def test_iter_byte_chunks_dispatch(self, tmp_path):
        payload = b"dispatch me please"
        # bytes-like
        assert b"".join(iter_byte_chunks(payload, 4)) == payload
        assert b"".join(iter_byte_chunks(bytearray(payload), 4)) == payload
        # file-like
        path = tmp_path / "p.bin"
        path.write_bytes(payload)
        with open(path, "rb") as handle:
            assert b"".join(iter_byte_chunks(handle, 4)) == payload
        # socket-like
        assert b"".join(iter_byte_chunks(_FakeSocket(payload, 3), 8)) == payload
        # iterable passthrough
        assert b"".join(iter_byte_chunks([payload[:5], payload[5:]], 4)) == payload

    def test_iter_byte_chunks_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_byte_chunks(b"x", 0))


class TestBinaryChunkCursor:
    def test_adopts_bytes_type_on_first_append(self):
        cursor = ChunkCursor()
        cursor.append(b"hello ")
        cursor.append(b"world")
        assert cursor.binary
        assert cursor.slice(0, 5) == b"hello"
        assert cursor.char(6) == ord("w")
        assert cursor.find(b"world", 0) == 6

    def test_explicit_binary_flag(self):
        cursor = ChunkCursor(binary=True)
        assert cursor.binary
        cursor.append(b"abc")
        assert cursor.text == b"abc"

    def test_discard_and_append_interleaved(self):
        cursor = ChunkCursor(binary=True)
        payload = bytes(range(256)) * 8
        position = 0
        for start in range(0, len(payload), 100):
            cursor.append(payload[start:start + 100])
            keep = max(0, cursor.end - 64)
            cursor.discard_to(keep)
            position = keep
            window, base = cursor.view()
            live = window[position - base:]
            assert bytes(live) == payload[position:start + 100]

    def test_memoryview_chunks_are_materialised(self):
        cursor = ChunkCursor(binary=True)
        cursor.append(memoryview(b"viewed"))
        assert cursor.find(b"wed", 0) == 3

    def test_chunk_type_never_flips_after_drain(self):
        """Once fixed, the chunk type is enforced -- even on an empty window."""
        binary = ChunkCursor(binary=True)
        binary.append(b"abc")
        binary.discard_to(binary.end)
        with pytest.raises(TypeError):
            binary.append("text")
        adopted = ChunkCursor()
        adopted.append("text")
        adopted.discard_to(adopted.end)
        with pytest.raises(TypeError):
            adopted.append(b"bytes")

    def test_str_cursor_still_works(self):
        cursor = ChunkCursor()
        cursor.append("hello ")
        cursor.append("world")
        assert not cursor.binary
        assert cursor.char(6) == "w"
        assert cursor.find("world", 0) == 6


# ----------------------------------------------------------------------
# Record-stream splitting (generated corpora)
# ----------------------------------------------------------------------
class TestSplitDocumentsGeneratedStreams:
    """The generator subsystem feeds split_documents adversarial streams:
    end tags landing exactly on chunk edges, records larger than the chunk
    size, and whitespace-joined record boundaries."""

    def test_end_tag_exactly_on_chunk_edges(self):
        from repro.core.sources import split_documents

        records = [b"<r><a>%d</a></r>" % index for index in range(5)]
        stream = b"".join(records)
        tag = b"</r>"
        # Chunk boundaries placed exactly at each end-tag end, each end-tag
        # start, and one byte into the tag.
        for offsets in (
            [stream.find(tag, start) + len(tag)
             for start in range(0, len(stream), len(records[0]))],
            [stream.find(tag, start)
             for start in range(0, len(stream), len(records[0]))],
            [stream.find(tag, start) + 1
             for start in range(0, len(stream), len(records[0]))],
        ):
            cuts = sorted({o for o in offsets if 0 < o < len(stream)})
            chunks, previous = [], 0
            for cut in cuts:
                chunks.append(stream[previous:cut])
                previous = cut
            chunks.append(stream[previous:])
            assert list(split_documents(chunks, tag)) == records

    def test_record_larger_than_chunk_size(self):
        from repro.core.sources import split_documents

        big = b"<r><x>" + b"y" * 10_000 + b"</x></r>"
        small = b"<r><x>z</x></r>"
        stream = big + b"\n" + small + b"\n" + big
        for chunk_size in (1, 7, 64, 512):
            chunks = [
                stream[start:start + chunk_size]
                for start in range(0, len(stream), chunk_size)
            ]
            assert list(split_documents(chunks, b"</r>")) == [big, small, big]

    def test_generated_stream_round_trips(self):
        from repro.core.sources import split_documents
        from repro.workloads.generate import DocumentSpec, generate_records
        from repro.workloads.schema import SchemaSpec, build_schema

        schema = build_schema(SchemaSpec(seed=5, depth=4, fanout=3))
        records = generate_records(
            schema, DocumentSpec(seed=2, records=6, record_bytes=700)
        )
        stream = b"\n".join(records) + b"\n"
        for chunk_size in (3, 41, 1024):
            chunks = [
                stream[start:start + chunk_size]
                for start in range(0, len(stream), chunk_size)
            ]
            assert list(split_documents(chunks, schema.end_tag)) == records


class TestSplitSpans:
    """``Source.from_records`` over an in-memory stream splits it into
    ``("span", start, end)`` offsets; record for record they must select
    exactly the blobs :func:`split_documents` copies out of any chunking
    of the same stream."""

    TAG = b"</r>"

    @staticmethod
    def _spans(data, tag=TAG):
        from repro.api import Source

        payloads = [
            payload for _name, payload
            in Source.from_records(data, end_tag=tag).documents()
        ]
        assert all(payload[0] == "span" for payload in payloads)
        return [bytes(data[start:end]) for _kind, start, end in payloads]

    @staticmethod
    def _blobs(data, chunk_size, tag=TAG):
        from repro.core.sources import split_documents

        chunks = [
            bytes(data[start:start + chunk_size])
            for start in range(0, len(data), chunk_size)
        ]
        return list(split_documents(chunks, tag))

    @pytest.mark.parametrize("stream, records", [
        (b"  \n<r>a</r>\t<r>b</r>\r\n", [b"<r>a</r>", b"<r>b</r>"]),
        (b"<r>a</r> \n\x0b\x0c \n<r>b</r>", [b"<r>a</r>", b"<r>b</r>"]),
        (b"<r>a</r>\n junk \n", [b"<r>a</r>", b"junk"]),
        (b"<r>a</r><r>b</r>X</r", [b"<r>a</r>", b"<r>b</r>", b"X</r"]),
        (b"", []),
        (b" \n\t ", []),
        (b"</r>", [b"</r>"]),
        (b"\n</r>\n", [b"</r>"]),
        (b"</r></r>", [b"</r>", b"</r>"]),
    ], ids=["outer-whitespace", "whitespace-gap", "trailing-garbage",
            "unterminated-tail", "empty", "only-whitespace", "only-end-tag",
            "padded-end-tag", "back-to-back-end-tags"])
    def test_edge_streams(self, stream, records):
        assert self._spans(stream) == records
        for chunk_size in (1, 3, 64):
            assert self._blobs(stream, chunk_size) == records

    def test_whitespace_end_tag_skips_empty_records(self):
        stream = b"a\n\n  \nb\n\n"
        assert self._spans(stream, b"\n") == [b"a\n", b"b\n"]
        for chunk_size in (1, 2, 64):
            assert self._blobs(stream, chunk_size, b"\n") == [b"a\n", b"b\n"]

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(
            st.tuples(
                st.text(" \t\n\r\x0b\x0c", max_size=4),
                st.sampled_from(
                    [b"<r>x</r>", b"<r/>y</r>", b"</r>", b"<r></r></r>", b"z"]
                ),
            ),
            max_size=8,
        ),
        tail=st.sampled_from([b"", b" \n", b"junk", b" junk\t", b"</r", b"<"]),
        chunk_size=st.integers(min_value=1, max_value=16),
        kind=st.sampled_from([bytes, bytearray, memoryview]),
        tag=st.sampled_from([TAG, b"\n"]),
    )
    def test_spans_match_split_documents(self, pieces, tail, chunk_size, kind,
                                         tag):
        stream = b"".join(
            space.encode() + record for space, record in pieces
        ) + tail
        assert (self._spans(kind(stream), tag)
                == self._blobs(stream, chunk_size, tag))

    def test_generated_stream_spans(self):
        from repro.workloads.generate import DocumentSpec, generate_records
        from repro.workloads.schema import SchemaSpec, build_schema

        schema = build_schema(SchemaSpec(seed=5, depth=4, fanout=3))
        records = generate_records(
            schema, DocumentSpec(seed=2, records=6, record_bytes=700)
        )
        stream = b"\n".join(records) + b"\n"
        assert self._spans(stream, schema.end_tag) == records

    def test_text_and_chunk_streams_keep_blobs(self):
        from repro.api import Source

        for source in ("<r>a</r>", Source.from_iter(iter([b"<r>a</r>"]))):
            payloads = [
                payload for _name, payload
                in Source.from_records(source, end_tag=self.TAG).documents()
            ]
            assert payloads == [("blob", b"<r>a</r>")]


class TestSplitJsonl:
    def test_basic_lines_and_blank_skipping(self):
        from repro.core.sources import split_jsonl

        stream = b'{"a":1}\n\n{"b":2}\n{"c":3}'
        assert list(split_jsonl([stream])) == [
            b'{"a":1}', b'{"b":2}', b'{"c":3}',
        ]

    def test_any_chunking_round_trips(self):
        from repro.core.sources import split_jsonl
        from repro.workloads.json_records import JsonSpec, generate_jsonl

        stream = generate_jsonl(JsonSpec(seed=3, records=7, utf8=0.3))
        expected = [line for line in stream.split(b"\n") if line.strip()]
        for chunk_size in (1, 2, 13, 255, len(stream)):
            chunks = [
                stream[start:start + chunk_size]
                for start in range(0, len(stream), chunk_size)
            ]
            assert list(split_jsonl(chunks)) == expected

    def test_str_chunks_and_missing_trailing_newline(self):
        from repro.core.sources import split_jsonl

        assert list(split_jsonl(['{"a":1}\n{"b"', ":2}"])) == [
            b'{"a":1}', b'{"b":2}',
        ]
