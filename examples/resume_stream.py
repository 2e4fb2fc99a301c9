"""Crash-recoverable streaming: checkpoint a session, kill it, resume it.

A filtering process that may die mid-stream (power cut, OOM kill,
preemption) checkpoints its session at chunk boundaries with
``session.checkpoint(path)`` — an atomic, checksummed snapshot of the
complete resume state.  A fresh process restores it with
``engine.open(resume=path)``, truncates its output file to the
checkpointed size, seeks the input to ``Checkpoint.input_offset``, and
continues — the final output and every statistics counter are
byte-identical to a run that never died.

This script walks that round trip against a generated MEDLINE corpus:

1. run the stream uninterrupted (the reference),
2. run it again but "crash" (abandon the session) partway through,
   keeping only the checkpoint file and the partial output,
3. resume from the checkpoint and finish,
4. prove crash+resume produced exactly the reference bytes and stats.

Run with::

    PYTHONPATH=src python examples/resume_stream.py
"""

from __future__ import annotations

import os
import tempfile

from repro import api
from repro.checkpoint import resume_chunks
from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
from repro.workloads.medline.generator import generate_medline_document

CHUNK = 4096


def chunked(data: bytes):
    return [data[i:i + CHUNK] for i in range(0, len(data), CHUNK)]


def main() -> None:
    document = generate_medline_document(citations=80, seed=42).encode("utf-8")
    engine = api.Engine(api.Query.from_spec(medline_dtd(), MEDLINE_QUERIES["M2"]))
    chunks = chunked(document)
    print(f"input: {len(document):,} bytes in {len(chunks)} chunks")

    # 1. The reference: one uninterrupted run.
    reference = engine.run(api.Source.from_bytes(document), binary=True).single
    print(f"reference output: {len(reference.output):,} bytes")

    with tempfile.TemporaryDirectory() as scratch:
        out_path = os.path.join(scratch, "projected.xml")
        ckpt_path = os.path.join(scratch, "stream.ckpt")

        # 2. The doomed run: checkpoint after every chunk, die partway in.
        crash_at = len(chunks) // 2
        with open(out_path, "wb") as out:
            session = engine.open(
                sinks=[api.CallbackSink(out.write)], binary=True
            )
            for chunk in chunks[:crash_at]:
                session.feed(chunk)
                out.flush()
                session.checkpoint(ckpt_path)
            # The "crash": the session object is abandoned, never finished.
            # Only ckpt_path and the partial out_path survive the process.
        print(f"crashed after chunk {crash_at}, "
              f"partial output: {os.path.getsize(out_path):,} bytes")

        # 3. A fresh process resumes.  Truncate the output to the size the
        # checkpoint vouches for (bytes written after the last checkpoint
        # will be emitted again), restore, and re-feed from the recorded
        # offset.
        checkpoint = api.Checkpoint.load(ckpt_path)
        out = open(out_path, "r+b")
        out.truncate(checkpoint.output_sizes[0])
        out.seek(checkpoint.output_sizes[0])
        session = engine.open(
            sinks=[api.CallbackSink(out.write)], resume=checkpoint
        )
        print(f"resuming from input offset {checkpoint.input_offset:,}")
        for chunk in resume_chunks(chunks, checkpoint.input_offset):
            session.feed(chunk)
        session.finish()
        out.close()

        # 4. Crash + resume changed nothing observable.
        with open(out_path, "rb") as handle:
            recovered = handle.read()
        assert recovered == reference.output, "output diverged!"
        assert session.stats[0].char_comparisons == reference.stats.char_comparisons
        assert session.stats[0].tokens_matched == reference.stats.tokens_matched
        print(f"resumed output: {len(recovered):,} bytes -- "
              "byte-identical to the uninterrupted run, statistics equal")


if __name__ == "__main__":
    main()
