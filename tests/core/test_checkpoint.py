"""Durable checkpoint/resume: format hardening and kill-and-resume chaos.

Three layers of proof, matching the recovery subsystem's guarantees:

- **Format**: a checkpoint torn at any byte boundary or bit-flipped on
  disk raises :class:`~repro.errors.CheckpointError` — whole-or-nothing,
  never a half-restored session.  A checkpoint captured under a different
  query set or output mode is refused the same way.
- **Session resume**: for every delivery tier, a session checkpointed at
  an arbitrary feed boundary and restored into a fresh engine produces
  output and statistics byte-identical to an uninterrupted whole-document
  ``batched`` run — single query, shared multi-query scan, and
  mid-document attach all covered.  Legacy snapshots labelled with the
  retired per-token delivery still restore into ``batched``; a mid-token
  snapshot never crosses between the two live deliveries.
- **Chaos**: a SIGKILLed corpus run resumes from its journal with
  exactly-once, byte-identical merged output, and the fuzz harness's
  kill-and-resume matrix (child SIGKILLs itself at a seeded offset)
  passes for every workload × delivery × adversarial chunking cell.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import api
from repro.accel import accel_available
from repro.checkpoint import (
    Checkpoint,
    CorpusJournal,
    read_checkpoint,
    resume_chunks,
    write_checkpoint,
)
from repro.core.prefilter import SmpPrefilter
from repro.core.runtime import DELIVERIES
from repro.errors import CheckpointError
from repro.faults import corrupt_file, truncate_file
from repro.workloads.fuzz import STATS_FIELDS, adversarial_chunks
from repro.workloads.medline import MEDLINE_QUERIES

DELIVERY_TIERS = [
    pytest.param(name) for name in DELIVERIES
]


def _stats_tuple(stats):
    return tuple(getattr(stats, name) for name in STATS_FIELDS)


def _medline_query(name: str, dtd, label: str | None = None) -> api.Query:
    return api.Query.from_spec(
        dtd, MEDLINE_QUERIES[name], backend="native", label=label,
    )


@pytest.fixture()
def medline_engine(medline_dtd_fixture):
    return api.Engine(_medline_query("M2", medline_dtd_fixture))


# ----------------------------------------------------------------------
# Format hardening: torn writes, bit flips, wrong shapes
# ----------------------------------------------------------------------
class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "basic.ckpt")
        payload = {"kind": "probe", "blob": b"\x00\xffbytes", "n": 3}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_truncation_at_every_quarter_boundary(self, tmp_path):
        """A checkpoint torn at 1/4, 1/2, 3/4 (and 0) is always refused."""
        path = str(tmp_path / "torn.ckpt")
        write_checkpoint(path, {"kind": "probe", "blob": b"x" * 512})
        size = os.path.getsize(path)
        for quarter in range(4):
            write_checkpoint(path, {"kind": "probe", "blob": b"x" * 512})
            remaining = truncate_file(path, length=size * quarter // 4)
            assert len(remaining) == size * quarter // 4
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_truncation_at_every_byte_of_a_small_checkpoint(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt")
        write_checkpoint(path, {"kind": "probe"})
        size = os.path.getsize(path)
        for length in range(size):
            write_checkpoint(path, {"kind": "probe"})
            truncate_file(path, length=length)
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    @pytest.mark.parametrize("seed", [1, 2, 3, 11, 12, 13, 99])
    def test_bit_flip_anywhere_is_rejected(self, tmp_path, seed):
        """Seeded single-bit corruption anywhere in the file is detected.

        Bit flips inside the payload break the checksum; flips inside the
        header break the header parse — both must raise, never return
        damaged data.
        """
        path = str(tmp_path / "flip.ckpt")
        write_checkpoint(path, {"kind": "probe", "blob": b"y" * 256})
        corrupt_file(path, seed=seed, flips=1)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        path = str(tmp_path / "trail.ckpt")
        write_checkpoint(path, {"kind": "probe"})
        with open(path, "ab") as handle:
            handle.write(b"garbage after the payload")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "never-written.ckpt"))


# ----------------------------------------------------------------------
# Session-level resume equality
# ----------------------------------------------------------------------
class TestSessionResume:
    @pytest.mark.parametrize("delivery", DELIVERY_TIERS)
    def test_filter_session_resume_matches_uninterrupted(
        self, tmp_path, medline_dtd_fixture, medline_document_small, delivery,
    ):
        """Every delivery tier: checkpoint mid-stream, restore, identical."""
        plan = SmpPrefilter.cached_for_query(
            medline_dtd_fixture, MEDLINE_QUERIES["M2"], backend="native",
        )
        data = medline_document_small.encode("utf-8")
        chunks = adversarial_chunks(data, "midtag")
        reference = plan.session(binary=True, delivery="batched").run([data])

        cut = len(chunks) // 3
        path = str(tmp_path / f"{delivery}.ckpt")
        first = plan.session(binary=True, delivery=delivery)
        head, consumed = [], 0
        for chunk in chunks[:cut]:
            head.append(first.feed(chunk))
            consumed += len(chunk)
        write_checkpoint(path, {
            "input_offset": consumed, "state": first.export_state(),
        })

        snapshot = read_checkpoint(path)
        second = plan.session(binary=True, delivery=delivery)
        second.import_state(snapshot["state"])
        tail = [
            second.feed(chunk)
            for chunk in resume_chunks(chunks, snapshot["input_offset"])
        ]
        tail.append(second.finish())
        assert b"".join(head + tail) == reference.output
        assert _stats_tuple(second.stats) == _stats_tuple(reference.stats)

    @staticmethod
    def _snapshot_at_phase(plan, delivery, chunks, phase):
        """The first feed-boundary snapshot in ``phase`` (0 = token
        boundary, 1 = suspended frontier search), with the bytes fed and
        the output returned up to it."""
        session = plan.session(binary=True, delivery=delivery)
        consumed, head = 0, []
        for chunk in [b""] + chunks:
            head.append(session.feed(chunk))
            consumed += len(chunk)
            snapshot = session.export_state()
            if snapshot["phase"] == phase:
                return snapshot, consumed, b"".join(head)
        raise AssertionError(f"no snapshot in phase {phase}")

    @pytest.mark.parametrize("phase", [0, 1], ids=["token", "search"])
    def test_legacy_pertoken_snapshot_restores_into_batched(
        self, medline_dtd_fixture, medline_document_small, phase,
    ):
        """The retired per-token delivery published snapshots only at token
        boundaries and suspended frontier searches; both still resume."""
        plan = SmpPrefilter.cached_for_query(
            medline_dtd_fixture, MEDLINE_QUERIES["M2"], backend="native",
        )
        data = medline_document_small.encode("utf-8")
        chunks = adversarial_chunks(data, "midtag")
        reference = plan.session(binary=True, delivery="batched").run([data])
        snapshot, consumed, head = self._snapshot_at_phase(
            plan, "batched", chunks, phase
        )
        resumed = plan.session(binary=True, delivery="batched")
        resumed.import_state(dict(snapshot, delivery="pertoken"))
        tail = resumed.feed(data[consumed:]) + resumed.finish()
        assert head + tail == reference.output
        assert _stats_tuple(resumed.stats) == _stats_tuple(reference.stats)

    @pytest.mark.skipif(
        not accel_available(), reason="repro._accel extension not built"
    )
    @pytest.mark.parametrize(
        ("captured", "restored"),
        [("batched", "accel"), ("accel", "batched")],
    )
    def test_mid_token_snapshot_is_refused_across_deliveries(
        self, medline_dtd_fixture, medline_document_small, captured, restored,
    ):
        plan = SmpPrefilter.cached_for_query(
            medline_dtd_fixture, MEDLINE_QUERIES["M2"], backend="native",
        )
        data = medline_document_small.encode("utf-8")
        snapshot, _, _ = self._snapshot_at_phase(
            plan, captured, adversarial_chunks(data, "midtag"), 1
        )
        target = plan.session(binary=True, delivery=restored)
        with pytest.raises(CheckpointError, match="mid-token") as refused:
            target.import_state(snapshot)
        if captured == "accel":
            assert "needs the built repro._accel extension" in str(refused.value)

    def test_api_session_checkpoint_and_engine_resume(
        self, tmp_path, medline_engine, medline_document_small,
    ):
        """`Session.checkpoint()` → `Engine.open(resume=...)` round trip."""
        data = medline_document_small.encode("utf-8")
        reference = medline_engine.run(
            api.Source.from_bytes(data), binary=True
        ).single

        path = str(tmp_path / "session.ckpt")
        pieces = []
        session = medline_engine.open(
            sinks=[api.CallbackSink(pieces.append)], binary=True
        )
        step = max(1, len(data) // 7)
        session.feed(data[:3 * step])
        checkpoint = session.checkpoint(path)
        session.close()  # the "crash": this session never finishes

        assert checkpoint.input_offset == 3 * step
        flushed = checkpoint.output_sizes[0]
        recovered = b"".join(pieces)[:flushed]

        resumed_pieces = []
        resumed = medline_engine.open(
            sinks=[api.CallbackSink(resumed_pieces.append)],
            resume=Checkpoint.load(path),
        )
        resumed.feed(data[3 * step:])
        resumed.finish()
        assert recovered + b"".join(resumed_pieces) == reference.output
        assert (_stats_tuple(resumed.stats[0])
                == _stats_tuple(reference.stats))

    def test_shared_session_resume_with_mid_stream_attach(
        self, tmp_path, medline_dtd_fixture, medline_document_small,
    ):
        """A live shared session with an attached query survives resume."""
        data = medline_document_small.encode("utf-8")
        base = [
            _medline_query("M2", medline_dtd_fixture),
            _medline_query("M4", medline_dtd_fixture),
        ]
        extra = _medline_query("M5", medline_dtd_fixture, label="late")
        engine = api.Engine(base)
        cut = len(data) // 2

        # Reference: uninterrupted live run with the same attach point.
        reference = engine.open(binary=True, live=True)
        ref_pieces = [[] for _ in range(3)]
        for index, piece in enumerate(reference.feed(data[:cut])):
            ref_pieces[index].append(piece)
        reference.attach(extra, label="late")
        for index, piece in enumerate(reference.feed(data[cut:])):
            ref_pieces[index].append(piece)
        for index, piece in enumerate(reference.finish()):
            ref_pieces[index].append(piece)

        # Crashed run: attach, feed a little further, checkpoint, abandon.
        path = str(tmp_path / "shared.ckpt")
        crashed = engine.open(binary=True, live=True)
        crash_pieces = [[] for _ in range(3)]
        for index, piece in enumerate(crashed.feed(data[:cut])):
            crash_pieces[index].append(piece)
        crashed.attach(extra, label="late")
        step = (len(data) - cut) // 3
        for index, piece in enumerate(crashed.feed(data[cut:cut + step])):
            crash_pieces[index].append(piece)
        checkpoint = crashed.checkpoint(path)
        crashed.close()

        resumed = engine.open(live=True, resume=path)
        assert [handle.label for handle in resumed.handles][-1] == "late"
        for index, piece in enumerate(resumed.feed(data[cut + step:])):
            crash_pieces[index].append(piece)
        for index, piece in enumerate(resumed.finish()):
            crash_pieces[index].append(piece)
        assert len(checkpoint.output_sizes) == 3
        for index in range(3):
            joined = b"".join(crash_pieces[index])
            assert joined == b"".join(ref_pieces[index]), f"stream {index}"

    def test_resume_under_different_query_set_is_refused(
        self, tmp_path, medline_engine, medline_dtd_fixture,
        medline_document_small,
    ):
        path = str(tmp_path / "other.ckpt")
        session = medline_engine.open(binary=True)
        session.feed(medline_document_small[:500].encode("utf-8"))
        session.checkpoint(path)
        session.close()
        other = api.Engine(_medline_query("M4", medline_dtd_fixture))
        with pytest.raises(CheckpointError):
            other.open(resume=path)

    def test_resume_with_conflicting_binary_mode_is_refused(
        self, tmp_path, medline_engine, medline_document_small,
    ):
        path = str(tmp_path / "binary.ckpt")
        session = medline_engine.open(binary=True)
        session.feed(medline_document_small[:500].encode("utf-8"))
        session.checkpoint(path)
        session.close()
        with pytest.raises(CheckpointError):
            medline_engine.open(resume=path, binary=False)

    def test_checkpoint_after_finish_is_refused(
        self, medline_engine, medline_document_small,
    ):
        session = medline_engine.open(binary=True)
        session.feed(medline_document_small.encode("utf-8"))
        session.finish()
        with pytest.raises(CheckpointError):
            session.checkpoint()


# ----------------------------------------------------------------------
# Corpus journal chaos: SIGKILL mid-corpus, resume, exactly-once
# ----------------------------------------------------------------------
def _corpus_documents(tmp_path, medline_document_small) -> list[str]:
    paths = []
    for index in range(6):
        path = tmp_path / f"doc{index}.xml"
        # Distinct documents: repeat the base document a varying number of
        # times records-style so each has its own size and output.
        path.write_text(medline_document_small, encoding="utf-8")
        paths.append(str(path))
    return paths


class TestCorpusJournalChaos:
    def test_sigkill_mid_corpus_then_journal_resume_is_byte_identical(
        self, tmp_path, medline_dtd_fixture, medline_document_small,
    ):
        queries = [
            _medline_query("M2", medline_dtd_fixture),
            _medline_query("M4", medline_dtd_fixture),
        ]
        documents = _corpus_documents(tmp_path, medline_document_small)
        journal = str(tmp_path / "corpus.journal")

        def clean_run():
            return api.Engine(queries).run(
                api.Source.from_paths(documents, chunk_size=4096),
                binary=True,
            )

        reference = clean_run()

        def victim():
            # Kill the process from inside the journal: after the third
            # document commits, die as hard as a power cut.
            real_record = CorpusJournal.record
            state = {"committed": 0}

            def record(self, *args, **kwargs):
                real_record(self, *args, **kwargs)
                state["committed"] += 1
                if state["committed"] >= 3:
                    os.kill(os.getpid(), signal.SIGKILL)

            CorpusJournal.record = record
            api.Engine(queries).run(
                api.Source.from_paths(documents, chunk_size=4096),
                binary=True,
                journal=journal,
            )

        context = multiprocessing.get_context("fork")
        child = context.Process(target=victim)
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

        # The journal survived the kill with >= 3 committed documents.
        resumed_journal = CorpusJournal.resume(
            journal,
            api.Engine(queries)._query_fingerprints(),
            True,
        )
        committed = set(resumed_journal.completed)
        resumed_journal.close()
        assert len(committed) >= 3

        resumed = api.Engine(queries).run(
            api.Source.from_paths(documents, chunk_size=4096),
            binary=True,
            journal=journal,
        )
        for mine, reference_result in zip(resumed.results, reference.results):
            assert mine.output == reference_result.output
            assert (_stats_tuple(mine.stats)
                    == _stats_tuple(reference_result.stats))

    def test_journal_with_torn_tail_resumes_cleanly(
        self, tmp_path, medline_dtd_fixture, medline_document_small,
    ):
        queries = [_medline_query("M2", medline_dtd_fixture)]
        documents = _corpus_documents(tmp_path, medline_document_small)
        journal = str(tmp_path / "torn.journal")
        reference = api.Engine(queries).run(
            api.Source.from_paths(documents, chunk_size=4096), binary=True,
        )
        api.Engine(queries).run(
            api.Source.from_paths(documents, chunk_size=4096),
            binary=True, journal=journal,
        )
        # Tear the last journal line mid-write, then append pure garbage.
        with open(journal, "rb") as handle:
            content = handle.read()
        with open(journal, "wb") as handle:
            handle.write(content[:len(content) - 17])
            handle.write(b'{"broken json...')
        resumed = api.Engine(queries).run(
            api.Source.from_paths(documents, chunk_size=4096),
            binary=True, journal=journal,
        )
        assert resumed.results[0].output == reference.results[0].output

    def test_journal_under_different_query_set_is_refused(
        self, tmp_path, medline_dtd_fixture, medline_document_small,
    ):
        documents = _corpus_documents(tmp_path, medline_document_small)
        journal = str(tmp_path / "wrong.journal")
        api.Engine([_medline_query("M2", medline_dtd_fixture)]).run(
            api.Source.from_paths(documents, chunk_size=4096),
            binary=True, journal=journal,
        )
        with pytest.raises(CheckpointError):
            api.Engine([_medline_query("M4", medline_dtd_fixture)]).run(
                api.Source.from_paths(documents, chunk_size=4096),
                binary=True, journal=journal,
            )


    def test_sigkill_mid_record_stream_then_parallel_resume_replays_once(
        self, tmp_path, medline_dtd_fixture, monkeypatch,
    ):
        """A journal over ``from_records`` spans: the killed run and the
        resumed one split the same stream, so journaled records replay
        and only the rest are filtered again, each exactly once."""
        from repro import parallel
        from repro.workloads.medline import generate_medline_document

        queries = [
            _medline_query("M2", medline_dtd_fixture),
            _medline_query("M4", medline_dtd_fixture),
        ]
        stream = b"\n".join(
            generate_medline_document(citations=6 + index, seed=70 + index)
            .encode("utf-8")
            for index in range(6)
        ) + b"\n"
        journal = str(tmp_path / "records.journal")

        def records():
            return api.Source.from_records(
                stream, end_tag=b"</MedlineCitationSet>"
            )

        reference = api.Engine(queries).run(records(), binary=True)

        def victim():
            real_record = CorpusJournal.record
            state = {"committed": 0}

            def record(self, *args, **kwargs):
                real_record(self, *args, **kwargs)
                state["committed"] += 1
                if state["committed"] >= 3:
                    os.kill(os.getpid(), signal.SIGKILL)

            CorpusJournal.record = record
            api.Engine(queries).run(records(), binary=True, journal=journal)

        child = multiprocessing.get_context("fork").Process(target=victim)
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

        resumed_journal = CorpusJournal.resume(
            journal, api.Engine(queries)._query_fingerprints(), True,
        )
        committed = set(resumed_journal.completed)
        resumed_journal.close()
        assert len(committed) >= 3

        submitted = []
        submit = parallel.WorkerPool.submit_document

        def counting_submit(self, name, payload):
            submitted.append((name, payload[0]))
            return submit(self, name, payload)

        monkeypatch.setattr(parallel.WorkerPool, "submit_document",
                            counting_submit)
        resumed = api.Engine(queries, mode="parallel", jobs=2).run(
            records(), binary=True, journal=journal,
        )
        assert sorted(submitted) == [
            (f"record[{index}]", "span")
            for index in range(6) if index not in committed
        ]
        assert [document.name for document in resumed.documents] == [
            document.name for document in reference.documents
        ]
        for mine, reference_result in zip(resumed.results, reference.results):
            assert mine.output == reference_result.output
            assert (_stats_tuple(mine.stats)
                    == _stats_tuple(reference_result.stats))


# ----------------------------------------------------------------------
# The fuzz harness's kill-and-resume matrix (one seeded round)
# ----------------------------------------------------------------------
def test_kill_and_resume_matrix_is_byte_identical():
    """Child SIGKILLs itself at a seeded offset; resume must be identical.

    One full round of the chaos matrix: 3 workloads (MEDLINE, generated
    XML, JSONL grammar) × every available delivery × 2 adversarial
    chunkings, alternating native/instrumented backends.  Every cell must
    recover to byte-identical output and an equal 11-field statistics
    tuple.
    """
    from repro.workloads.fuzz import available_deliveries, run_kill_resume

    cases = run_kill_resume(seed=20260807, rounds=1)
    divergences = [d for case in cases for d in case.divergences]
    assert not divergences, "\n".join(
        f"{d.comparison}: {d.detail}" for d in divergences
    )
    # 3 workloads x 2 chunkings per delivery: 12 cells with the extension
    # built, 6 on the pure path alone.
    assert sum(case.pairs for case in cases) >= 6 * len(available_deliveries())
