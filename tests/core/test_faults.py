"""Fault-tolerant execution: chaos invariants, error policies, teardown.

The acceptance property of the fault-tolerance layer: under deterministic
injected chaos -- workers crashing hard, workers hanging while ignoring
``SIGTERM``, transient I/O errors mid-chunk -- a parallel corpus run with a
:class:`~repro.core.sources.RetryPolicy` completes **byte-identical** to a
fault-free sequential run.  Poisoned documents (malformed payloads that
fail deterministically) are quarantined per the ``on_error`` policy without
disturbing the healthy documents' output, pool teardown reclaims even
``SIGTERM``-ignoring workers via the terminate → kill escalation, and the
source layer wraps unrecoverable read failures in
:class:`~repro.errors.SourceError` with the byte offset reached.
"""

from __future__ import annotations

import socket
import time
import warnings

import pytest

from repro import api, faults, parallel
from repro.core.sources import RetryPolicy, file_chunks, socket_chunks
from repro.core.stats import RunStatistics
from repro.errors import ReproError, SourceError
from repro.faults import FaultPlan
from repro.workloads.medline import (
    MEDLINE_QUERIES,
    generate_medline_document,
    medline_dtd,
)
from repro.workloads.xmark import (
    XMARK_QUERIES,
    generate_xmark_document,
    xmark_dtd,
)

_TIMING_FIELDS = ("run_seconds", "throughput_mb_per_second")


def _stats_key(stats: RunStatistics) -> dict:
    payload = stats.as_dict()
    for fieldname in _TIMING_FIELDS:
        payload.pop(fieldname, None)
    return payload


@pytest.fixture(scope="module")
def medline_corpus(tmp_path_factory):
    """Eight small MEDLINE documents on disk, size-skewed."""
    directory = tmp_path_factory.mktemp("fault-medline")
    paths = []
    for index, citations in enumerate((24, 8, 10, 6, 12, 9, 7, 11)):
        path = directory / f"doc{index}.xml"
        path.write_text(
            generate_medline_document(citations=citations, seed=50 + index),
            encoding="utf-8",
        )
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def xmark_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fault-xmark")
    paths = []
    for index, scale in enumerate((0.01, 0.004, 0.008)):
        path = directory / f"site{index}.xml"
        path.write_text(
            generate_xmark_document(scale=scale, seed=20 + index),
            encoding="utf-8",
        )
        paths.append(str(path))
    return paths


def _medline_engine(mode="auto", jobs=None, queries=("M2", "M5")):
    dtd = medline_dtd()
    return api.Engine(
        [
            api.Query.from_spec(dtd, MEDLINE_QUERIES[name], backend="native")
            for name in queries
        ],
        mode=mode,
        **({} if jobs is None else {"jobs": jobs}),
    )


def _xmark_engine(mode="auto", jobs=None, queries=("XM1", "XM2")):
    dtd = xmark_dtd()
    return api.Engine(
        [
            api.Query.from_spec(dtd, XMARK_QUERIES[name], backend="native")
            for name in queries
        ],
        mode=mode,
        **({} if jobs is None else {"jobs": jobs}),
    )


# ----------------------------------------------------------------------
# The chaos invariant: injected faults + retry == fault-free sequential
# ----------------------------------------------------------------------
class TestChaosInvariant:
    def test_medline_crashes_and_io_errors_byte_identical(self, medline_corpus):
        reference = _medline_engine().run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        plan = FaultPlan(seed=1234, worker_crash=0.3, io_error=0.1)
        with faults.injected(plan):
            chaotic = _medline_engine(mode="parallel", jobs=3).run(
                api.Source.from_paths(medline_corpus),
                binary=True,
                retry=RetryPolicy(retries=8, backoff=0.01),
            )
        assert chaotic.ok
        assert chaotic.outputs == reference.outputs
        for ref_result, chaos_result in zip(reference, chaotic):
            assert _stats_key(ref_result.stats) == _stats_key(chaos_result.stats)

    def test_xmark_crashes_byte_identical(self, xmark_corpus):
        reference = _xmark_engine().run(
            api.Source.from_paths(xmark_corpus), binary=True
        )
        plan = FaultPlan(seed=99, worker_crash=0.4, io_error=0.15)
        with faults.injected(plan):
            chaotic = _xmark_engine(mode="parallel", jobs=2).run(
                api.Source.from_paths(xmark_corpus),
                binary=True,
                retry=RetryPolicy(retries=8, backoff=0.01),
            )
        assert chaotic.outputs == reference.outputs

    def test_workers_actually_die_and_respawn(self, medline_corpus):
        """The chaos is real: at least 20% of the fleet gets killed."""
        engine = _medline_engine()
        plan = FaultPlan(seed=1234, worker_crash=0.3)
        documents = list(api.Source.from_paths(medline_corpus).documents())
        with faults.injected(plan):
            pool = parallel.WorkerPool(engine, 3)
            try:
                outcomes = list(
                    parallel.execute_corpus(
                        engine,
                        documents,
                        jobs=3,
                        pool=pool,
                        retry=RetryPolicy(retries=8, backoff=0.01),
                    )
                )
                # uids are handed out sequentially; any uid >= jobs proves a
                # respawn happened (= a worker died and was replaced).
                spawned = max(w.uid for w in pool._workers) + 1
            finally:
                pool.close()
        assert len(outcomes) == len(medline_corpus)
        assert spawned - 3 >= 1, "no worker was ever killed -- chaos inert"

    def test_record_spans_survive_worker_kills(self, medline_corpus,
                                               monkeypatch, tmp_path):
        """Respawned workers are forked with the record stream too: they
        read the retried records as spans, and the chaotic run of a
        ``from_records`` corpus stays byte-identical."""
        stream = b"\n".join(open(path, "rb").read() for path in medline_corpus)

        def records():
            return api.Source.from_records(
                stream, end_tag=b"</MedlineCitationSet>"
            )

        reference = _medline_engine().run(records(), binary=True)
        log = tmp_path / "filtered"
        worker_main = parallel._worker_main
        run_document = parallel._run_document

        def logging_worker_main(spec, tasks, results, fault_plan, uid, buffer):
            # Runs in the forked worker: log who filtered which payload kind.
            def logged(engine, payload, pools, buffer):
                with open(log, "a") as handle:
                    handle.write(f"{uid} {payload[0]}\n")
                return run_document(engine, payload, pools, buffer)

            parallel._run_document = logged
            worker_main(spec, tasks, results, fault_plan, uid, buffer)

        monkeypatch.setattr(parallel, "_worker_main", logging_worker_main)
        # Seed 99 kills worker 1 at its first record; its replacement
        # (uid 2) survives the retries.
        with faults.injected(FaultPlan(seed=99, worker_crash=0.3)):
            chaotic = _medline_engine(mode="parallel", jobs=2).run(
                records(),
                binary=True,
                retry=RetryPolicy(retries=8, backoff=0.01),
            )
        filtered = [line.split() for line in log.read_text().splitlines()]
        assert {kind for _uid, kind in filtered} == {"span"}
        assert max(int(uid) for uid, _kind in filtered) >= 2, (
            "no respawned worker filtered a record -- chaos inert"
        )
        assert chaotic.ok
        assert chaotic.outputs == reference.outputs
        for ref_result, chaos_result in zip(reference, chaotic):
            assert _stats_key(ref_result.stats) == _stats_key(chaos_result.stats)

    def test_fault_free_run_with_plan_disarmed_is_plain(self, medline_corpus):
        """Disarmed fault sites are no-ops (the zero-overhead contract)."""
        assert faults.active() is None
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(medline_corpus), binary=True
        )
        assert run.ok and run.failures == []


# ----------------------------------------------------------------------
# on_error policies: quarantining poisoned documents
# ----------------------------------------------------------------------
class TestErrorPolicies:
    @pytest.fixture(scope="class")
    def poisoned_corpus(self, tmp_path_factory, medline_corpus):
        directory = tmp_path_factory.mktemp("poisoned")
        bad = directory / "bad.xml"
        bad.write_bytes(b"<MedlineCitationSet><Medline")
        paths = list(medline_corpus[:3])
        paths.insert(1, str(bad))
        return paths, str(bad)

    def test_collect_quarantines_and_keeps_healthy_output(
        self, medline_corpus, poisoned_corpus
    ):
        paths, bad = poisoned_corpus
        healthy = [p for p in paths if p != bad]
        reference = _medline_engine().run(
            api.Source.from_paths(healthy), binary=True
        )
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(paths),
            binary=True,
            on_error="collect",
        )
        assert not run.ok
        assert run.outputs == reference.outputs
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.name == bad
        assert failure.attempts == 1  # not transient: no retry spent
        assert isinstance(failure.cause, ReproError)

    def test_collect_with_retry_does_not_burn_retries_on_poison(
        self, poisoned_corpus
    ):
        paths, bad = poisoned_corpus
        started = time.monotonic()
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(paths),
            binary=True,
            on_error="collect",
            retry=RetryPolicy(retries=4, backoff=0.5),
        )
        elapsed = time.monotonic() - started
        assert [f.name for f in run.failures] == [bad]
        assert run.failures[0].attempts == 1
        # A deterministic failure must not sleep through the backoff ladder.
        assert elapsed < 0.5 * (1 + 2 + 4 + 8)

    def test_skip_drops_poisoned_documents(self, poisoned_corpus):
        paths, bad = poisoned_corpus
        healthy = [p for p in paths if p != bad]
        reference = _medline_engine().run(
            api.Source.from_paths(healthy), binary=True
        )
        run = _medline_engine(mode="parallel", jobs=2).run(
            api.Source.from_paths(paths), binary=True, on_error="skip"
        )
        assert run.ok  # skip records nothing
        assert run.outputs == reference.outputs
        assert [d.name for d in run.documents] == healthy

    def test_raise_names_the_poisoned_document(self, poisoned_corpus):
        paths, bad = poisoned_corpus
        with pytest.raises(ReproError) as excinfo:
            _medline_engine(mode="parallel", jobs=2).run(
                api.Source.from_paths(paths), binary=True
            )
        assert bad in str(excinfo.value)

    def test_policies_apply_in_process_too(self, poisoned_corpus):
        """jobs=1 (no pool) honours the same on_error semantics."""
        paths, bad = poisoned_corpus
        healthy = [p for p in paths if p != bad]
        reference = _medline_engine().run(
            api.Source.from_paths(healthy), binary=True
        )
        run = _medline_engine().run(
            api.Source.from_paths(paths), binary=True, on_error="collect"
        )
        assert run.outputs == reference.outputs
        assert [f.name for f in run.failures] == [bad]
        skipped = _medline_engine().run(
            api.Source.from_paths(paths), binary=True, on_error="skip"
        )
        assert skipped.outputs == reference.outputs

    def test_unknown_policy_rejected(self, medline_corpus):
        with pytest.raises(ReproError):
            _medline_engine(mode="parallel", jobs=2).run(
                api.Source.from_paths(medline_corpus),
                binary=True,
                on_error="explode",
            )

    def test_single_document_run_rejects_corpus_policies(self, medline_corpus):
        with pytest.raises(ReproError):
            _medline_engine().run(
                api.Source.from_file(medline_corpus[0]),
                binary=True,
                on_error="collect",
            )


# ----------------------------------------------------------------------
# Deadlines: hung workers are killed, documents resubmitted
# ----------------------------------------------------------------------
class TestDeadline:
    def test_hung_worker_killed_and_document_recovered(self, medline_corpus):
        # A *probabilistic* hang rate: a respawned worker draws a fresh RNG
        # stream, so rate 1.0 would hang every replacement too and make the
        # corpus unrecoverable by construction.  At 0.4 the resubmissions
        # eventually land on a non-hanging draw.
        paths = medline_corpus[:4]
        reference = _medline_engine().run(
            api.Source.from_paths(paths), binary=True
        )
        plan = FaultPlan(
            seed=7, worker_hang=0.4, hang_seconds=60.0, max_triggers=1
        )
        with faults.injected(plan):
            run = _medline_engine(mode="parallel", jobs=2).run(
                api.Source.from_paths(paths),
                binary=True,
                retry=RetryPolicy(retries=6, backoff=0.01),
                deadline=1.5,
            )
        assert run.outputs == reference.outputs

    def test_deadline_exhaustion_raises_transient_error(self, medline_corpus):
        paths = medline_corpus[:2]
        plan = FaultPlan(seed=7, worker_hang=1.0, hang_seconds=60.0)
        with faults.injected(plan):
            with pytest.raises(parallel.ParallelExecutionError) as excinfo:
                _medline_engine(mode="parallel", jobs=2).run(
                    api.Source.from_paths(paths),
                    binary=True,
                    retry=RetryPolicy(retries=1, backoff=0.01),
                    deadline=0.5,
                )
        assert "deadline" in str(excinfo.value)


# ----------------------------------------------------------------------
# Teardown escalation: join -> terminate -> kill
# ----------------------------------------------------------------------
class TestTeardownEscalation:
    def test_close_reclaims_sigterm_ignoring_workers(self, medline_corpus):
        engine = _medline_engine()
        plan = FaultPlan(seed=0, worker_hang=1.0, hang_seconds=3600.0)
        with faults.injected(plan):
            pool = parallel.WorkerPool(engine, 2, shutdown_timeout=0.5)
        try:
            # Both workers pick up a document and hang with SIGTERM ignored.
            for path in medline_corpus[:2]:
                pool.submit_document(path, ("path", path, None))
            deadline = time.monotonic() + 5.0
            processes = [w.process for w in pool._workers]
            while time.monotonic() < deadline and not all(
                p.is_alive() for p in processes
            ):
                time.sleep(0.05)
            started = time.monotonic()
        finally:
            pool.close()
        elapsed = time.monotonic() - started
        assert elapsed < 15.0, "teardown escalation took too long"
        assert all(not p.is_alive() for p in processes)

    def test_terminate_is_idempotent_after_close(self):
        pool = parallel.WorkerPool(_medline_engine(), 1)
        pool.close()
        pool.terminate()  # must not raise
        pool.close()


# ----------------------------------------------------------------------
# RetryPolicy semantics
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(retries=5, backoff=0.05, multiplier=2.0,
                             max_backoff=0.15)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.15)  # capped
        assert policy.delay(4) == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_zero_retries_fail_fast(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_bytes(b"<a>" + b"x" * 256 + b"</a>")
        plan = FaultPlan(seed=1, io_error=1.0)
        with faults.injected(plan):
            with pytest.raises(SourceError) as excinfo:
                list(file_chunks(str(path), 64,
                                 retry=RetryPolicy(retries=0)))
        assert excinfo.value.attempts == 1


# ----------------------------------------------------------------------
# SourceError wrapping: offsets, transience, recovery
# ----------------------------------------------------------------------
class TestSourceFaults:
    @pytest.fixture()
    def document(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_bytes(b"<a>" + b"x" * 500 + b"</a>")
        return str(path)

    def test_unrecoverable_read_raises_source_error_at_offset_zero(
        self, document
    ):
        plan = FaultPlan(seed=3, io_error=1.0)
        with faults.injected(plan):
            with pytest.raises(SourceError) as excinfo:
                list(file_chunks(document, 64))
        error = excinfo.value
        assert error.offset == 0
        assert error.transient is True
        assert isinstance(error.__cause__, OSError)
        assert "at byte 0" in str(error)

    def test_offset_tracks_bytes_already_delivered(self, document):
        chunks = file_chunks(document, 64)
        assert len(next(chunks)) == 64
        assert len(next(chunks)) == 64
        with faults.injected(FaultPlan(seed=3, io_error=1.0)):
            with pytest.raises(SourceError) as excinfo:
                next(chunks)
        assert excinfo.value.offset == 128

    def test_retry_recovers_bounded_injection(self, document):
        with open(document, "rb") as handle:
            expected = handle.read()
        plan = FaultPlan(seed=3, io_error=1.0, max_triggers=2)
        with faults.injected(plan):
            data = b"".join(
                file_chunks(document, 64,
                            retry=RetryPolicy(retries=3, backoff=0.0))
            )
        assert data == expected

    def test_retry_exhaustion_counts_attempts(self, document):
        plan = FaultPlan(seed=3, io_error=1.0)
        with faults.injected(plan):
            with pytest.raises(SourceError) as excinfo:
                list(file_chunks(document, 64,
                                 retry=RetryPolicy(retries=2, backoff=0.0)))
        assert excinfo.value.attempts == 3  # 1 try + 2 retries

    def test_socket_reset_wrapped_and_recovered(self):
        left, right = socket.socketpair()
        try:
            payload = b"<a>" + b"y" * 300 + b"</a>"
            left.sendall(payload)
            left.close()
            plan = FaultPlan(seed=11, socket_reset=1.0, max_triggers=1)
            with faults.injected(plan):
                data = b"".join(
                    socket_chunks(right, 64,
                                  retry=RetryPolicy(retries=2, backoff=0.0))
                )
            assert data == payload
        finally:
            right.close()

    def test_socket_reset_without_retry_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"<a></a>")
            left.close()
            with faults.injected(FaultPlan(seed=11, socket_reset=1.0)):
                with pytest.raises(SourceError) as excinfo:
                    list(socket_chunks(right, 64))
            assert excinfo.value.transient is True
            assert isinstance(excinfo.value.__cause__, ConnectionResetError)
        finally:
            right.close()

    def test_engine_run_survives_io_faults_with_source_retry(self, document):
        engine = _medline_engine(queries=("M2",))
        dtd_doc = generate_medline_document(citations=4, seed=9)
        medline_path = document + ".medline.xml"
        with open(medline_path, "w", encoding="utf-8") as handle:
            handle.write(dtd_doc)
        reference = engine.run(
            api.Source.from_file(medline_path), binary=True
        )
        plan = FaultPlan(seed=5, io_error=0.5, max_triggers=4)
        with faults.injected(plan):
            run = engine.run(
                api.Source.from_file(
                    medline_path, chunk_size=256,
                    retry=RetryPolicy(retries=6, backoff=0.0),
                ),
                binary=True,
            )
        assert run.outputs == reference.outputs


# ----------------------------------------------------------------------
# Deterministic corruption helpers
# ----------------------------------------------------------------------
class TestCorruptionHelpers:
    DATA = b"<record>the quick brown fox</record>"

    def test_flip_bits_deterministic_same_length(self):
        damaged = faults.flip_bits(self.DATA, seed=4, flips=3)
        assert damaged == faults.flip_bits(self.DATA, seed=4, flips=3)
        assert damaged != self.DATA
        assert len(damaged) == len(self.DATA)

    def test_truncate_strict_prefix(self):
        shorter = faults.truncate(self.DATA, seed=4)
        assert shorter == faults.truncate(self.DATA, seed=4)
        assert len(shorter) < len(self.DATA)
        assert self.DATA.startswith(shorter)

    def test_inject_garbage_grows_by_length(self):
        grown = faults.inject_garbage(self.DATA, seed=4, length=8)
        assert grown == faults.inject_garbage(self.DATA, seed=4, length=8)
        assert len(grown) == len(self.DATA) + 8

    def test_delay_chunks_passthrough(self):
        chunks = [b"a", b"b", b"c"]
        assert list(faults.delay_chunks(chunks, seconds=0.0)) == chunks


# ----------------------------------------------------------------------
# Accel degrade: warn once, record in statistics
# ----------------------------------------------------------------------
class TestAccelDegrade:
    @pytest.fixture()
    def no_accel(self, monkeypatch):
        from repro.core import multi, runtime

        monkeypatch.setattr(runtime, "load_accel", lambda: None)
        monkeypatch.setattr(multi, "load_accel", lambda: None)
        runtime.reset_accel_degrade_warning()
        yield
        runtime.reset_accel_degrade_warning()

    def test_explicit_accel_warns_once_and_flags_stats(self, no_accel):
        from repro import SmpPrefilter

        plan = SmpPrefilter.compile_for_query(
            medline_dtd(), MEDLINE_QUERIES["M2"], backend="native"
        )
        document = generate_medline_document(citations=2, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = plan.session(delivery="accel")
            first.feed(document)
            first.finish()
            second = plan.session(delivery="accel")
            second.feed(document)
            second.finish()
        degrade_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "accel" in str(w.message)
        ]
        assert len(degrade_warnings) == 1
        assert first.stats.accel_degraded == 1
        assert second.stats.accel_degraded == 1
        assert "accel_degraded" not in first.stats.as_dict()

    def test_default_delivery_never_warns_or_flags(self, no_accel):
        from repro import SmpPrefilter

        plan = SmpPrefilter.compile_for_query(
            medline_dtd(), MEDLINE_QUERIES["M2"], backend="native"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = plan.session()
            session.feed("<MedlineCitationSet></MedlineCitationSet>")
            session.finish()
        assert not [w for w in caught if "accel" in str(w.message)]
        assert session.stats.accel_degraded == 0

    def test_degrade_count_survives_merge(self):
        total = RunStatistics()
        degraded = RunStatistics(accel_degraded=1)
        total.merge(degraded)
        total.merge(degraded)
        assert total.accel_degraded == 2
