"""Malformed-input properties: corrupted documents fail safely everywhere.

The robustness property behind the fault-injection harness's corruption
helpers (:func:`repro.faults.flip_bits` / :func:`~repro.faults.truncate` /
:func:`~repro.faults.inject_garbage`): whatever deterministic damage is
done to a document, the filter must never hang, never emit bytes a clean
run would not emit, and must fail with a :class:`~repro.errors.ReproError`
whose position (when it carries one) lies inside the input.  The outcome
-- projected bytes on success, error class on failure -- must further be
*identical* to the whole-document ``batched`` run across every token-event
delivery mode, every matcher backend and every chunking, from 1-byte feeds
to 64 KiB streaming chunks.  Shared multi-query sessions must match the
whole-document shared ``batched`` run the same way, error message included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import SmpPrefilter, faults
from repro.accel import accel_available
from repro.core.multi import MultiQueryEngine
from repro.core.runtime import DELIVERIES
from repro.errors import ReproError, XmlSyntaxError
from repro.matching.factory import available_backends
from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd
from repro.workloads.medline.generator import generate_medline_document

BACKENDS = tuple(available_backends())

#: 1-byte feeds (worst-case suspension), odd mid-keyword sizes, and the
#: large streaming sizes up to 64 KiB.
CHUNKINGS = ([1], [17, 63], [4096], [65536])


def _deliveries() -> tuple[str, ...]:
    return DELIVERIES if accel_available() else ("batched",)


def _corrupt(data: bytes, corruption: str, seed: int) -> bytes:
    if corruption == "flip":
        return faults.flip_bits(data, seed=seed, flips=1 + seed % 4)
    if corruption == "truncate":
        return faults.truncate(data, seed=seed)
    return faults.inject_garbage(data, seed=seed, length=1 + seed % 16)


def _feed_all(session, data: bytes, sizes, rng):
    """Feed ``data`` in random ``sizes`` pieces; ('ok', bytes) or ('err', type)."""
    out = []
    position = 0
    try:
        while position < len(data):
            size = rng.choice(sizes)
            out.append(session.feed(data[position:position + size]))
            position += size
        out.append(session.finish())
    except ReproError as error:
        return ("err", type(error))
    return ("ok", b"".join(out))


@pytest.fixture(scope="module")
def plans():
    """One compiled prefilter per backend (compilation dominates runtime)."""
    dtd = medline_dtd()
    return {
        backend: SmpPrefilter.compile_for_query(
            dtd, MEDLINE_QUERIES["M2"], backend=backend
        )
        for backend in BACKENDS
    }


@pytest.fixture(scope="module")
def base_document() -> bytes:
    return generate_medline_document(citations=6, seed=77).encode("utf-8")


class TestCorruptedDocumentsAcrossDeliveries:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        corruption=st.sampled_from(("flip", "truncate", "garbage")),
    )
    def test_outcome_identical_across_deliveries_and_chunkings(
        self, plans, base_document, seed, corruption
    ):
        damaged = _corrupt(base_document, corruption, seed)
        plan = plans["native"]
        reference = _feed_all(
            plan.session(binary=True, delivery="batched"), damaged,
            [max(1, len(damaged))], random.Random(seed),
        )
        outcomes = []
        for delivery in _deliveries():
            for sizes in CHUNKINGS:
                session = plan.session(binary=True, delivery=delivery)
                outcomes.append(
                    _feed_all(session, damaged, sizes, random.Random(seed))
                )
        assert all(outcome == reference for outcome in outcomes), (
            corruption, seed, reference[0], {o[0] for o in outcomes}
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        corruption=st.sampled_from(("flip", "truncate", "garbage")),
    )
    def test_outcome_identical_across_backends(
        self, plans, base_document, seed, corruption
    ):
        damaged = _corrupt(base_document, corruption, seed)
        outcomes = {}
        for backend, plan in plans.items():
            session = plan.session(binary=True, delivery="batched")
            outcomes[backend] = _feed_all(
                session, damaged, [4096], random.Random(seed)
            )
        values = list(outcomes.values())
        assert all(value == values[0] for value in values), outcomes

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_truncated_document_never_emits_beyond_clean_prefix(
        self, plans, base_document, seed
    ):
        """Whatever a truncated run emits, a clean run emitted it too."""
        plan = plans["native"]
        full = plan.session(binary=True)
        reference = full.feed(base_document) + full.finish()

        damaged = faults.truncate(base_document, seed=seed)
        session = plan.session(binary=True)
        outcome = _feed_all(session, damaged, [257], random.Random(seed))
        if outcome[0] == "ok":
            assert reference.startswith(outcome[1]) or outcome[1] == b""


def _feed_all_shared(session, data: bytes, sizes, rng):
    """Shared-session twin of :func:`_feed_all`: ('ok', per-query bytes)
    or ('err', type, message)."""
    pieces = [[] for _ in session.stats]
    position = 0
    try:
        while position < len(data):
            size = rng.choice(sizes)
            emitted = session.feed(data[position:position + size])
            for index, piece in enumerate(emitted):
                pieces[index].append(piece)
            position += size
        for index, piece in enumerate(session.finish()):
            pieces[index].append(piece)
    except ReproError as error:
        return ("err", type(error), str(error))
    return ("ok", tuple(b"".join(parts) for parts in pieces))


@pytest.fixture(scope="module")
def shared_engine():
    dtd = medline_dtd()
    return MultiQueryEngine(
        dtd, [MEDLINE_QUERIES[name] for name in ("M2", "M3", "M5")]
    )


class TestCorruptedDocumentsInSharedSessions:
    """The shared scan (pure union loop and ``step_events``, including its
    unclosed-tag and bail-to-Python exits) fails exactly like the pure
    whole-document shared run, error message included."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        corruption=st.sampled_from(("flip", "truncate", "garbage")),
    )
    def test_outcome_identical_across_deliveries_and_chunkings(
        self, shared_engine, base_document, seed, corruption
    ):
        damaged = _corrupt(base_document, corruption, seed)
        reference = _feed_all_shared(
            shared_engine.session(binary=True, delivery="batched"), damaged,
            [max(1, len(damaged))], random.Random(seed),
        )
        for delivery in _deliveries():
            for sizes in CHUNKINGS:
                session = shared_engine.session(binary=True, delivery=delivery)
                outcome = _feed_all_shared(
                    session, damaged, sizes, random.Random(seed)
                )
                assert outcome == reference, (
                    corruption, seed, delivery, sizes, outcome[0],
                    reference[0],
                )

    @pytest.mark.parametrize("damage", ["unclosed", "bachelor", "quoted"])
    def test_targeted_damage_fails_identically(
        self, shared_engine, base_document, damage
    ):
        """Random damage rarely lands in a subscribed tag; these do.  An
        unclosed tag at end of input, and a bachelor open whose close
        transition does not exist (the kernel's bail to Python)."""
        citation = base_document.index(b"<MedlineCitation ")
        head, rest = base_document[:citation], base_document[citation:]
        damaged = {
            "unclosed": base_document[:citation + 20],
            "bachelor": head + b"<MedlineCitation/>" + rest,
            "quoted": head + b'<MedlineCitation Status="x/>y"/>' + rest,
        }[damage]
        reference = _feed_all_shared(
            shared_engine.session(binary=True, delivery="batched"), damaged,
            [len(damaged)], random.Random(0),
        )
        assert reference[0] == "err"
        for delivery in _deliveries():
            for sizes in CHUNKINGS:
                session = shared_engine.session(binary=True, delivery=delivery)
                outcome = _feed_all_shared(
                    session, damaged, sizes, random.Random(1)
                )
                assert outcome == reference, (damage, delivery, sizes)


class TestTokenizerPositions:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        corruption=st.sampled_from(("flip", "truncate", "garbage")),
    )
    def test_syntax_error_position_inside_input(
        self, base_document, seed, corruption
    ):
        from repro.xml.tokenizer import tokenize

        damaged = _corrupt(base_document, corruption, seed)
        text = damaged.decode("utf-8", "replace")
        try:
            tokenize(text)
        except XmlSyntaxError as error:
            if error.position is not None:
                assert 0 <= error.position <= len(text)
