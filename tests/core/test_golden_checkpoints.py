"""Golden v1 checkpoint files: the on-disk snapshot encoding stays readable.

Every other checkpoint test restores a snapshot that the same build just
wrote, so a change that alters the encoding on both sides would pass them
and still break files already on disk.  The files under ``data/`` were
written once by an older build (``data/write_golden_checkpoints.py``) and
are only ever read here.  Each is restored, fed the rest of its document,
and must reproduce the output bytes and the 11 statistics of an
uninterrupted whole-document ``batched`` run.
"""

from __future__ import annotations

import os

import pytest

from repro import api
from repro.accel import accel_available
from repro.checkpoint import read_checkpoint
from repro.core.multi import MultiQueryEngine
from repro.core.prefilter import SmpPrefilter
from repro.dtd.model import Dtd
from repro.workloads.fuzz import STATS_FIELDS
from repro.workloads.medline import MEDLINE_QUERIES
from repro.workloads.medline.dtd import medline_dtd

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

QUOTE_DTD = """<!DOCTYPE doc [
<!ELEMENT doc (item+, tail)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item note CDATA #IMPLIED>
<!ELEMENT tail (#PCDATA)>
<!ATTLIST tail k CDATA #IMPLIED>
]>"""

SINGLE_FILES = [
    *(f"single_batched_phase{phase}.ckpt" for phase in range(5)),
    *(f"single_accel_cphase{phase}.ckpt" for phase in range(1, 5)),
    "single_pertoken_search.ckpt",
]

def _stats_tuple(stats):
    return tuple(getattr(stats, name) for name in STATS_FIELDS)


def _document(fixture) -> bytes:
    with open(os.path.join(DATA, fixture["document"]), "rb") as handle:
        return handle.read()


def _plan(fixture) -> SmpPrefilter:
    if fixture["dtd"] == "quote":
        return SmpPrefilter.compile(
            Dtd.parse(QUOTE_DTD), fixture["paths"], backend="native"
        )
    return SmpPrefilter.cached_for_query(
        medline_dtd(), MEDLINE_QUERIES[fixture["query"]], backend="native"
    )


def _restore_deliveries(snapshot: dict) -> "list[str]":
    """Token-boundary snapshots restore into either delivery; the rest
    into the delivery that captured them (legacy per-token ones into
    ``batched``)."""
    state = snapshot["state"]
    if state["phase"] == 0:
        return ["batched", "accel"]
    if state["delivery"] == "pertoken":
        return ["batched"]
    return [state["delivery"]]


@pytest.mark.parametrize("name", SINGLE_FILES)
def test_single_query_golden_checkpoint_restores(name):
    snapshot = read_checkpoint(os.path.join(DATA, name))
    fixture = snapshot["fixture"]
    binary = fixture["binary"]
    data = _document(fixture)
    if not binary:
        data = data.decode("utf-8")
    plan = _plan(fixture)
    reference = plan.session(binary=binary, delivery="batched").run([data])
    assert reference.output, "vacuous fixture: empty projection"
    for delivery in _restore_deliveries(snapshot):
        if delivery == "accel" and not accel_available():
            continue
        offset = snapshot["input_offset"]
        # Replay the rest in 1-byte and in one whole feed.
        for pieces in ([data[i:i + 1] for i in range(offset, len(data))],
                       [data[offset:]]):
            resumed = plan.session(binary=binary, delivery=delivery)
            resumed.import_state(snapshot["state"])
            tail = [resumed.feed(piece) for piece in pieces]
            tail.append(resumed.finish())
            output = snapshot["head"] + type(snapshot["head"])().join(tail)
            assert output == reference.output, (name, delivery)
            assert (_stats_tuple(resumed.stats)
                    == _stats_tuple(reference.stats)), (name, delivery)


def _shared_reference(fixture, data, queries, late):
    """Uninterrupted live run with the same attach point, plus the
    whole-document single-query runs of the base queries."""
    engine = api.Engine(queries)
    session = engine.open(binary=True, live=True)
    pieces = [[] for _ in range(len(queries) + 1)]
    for index, piece in enumerate(session.feed(data[:fixture["attach_after"]])):
        pieces[index].append(piece)
    session.attach(late, label="late")
    for index, piece in enumerate(session.feed(data[fixture["attach_after"]:])):
        pieces[index].append(piece)
    for index, piece in enumerate(session.finish()):
        pieces[index].append(piece)
    return [b"".join(parts) for parts in pieces], list(session.stats)


def test_shared_golden_checkpoint_restores_with_attach():
    path = os.path.join(DATA, "shared_attach.ckpt")
    snapshot = read_checkpoint(path)
    fixture = snapshot["fixture"]
    data = _document(fixture)
    dtd = medline_dtd()
    queries = [
        api.Query.from_spec(dtd, MEDLINE_QUERIES[name], backend="native")
        for name in fixture["queries"]
    ]
    late = api.Query.from_spec(
        dtd, MEDLINE_QUERIES[fixture["attach"]], backend="native",
        label="late",
    )
    outputs, stats = _shared_reference(fixture, data, queries, late)
    for index, query in enumerate(queries):
        single = query.plan().session(binary=True, delivery="batched")
        assert outputs[index] == single.run([data]).output
    # A query attached mid-document never sees the root it starts from, so
    # its projection is empty; the base queries' must not be.
    assert all(outputs[:-1]), "vacuous fixture: empty projection"
    offset = snapshot["input_offset"]

    resumed = api.Engine(queries).open(live=True, resume=path)
    assert [handle.label for handle in resumed.handles][-1] == "late"
    tails = [[] for _ in outputs]
    for index, piece in enumerate(resumed.feed(data[offset:])):
        tails[index].append(piece)
    for index, piece in enumerate(resumed.finish()):
        tails[index].append(piece)
    for index, expected in enumerate(outputs):
        assert snapshot["head"][index] + b"".join(tails[index]) == expected
        assert _stats_tuple(resumed.stats[index]) == _stats_tuple(stats[index])

    # The shared snapshot is delivery-independent: both deliveries resume.
    for delivery in ("batched", "accel"):
        if delivery == "accel" and not accel_available():
            continue
        engine = MultiQueryEngine(dtd, [query.plan() for query in queries])
        session = engine.session(binary=True, delivery=delivery)
        session.attach(late.plan(), label="late")
        session.import_state(snapshot["state"])
        tails = [[] for _ in outputs]
        for step in range(offset, len(data), 97):
            for index, piece in enumerate(session.feed(data[step:step + 97])):
                tails[index].append(piece)
        for index, piece in enumerate(session.finish()):
            tails[index].append(piece)
        for index, expected in enumerate(outputs):
            joined = snapshot["head"][index] + b"".join(tails[index])
            assert joined == expected, (delivery, index)
            assert (_stats_tuple(session.stats[index])
                    == _stats_tuple(stats[index])), (delivery, index)
