"""A feed boundary inside a quoted attribute value resumes exactly.

Frontier tags with attributes make the end-of-tag scan skip quoted values
(a ``>`` inside one must not end the tag).  When the window ends inside
such a value the scan suspends (the pure loop's ``_PH_QUOTE`` phase, the C
kernel's ``PH_QUOTE``) and resumes on the next feed.  Every 2-way split and
1-byte feeds of a document whose values hide ``>``, ``"`` and ``'`` must
give the whole-document output and statistics, in single-query and shared
sessions, under both deliveries.
"""

from __future__ import annotations

import pytest

from repro.accel import accel_available
from repro.core.multi import MultiQueryEngine
from repro.core.prefilter import SmpPrefilter
from repro.core.runtime import DELIVERIES
from repro.dtd.model import Dtd
from repro.workloads.fuzz import STATS_FIELDS, STRUCTURAL_FIELDS

DTD = Dtd.parse("""<!DOCTYPE doc [
<!ELEMENT doc (item+, tail)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item note CDATA #IMPLIED>
<!ELEMENT tail (#PCDATA)>
<!ATTLIST tail k CDATA #IMPLIED>
]>""")

DOCUMENT = (
    b'<doc><item note="a>b">x</item><item note=\'c>"d\'>y</item>'
    b'<tail k="1>2>3">t</tail></doc>'
)

PATHS = (["/doc/item", "/doc/tail#"], ["/doc/tail#"])

DELIVERY_LIST = DELIVERIES if accel_available() else ("batched",)


def _feedings():
    """Every 2-way split, plus 1-byte feeds."""
    for cut in range(len(DOCUMENT) + 1):
        yield f"split{cut}", [DOCUMENT[:cut], DOCUMENT[cut:]]
    yield "bytes", [DOCUMENT[i:i + 1] for i in range(len(DOCUMENT))]


def _fields(stats, names):
    return tuple(getattr(stats, name) for name in names)


@pytest.fixture(scope="module")
def plans():
    return [SmpPrefilter.compile(DTD, paths, backend="native")
            for paths in PATHS]


@pytest.fixture(scope="module")
def references(plans):
    runs = [plan.session(binary=True, delivery="batched").run([DOCUMENT])
            for plan in plans]
    assert all(run.output for run in runs)
    return runs


@pytest.mark.parametrize("delivery", DELIVERY_LIST)
def test_single_query_resumes_inside_quoted_values(
    plans, references, delivery
):
    for plan, reference in zip(plans, references):
        for name, pieces in _feedings():
            session = plan.session(binary=True, delivery=delivery)
            output = b"".join(session.feed(piece) for piece in pieces)
            output += session.finish()
            assert output == reference.output, (name, delivery)
            assert (_fields(session.stats, STATS_FIELDS)
                    == _fields(reference.stats, STATS_FIELDS)), name


@pytest.mark.parametrize("delivery", DELIVERY_LIST)
def test_shared_session_resumes_inside_quoted_values(
    plans, references, delivery
):
    engine = MultiQueryEngine(DTD, plans)
    for name, pieces in _feedings():
        session = engine.session(binary=True, delivery=delivery)
        outputs = [[] for _ in plans]
        for piece in pieces:
            for index, emitted in enumerate(session.feed(piece)):
                outputs[index].append(emitted)
        for index, emitted in enumerate(session.finish()):
            outputs[index].append(emitted)
        for index, reference in enumerate(references):
            assert b"".join(outputs[index]) == reference.output, (name, index)
            assert (_fields(session.stats[index], STRUCTURAL_FIELDS)
                    == _fields(reference.stats, STRUCTURAL_FIELDS)), name


def test_pure_loop_suspends_inside_a_quoted_value(plans):
    """The 1-byte feeds above really do stop inside a quoted value."""
    session = plans[0].session(binary=True, delivery="batched")
    phases = set()
    for offset in range(len(DOCUMENT)):
        session.feed(DOCUMENT[offset:offset + 1])
        phases.add(session.export_state()["phase"])
    assert phases == {0, 1, 2, 3, 4}
