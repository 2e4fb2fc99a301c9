"""Write the golden v1 checkpoint files that ``test_golden_checkpoints.py``
restores.

The files pin the on-disk snapshot encoding: they were written once, by an
older build, and the test only ever reads them, so a change that alters the
encoding on both the writing and the reading side still fails there.  Do
not rerun this script to make that test pass; a deliberate format change
bumps ``CHECKPOINT_VERSION`` instead.

Usage (from the repository root, against the build that should write)::

    PYTHONPATH=src python tests/core/data/write_golden_checkpoints.py

Every file holds one ``write_checkpoint`` payload: ``state`` (the
snapshot), ``input_offset`` (bytes fed before it), ``head`` (output
returned before it) and ``fixture`` (how to rebuild the run: document,
DTD, query paths, delivery, output mode).
"""

from __future__ import annotations

import os

from repro import api
from repro.checkpoint import write_checkpoint
from repro.core.prefilter import SmpPrefilter
from repro.dtd.model import Dtd
from repro.workloads.medline import MEDLINE_QUERIES, generate_medline_document
from repro.workloads.medline.dtd import medline_dtd

HERE = os.path.dirname(os.path.abspath(__file__))

QUOTE_DTD = """<!DOCTYPE doc [
<!ELEMENT doc (item+, tail)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item note CDATA #IMPLIED>
<!ELEMENT tail (#PCDATA)>
<!ATTLIST tail k CDATA #IMPLIED>
]>"""
QUOTE_PATHS = ["/doc/item", "/doc/tail#"]


def _write(name: str, fixture: dict, offset: int, head, state: dict) -> None:
    write_checkpoint(os.path.join(HERE, name), {
        "fixture": fixture, "input_offset": offset, "head": head,
        "state": state,
    })
    print(f"wrote {name} ({fixture})")


def _single(plan, data, delivery, binary, wanted, name, fixture, after,
            label=None):
    """One-byte feeds; write the first snapshot past ``after`` bytes whose
    phase is ``wanted`` (the pure loop's phase, or the C kernel's)."""
    session = plan.session(binary=binary, delivery=delivery)
    head = b"" if binary else ""
    for offset in range(len(data)):
        head += session.feed(data[offset:offset + 1])
        state = session.export_state()
        key = state["c"][0] if delivery == "accel" else state["phase"]
        in_kernel = delivery != "accel" or state["phase"] == 1
        if offset >= after and key == wanted and in_kernel:
            if label is not None:
                state = dict(state, delivery=label)
            _write(name, fixture, offset + 1, head, state)
            return
    raise SystemExit(f"{name}: phase {wanted} never reached")


def main() -> None:
    quote = open(os.path.join(HERE, "quote.xml"), "rb").read()
    # Phases 1 and 2 are taken inside the open <tail> copy region, 3 and
    # 4 (inside a quoted value) inside the <tail ...> tag itself.
    starts = {3: quote.index(b"<tail"), 4: quote.index(b"<tail")}
    inside = quote.index(b">t</tail")
    plan = SmpPrefilter.compile(Dtd.parse(QUOTE_DTD), QUOTE_PATHS,
                                backend="native")
    for phase in range(5):
        fixture = {"document": "quote.xml", "dtd": "quote",
                   "paths": QUOTE_PATHS, "delivery": "batched",
                   "binary": True}
        _single(plan, quote, "batched", True, phase,
                f"single_batched_phase{phase}.ckpt", fixture,
                starts.get(phase, inside))
    for c_phase in range(1, 5):
        fixture = {"document": "quote.xml", "dtd": "quote",
                   "paths": QUOTE_PATHS, "delivery": "accel",
                   "binary": True}
        _single(plan, quote, "accel", True, c_phase,
                f"single_accel_cphase{c_phase}.ckpt", fixture,
                starts.get(c_phase, inside))

    medline = open(os.path.join(HERE, "medline.xml"), "rb").read()
    dtd = medline_dtd()
    m2 = MEDLINE_QUERIES["M2"]
    plan = SmpPrefilter.compile_for_query(dtd, m2, backend="native")
    fixture = {"document": "medline.xml", "dtd": "medline",
               "query": "M2", "delivery": "batched", "binary": False}
    # Text mode, so the decoder state rides along too.
    _single(plan, medline.decode("utf-8"), "batched", False, 1,
            "single_pertoken_search.ckpt", fixture, len(medline) // 2,
            label="pertoken")

    engine = api.Engine([
        api.Query.from_spec(dtd, MEDLINE_QUERIES[name], backend="native")
        for name in ("M2", "M5")
    ])
    late = api.Query.from_spec(dtd, MEDLINE_QUERIES["M3"], backend="native",
                               label="late")
    cut, stop = len(medline) // 3, len(medline) // 2
    session = engine.open(binary=True, live=True)
    heads = [b""] * 3
    for index, piece in enumerate(session.feed(medline[:cut])):
        heads[index] += piece
    session.attach(late, label="late")
    for index, piece in enumerate(session.feed(medline[cut:stop])):
        heads[index] += piece
    checkpoint = session.checkpoint()
    session.close()
    snapshot = dict(checkpoint.snapshot)
    snapshot["fixture"] = {"document": "medline.xml", "dtd": "medline",
                           "queries": ["M2", "M5"], "attach": "M3",
                           "attach_after": cut, "binary": True}
    snapshot["head"] = heads
    write_checkpoint(os.path.join(HERE, "shared_attach.ckpt"), snapshot)
    print("wrote shared_attach.ckpt")


if __name__ == "__main__":
    if not os.path.exists(os.path.join(HERE, "medline.xml")):
        with open(os.path.join(HERE, "medline.xml"), "wb") as handle:
            handle.write(
                generate_medline_document(citations=4, seed=3).encode("utf-8")
            )
    main()
