"""Pipelining SMP prefiltering with a streaming XPath engine (MEDLINE).

The paper's Figure 7(b) pipes SMP output directly into the SPEX streaming
XPath evaluator and observes that the pipeline runs at nearly the speed of
prefiltering alone.  This example replays that experiment on the synthetic
MEDLINE workload: every Table II query M1-M5 is evaluated by the streaming
engine once on the raw document ("alone") and once on its SMP projection
("SMP + evaluate"); both must return identical results.

Run with::

    python examples/medline_streaming_pipeline.py [--citations 3000]
"""

from __future__ import annotations

import argparse
import time

from repro import api
from repro.workloads.medline import MEDLINE_QUERIES, MEDLINE_QUERY_ORDER, \
    generate_medline_document, medline_dtd
from repro.xpath import StreamingXPathEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--citations", type=int, default=3000,
                        help="number of MEDLINE citation records to generate")
    arguments = parser.parse_args()

    print(f"generating a MEDLINE-like document with {arguments.citations} citations ...")
    document = generate_medline_document(citations=arguments.citations)
    dtd = medline_dtd()
    size_mb = len(document) / 1_000_000
    print(f"document size: {size_mb:.2f} MB\n")

    header = (
        f"{'query':<4} {'results':>8} {'alone s':>9} {'smp s':>7} "
        f"{'pipeline s':>11} {'alone MB/s':>11} {'pipeline MB/s':>14}"
    )
    print(header)
    print("-" * len(header))

    for name in MEDLINE_QUERY_ORDER:
        spec = MEDLINE_QUERIES[name]
        engine = StreamingXPathEngine(spec.query)
        prefilter_engine = api.Engine(
            api.Query.from_spec(dtd, spec, backend="native")
        )

        start = time.perf_counter()
        alone_results = engine.evaluate(document)
        alone_seconds = time.perf_counter() - start

        start = time.perf_counter()
        projected = prefilter_engine.run(
            api.Source.from_text(document)
        ).single.output
        smp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        piped_results = engine.evaluate(projected)
        pipeline_seconds = smp_seconds + (time.perf_counter() - start)

        def rendered(items):
            return sorted(
                item.serialize() if hasattr(item, "serialize") else str(item)
                for item in items
            )

        assert rendered(alone_results) == rendered(piped_results)
        print(
            f"{name:<4} {len(piped_results):>8} {alone_seconds:>9.3f} {smp_seconds:>7.3f} "
            f"{pipeline_seconds:>11.3f} "
            f"{size_mb / alone_seconds:>11.2f} "
            f"{size_mb / pipeline_seconds:>14.2f}"
        )

    print("\nevery query returned identical results with and without prefiltering")


if __name__ == "__main__":
    main()
