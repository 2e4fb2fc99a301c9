"""Workload generation and differential fuzzing end to end.

Part 1 resolves a generated workload address (``workloads.get("gen:...")``),
shows the schema it denotes (the DTD), the deterministic record stream,
and the matched query set with its satisfiable/control split.

Part 2 runs one generated query through the full differential matrix by
hand -- whole-document vs adversarially chunked per delivery tier -- and
prints the statistics that the fuzz driver asserts equal.

Part 3 runs a seeded fuzz sweep programmatically (``run_fuzz``), then
demonstrates the self-test: injecting a deterministic corruption with
``--inject-seed`` semantics and replaying the printed repro line.

Run with::

    python examples/generated_fuzz.py [--seed 7]
"""

from __future__ import annotations

import argparse

from repro import workloads
from repro.core.prefilter import SmpPrefilter
from repro.workloads.fuzz import (
    STATS_FIELDS,
    adversarial_chunks,
    available_deliveries,
    run_case,
    run_fuzz,
)


def stats_tuple(stats):
    return tuple(getattr(stats, field) for field in STATS_FIELDS)


def workload_tour(seed: int):
    print("generated workload: one address, one experiment")
    print("-----------------------------------------------")
    address = (f"gen:depth=6,fanout=4,seed={seed},records=4,"
               f"record_bytes=1500,queries=8")
    workload = workloads.get(address)
    print(f"address:  {address}")
    print(f"root:     {workload.dtd.root_name}")
    print(f"dtd:      {len(workload.dtd.elements)} declared elements, "
          f"e.g. {sorted(workload.dtd.elements)[:4]}")
    records = workload.records()
    print(f"records:  {len(records)} "
          f"({sum(len(r) for r in records):,} bytes total, "
          "record 0 is the coverage record)")
    satisfiable = [name for name in workload.query_order
                   if "phantom" not in name and "never" not in name]
    controls = [name for name in workload.query_order
                if name not in satisfiable]
    print(f"queries:  {len(satisfiable)} satisfiable by construction, "
          f"{len(controls)} controls {controls}")
    for name in workload.query_order[:4]:
        print(f"            {name}: {workload.queries[name].xpath}")
    return workload, satisfiable


def differential_by_hand(workload, query_name: str) -> None:
    print()
    print("the differential contract, one cell by hand")
    print("-------------------------------------------")
    stream = workload.stream()
    plan = SmpPrefilter.cached_for_query(
        workload.dtd, workload.query(query_name), backend="native"
    )
    reference = plan.session(binary=True, delivery="batched").run([stream])
    print(f"query {query_name}: reference output "
          f"{len(reference.output):,} bytes "
          f"(batched, whole document)")
    for delivery in available_deliveries():
        for flavor in ("tiny", "midtag", "midutf8"):
            chunks = adversarial_chunks(stream, flavor)
            run = plan.session(binary=True, delivery=delivery).run(chunks)
            assert run.output == reference.output
            assert stats_tuple(run.stats) == stats_tuple(reference.stats)
            print(f"  {delivery:>8} x {flavor:<8} "
                  f"({len(chunks):>5} chunks): byte-identical, "
                  f"all {len(STATS_FIELDS)} stats fields equal")


def fuzz_sweep(seed: int) -> None:
    print()
    print("seeded fuzz sweep (programmatic run_fuzz)")
    print("-----------------------------------------")
    report = run_fuzz(seed=seed, budget=40,
                      scenarios=("baseline", "utf8", "json"))
    print(f"seed={seed} pairs={report.pairs} cases={len(report.cases)} "
          f"deliveries={','.join(report.deliveries)} "
          f"divergences={len(report.divergences)}")
    assert report.ok

    print()
    print("self-test: a seeded corruption is caught and addressable")
    print("--------------------------------------------------------")
    injected = run_fuzz(seed=seed, budget=10, scenarios=("baseline",),
                        inject_seed=1234)
    assert not injected.ok
    first = injected.divergences[0]
    print(f"caught {len(injected.divergences)} divergences; first:")
    print(f"  scenario={first.scenario} query={first.query} "
          f"comparison={first.comparison}")
    print(f"  repro: {first.repro}")
    replay = run_case(first.scenario, first.case_seed, inject_seed=1234)
    assert replay.divergences, "the repro line must replay the finding"
    print("replayed the repro line: divergence reproduced")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    arguments = parser.parse_args()

    workload, satisfiable = workload_tour(arguments.seed)
    differential_by_hand(workload, satisfiable[0])
    fuzz_sweep(arguments.seed)


if __name__ == "__main__":
    main()
