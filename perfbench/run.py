"""The repro benchmark: one workload, one seed, one result line.

Usage, from the root of a repro source checkout::

    python3 perfbench/run.py --workload medline-search --seed 1 \\
        --seconds 10 --trace 0

Builds the ``repro._accel`` extension into ``.bench_build`` when needed,
makes the workload's inputs from the seed, measures for the given seconds
and checks every operation against the oracle.  A report of every metric
with its unit and the provenance stamp goes to stderr; a copy with all
details is written to ``.bench_build/results``.  The last line on stdout is
the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The exit code is 0 only when every operation was
correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402

WORKLOADS = (
    "medline-search", "xmark-shared16", "medline-corpus-j2",
    "medline-records-serve",
)


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, lib: Path):
    import workloads

    if workload == "medline-search":
        return workloads.medline_search(seed, seconds, trace)
    if workload == "xmark-shared16":
        return workloads.xmark_shared16(seed, seconds, trace)
    if workload == "medline-corpus-j2":
        return workloads.medline_corpus_j2(seed, seconds, trace)
    return workloads.medline_records_serve(seed, seconds, trace, lib=lib)


def main(argv=None) -> int:
    args = _arguments(argv)
    started = time.perf_counter()
    lib = build.ensure_accel(ROOT)
    accel = build.load_repro(ROOT, lib)
    stamp = build.provenance(ROOT, accel)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), lib)
    tally = result.tally
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result.metrics.items()
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": stamp,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(1, tally.attempted),
        "failures": tally.messages, "metrics": metrics, "info": result.info,
        "elapsed_s": time.perf_counter() - started,
    }
    results = build.build_dir(ROOT) / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")
    err = sys.stderr
    err.write(f"{args.workload} seed={args.seed} trace={args.trace} "
              f"provenance={json.dumps(stamp)}\n")
    for metric, entry in metrics.items():
        err.write(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}\n")
    err.write(f"  {'error_rate':32s} {report['error_rate']:14.6g} fraction "
              f"({tally.failed} of {tally.attempted} operations)\n")
    for key, value in result.info.items():
        if not isinstance(value, list):
            err.write(f"  [{key}] {value}\n")
    for message in tally.messages:
        err.write(f"  FAILED: {message}\n")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except build.BenchmarkError as error:
        sys.stderr.write(f"benchmark error: {error}\n")
        sys.exit(2)
