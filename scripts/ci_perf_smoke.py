"""CI perf smoke: chunk sweep, bytes-vs-str bound, multi-query speedup.

Three regressions this guards against, on a small MEDLINE document so the
job stays fast and robust to runner noise:

* the large-chunk throughput collapse (pre-fix: 367 MB/s at 64 KiB chunks
  vs 112 MB/s at 1 MiB chunks, caused by unbounded per-token probe scans
  over the buffered window) -- the 1 MiB figure must stay within a generous
  factor of the 64 KiB figure;
* the byte-native path regressing below the str encode shim -- at 1 MiB
  chunks feeding ``bytes`` must be at least as fast as feeding ``str``
  (the whole point of byte-native ingestion is dropping the per-chunk
  encode/decode copy, so bytes >= 1.0x str on best-of-N timings);
* the shared-scan multi-query engine regressing against the N-sessions
  baseline -- at N=4 (M2-M5) its wall time must not exceed ``MULTI_BOUND``
  of running the four sessions sequentially.  The bound was 0.75x while
  both sides scanned per-token in Python, then 1.6x after the PR 6 C
  token kernel made independent sessions ~9x faster while the shared
  engine still dispatched per event in Python.  The native
  ``step_events`` stepper (C DrivenStream stepping + emit-span batching)
  restored the shared advantage, so the bound is re-anchored to 1.0x
  (measured ~0.55x): shared N=4 must beat four independent accelerated
  sessions outright.  The gate needs the extension (both sides
  accelerated) and is skipped with a visible notice when it is unbuilt;
  byte-identity is still checked.  A second bound guards the shared
  engine's own native path: with the extension built, the native shared
  session must reach at least ``ACCEL_FLOOR`` (1.5x) of the pure shared
  loop's throughput;
* the unified dataflow API (repro.api, PR 4) growing overhead over the
  direct session loop it wraps -- at 1 MiB bytes chunks the
  ``Engine.run(Source.from_bytes(...))`` path must reach at least
  ``API_FLOOR`` (0.95x) of the direct ``session().run`` throughput;
* the pooled ``readinto`` byte path (PR 5) regressing below the
  fresh-``bytes`` read path -- at 1 MiB chunks buffer reuse must be at
  least 1.0x within noise (it strictly removes allocations);
* the parallel sharded engine (PR 5) losing its scaling -- on a runner
  with >= ``PARALLEL_MIN_CPUS`` CPUs, ``jobs=4`` over a small corpus must
  finish in at most ``PARALLEL_BOUND`` (0.6x) of the sequential wall time
  (skipped, loudly, on smaller machines where no speedup is physical);
* the below-the-interpreter hot path (PR 6) losing its gains -- at 1 MiB
  bytes chunks the C accelerator -- when the extension is built -- must
  reach at least ``ACCEL_FLOOR`` (1.5x) of the pure batched loop.  When
  the extension is not importable the accel gate is skipped with a
  visible notice rather than silently passing.

An informational row (no gate) reports the median cold compile of the
XMark 16-query shared set, the figure behind perfbench's ``setup_s`` on
``xmark-shared16``.

Run from the repository root::

    python scripts/ci_perf_smoke.py
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

DOCUMENT_BYTES = 1_500_000
SWEEP_CHUNKS = (64 * 1024, 1024 * 1024)
#: 1 MiB-chunk wall time may be at most this factor of the 64 KiB figure
#: (the pre-fix collapse was ~3.3x).
SWEEP_FACTOR = 2.0
#: Timer-noise slack of the bytes-vs-str bound (nominal bound: 1.0x).
BYTES_NOISE_SLACK = 1.10
MULTI_QUERIES = ("M2", "M3", "M4", "M5")
#: Shared-scan wall time must not exceed this multiple of the N-session
#: baseline.  Re-anchored for the native step_events stepper (see the
#: module docstring): with scan AND per-stream dispatch below the
#: interpreter, sharing the document pass must win outright at N=4.
#: Checked only with the extension built (both sides accelerated).
MULTI_BOUND = 1.0
#: Minimum throughput of the repro.api path relative to the direct session
#: loop (the API is a thin orchestration layer; 5% covers real overhead,
#: the timer-noise slack is shared with the other gates).
API_FLOOR = 0.95
#: The jobs=4 corpus wall time must be at most this fraction of jobs=1.
PARALLEL_BOUND = 0.6
#: Native delivery throughput relative to the pure batched loop, for the
#: single-query session and for the shared multi-query session alike.
ACCEL_FLOOR = 1.5
#: CPUs needed before the parallel bound is meaningful.
PARALLEL_MIN_CPUS = 4
#: Corpus of the parallel smoke: documents x bytes (small, CI-friendly).
PARALLEL_DOCUMENTS = 8
PARALLEL_DOCUMENT_BYTES = 400_000
ROUNDS = 5


def best_of(callable_, rounds=ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def main() -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(repo_root, "src"))
    from repro import SmpPrefilter
    from repro.core.stream import iter_chunks
    from repro.workloads import load_dataset
    from repro.workloads.medline import MEDLINE_QUERIES, medline_dtd

    document = load_dataset("medline", size_bytes=DOCUMENT_BYTES)
    dtd = medline_dtd()
    print(f"MEDLINE document: {len(document) / 1e6:.1f} MB")
    failures = 0

    # --- chunk-size sweep -------------------------------------------------
    plan = SmpPrefilter.cached_for_query(
        dtd, MEDLINE_QUERIES["M2"], backend="native"
    )
    walls = {}
    for chunk_size in SWEEP_CHUNKS:
        walls[chunk_size] = best_of(
            lambda cs=chunk_size: plan.session().run(iter_chunks(document, cs))
        )
        print(f"chunk {chunk_size >> 10:>5} KiB: {walls[chunk_size] * 1000:.1f} ms "
              f"({len(document) / 1e6 / walls[chunk_size]:.0f} MB/s)")
    small, large = walls[SWEEP_CHUNKS[0]], walls[SWEEP_CHUNKS[1]]
    if large > small * SWEEP_FACTOR:
        print(f"FAIL: 1 MiB chunks {large / small:.2f}x slower than 64 KiB "
              f"(bound {SWEEP_FACTOR}x) -- the large-chunk collapse is back")
        failures += 1
    else:
        print(f"OK: chunk-size sweep ratio {large / small:.2f}x "
              f"(bound {SWEEP_FACTOR}x)")

    # --- bytes path vs str shim at 1 MiB chunks ---------------------------
    document_bytes = document.encode("utf-8")
    large_chunk = SWEEP_CHUNKS[-1]
    str_wall = best_of(
        lambda: plan.session(binary=True).run(
            iter_chunks(document, large_chunk)
        )
    )
    bytes_wall = best_of(
        lambda: plan.session(binary=True).run(
            iter_chunks(document_bytes, large_chunk)
        )
    )
    ratio = str_wall / bytes_wall
    print(f"1 MiB chunks: str shim {str_wall * 1000:.1f} ms, "
          f"bytes {bytes_wall * 1000:.1f} ms (bytes {ratio:.2f}x str)")
    # The nominal bound is bytes >= 1.0x str (the byte path strictly does
    # less work); BYTES_NOISE_SLACK absorbs runner timer jitter like every
    # other gate in this script, without hiding a real regression.
    if bytes_wall > str_wall * BYTES_NOISE_SLACK:
        print(f"FAIL: byte-native path slower than the str shim "
              f"({bytes_wall * 1000:.1f} ms > {str_wall * 1000:.1f} ms "
              f"x {BYTES_NOISE_SLACK}) -- the decode-copy saving has "
              "regressed")
        failures += 1
    else:
        print(f"OK: bytes path >= 1.0x the str path within noise "
              f"({ratio:.2f}x, slack {BYTES_NOISE_SLACK}x)")

    # --- delivery modes: accel vs batched ---------------------------------
    from repro.accel import accel_available

    def delivery_wall(delivery):
        return best_of(
            lambda: plan.session(binary=True, delivery=delivery).run(
                iter_chunks(document_bytes, large_chunk)
            )
        )

    if accel_available():
        batched_wall = delivery_wall("batched")
        accel_wall = delivery_wall("accel")
        ratio = batched_wall / accel_wall
        print(f"1 MiB chunks: batched {batched_wall * 1000:.1f} ms, "
              f"accel {accel_wall * 1000:.1f} ms "
              f"(accel {ratio:.2f}x batched, floor {ACCEL_FLOOR}x)")
        if accel_wall * ACCEL_FLOOR > batched_wall:
            print(f"FAIL: the C accelerator runs below {ACCEL_FLOOR}x of "
                  "the pure batched loop -- the kernel has regressed")
            failures += 1
        else:
            print(f"OK: accel delivery >= {ACCEL_FLOOR}x batched "
                  f"({ratio:.2f}x)")
    else:
        print("SKIP: repro._accel extension not built (or REPRO_PURE=1); "
              "the accel >= "
              f"{ACCEL_FLOOR}x batched gate was NOT checked -- build with "
              "`python setup.py build_ext --inplace` to enable it")

    # --- repro.api path vs the direct session loop ------------------------
    from repro import api

    api_engine = api.Engine(
        api.Query.from_plan(plan, label="M2")
    )
    api_run = api_engine.run(
        api.Source.from_bytes(document_bytes, chunk_size=large_chunk),
        binary=True,
    )
    direct_run = plan.session(binary=True).run(
        iter_chunks(document_bytes, large_chunk)
    )
    if api_run.single.output != direct_run.output:
        print("FAIL: repro.api output differs from the direct session path")
        failures += 1
    # Interleaved rounds: alternating the two paths keeps machine noise
    # from landing on one side of the comparison.
    api_wall = direct_wall = float("inf")
    for _ in range(2 * ROUNDS):
        started = time.perf_counter()
        plan.session(binary=True).run(iter_chunks(document_bytes, large_chunk))
        direct_wall = min(direct_wall, time.perf_counter() - started)
        started = time.perf_counter()
        api_engine.run(
            api.Source.from_bytes(document_bytes, chunk_size=large_chunk),
            binary=True,
        )
        api_wall = min(api_wall, time.perf_counter() - started)
    ratio = direct_wall / api_wall  # api throughput relative to direct
    print(f"1 MiB chunks: direct session {direct_wall * 1000:.1f} ms, "
          f"repro.api {api_wall * 1000:.1f} ms (api {ratio:.2f}x direct, "
          f"floor {API_FLOOR}x x noise slack {BYTES_NOISE_SLACK})")
    if api_wall * API_FLOOR > direct_wall * BYTES_NOISE_SLACK:
        print(f"FAIL: the repro.api path runs below {API_FLOOR}x of the "
              "direct session throughput -- the dataflow layer grew "
              "per-chunk overhead")
        failures += 1
    else:
        print(f"OK: repro.api >= {API_FLOOR}x direct-session throughput "
              f"within noise ({ratio:.2f}x)")

    # --- pooled readinto vs fresh-bytes reads at 1 MiB chunks -------------
    from repro.core.sources import BufferPool

    document_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-perf-smoke-"), "medline.xml"
    )
    with open(document_path, "wb") as handle:
        handle.write(document_bytes)

    from repro import api

    pool_engine = api.Engine(api.Query.from_plan(plan, label="M2"))
    reuse_pool = BufferPool(large_chunk, capacity=2)
    # Interleaved rounds (see the repro.api gate): sequential best-of
    # blocks let clock drift land on one side of the comparison.
    fresh_wall = pooled_wall = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        pool_engine.run(
            api.Source.from_file(document_path, chunk_size=large_chunk),
            binary=True,
        )
        fresh_wall = min(fresh_wall, time.perf_counter() - started)
        started = time.perf_counter()
        pool_engine.run(
            api.Source.from_file(
                document_path, chunk_size=large_chunk, pool=reuse_pool
            ),
            binary=True,
        )
        pooled_wall = min(pooled_wall, time.perf_counter() - started)
    ratio = fresh_wall / pooled_wall
    print(f"1 MiB chunks: fresh reads {fresh_wall * 1000:.1f} ms, "
          f"pooled readinto {pooled_wall * 1000:.1f} ms "
          f"(pooled {ratio:.2f}x fresh)")
    # Nominal bound: pooled >= 1.0x fresh (buffer reuse strictly removes a
    # per-chunk allocation); the shared noise slack absorbs timer jitter.
    if pooled_wall > fresh_wall * BYTES_NOISE_SLACK:
        print(f"FAIL: the pooled byte path runs below 1.0x of the unpooled "
              f"path at 1 MiB chunks ({pooled_wall * 1000:.1f} ms > "
              f"{fresh_wall * 1000:.1f} ms x {BYTES_NOISE_SLACK}) -- buffer "
              "reuse has regressed")
        failures += 1
    else:
        print(f"OK: pooled readinto >= 1.0x fresh reads within noise "
              f"({ratio:.2f}x, slack {BYTES_NOISE_SLACK}x)")

    # --- parallel sharded corpus: jobs=4 vs sequential --------------------
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    from repro.workloads.medline import generate_medline_document

    corpus_dir = tempfile.mkdtemp(prefix="repro-perf-corpus-")
    corpus_paths = []
    citations = max(10, PARALLEL_DOCUMENT_BYTES // 1650)
    for index in range(PARALLEL_DOCUMENTS):
        path = os.path.join(corpus_dir, f"doc{index}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(generate_medline_document(
                citations=citations, seed=3000 + index
            ))
        corpus_paths.append(path)

    corpus_queries = [api.Query.from_plan(plan, label="M2")]
    sequential_engine = api.Engine(corpus_queries)
    parallel_engine = api.Engine(corpus_queries, mode="parallel", jobs=4)
    sequential_run = sequential_engine.run(
        api.Source.from_paths(corpus_paths), binary=True
    )
    parallel_run = parallel_engine.run(
        api.Source.from_paths(corpus_paths), binary=True
    )
    if parallel_run.outputs != sequential_run.outputs:
        print("FAIL: parallel corpus output differs from sequential")
        failures += 1
    else:
        print("OK: parallel corpus output byte-identical to sequential")
    if cpu_count >= PARALLEL_MIN_CPUS:
        sequential_wall = best_of(
            lambda: sequential_engine.run(
                api.Source.from_paths(corpus_paths), binary=True
            ),
            rounds=3,
        )
        parallel_wall = best_of(
            lambda: parallel_engine.run(
                api.Source.from_paths(corpus_paths), binary=True
            ),
            rounds=3,
        )
        ratio = parallel_wall / sequential_wall
        print(f"corpus x{PARALLEL_DOCUMENTS}: sequential "
              f"{sequential_wall * 1000:.1f} ms, jobs=4 "
              f"{parallel_wall * 1000:.1f} ms (ratio {ratio:.2f}, bound "
              f"{PARALLEL_BOUND})")
        if ratio > PARALLEL_BOUND:
            print(f"FAIL: jobs=4 wall time exceeds {PARALLEL_BOUND}x of the "
                  "sequential corpus run -- parallel scaling has regressed")
            failures += 1
        else:
            print(f"OK: jobs=4 runs the corpus "
                  f"{sequential_wall / parallel_wall:.2f}x faster than "
                  "sequential")
    else:
        print(f"SKIP: parallel speedup bound needs >= {PARALLEL_MIN_CPUS} "
              f"CPUs (runner has {cpu_count}); correctness was still "
              "checked above")

    # --- shared-scan multi-query vs N sessions ----------------------------
    from repro.core.multi import MultiQueryEngine

    specs = [MEDLINE_QUERIES[name] for name in MULTI_QUERIES]
    engine = api.Engine(
        [api.Query.from_spec(dtd, spec, backend="native") for spec in specs]
    )
    plans = [
        SmpPrefilter.cached_for_query(dtd, spec, backend="native")
        for spec in specs
    ]

    def shared():
        return engine.run(
            api.Source.from_text(document, chunk_size=64 * 1024)
        )

    def baseline():
        return [
            session_plan.session().run(iter_chunks(document, 64 * 1024))
            for session_plan in plans
        ]

    shared_run = shared()
    baseline_runs = baseline()
    for name, output, reference in zip(
        MULTI_QUERIES, shared_run.outputs, baseline_runs
    ):
        if output != reference.output:
            print(f"FAIL: shared-scan output for {name} differs from an "
                  "independent session")
            failures += 1

    if accel_available():
        # Interleaved rounds, like the repro.api gate: this runner's clock
        # drifts enough that back-to-back best-of blocks land noise on one
        # side of the comparison.
        shared_wall = baseline_wall = float("inf")
        for _ in range(ROUNDS):
            started = time.perf_counter()
            shared()
            shared_wall = min(shared_wall, time.perf_counter() - started)
            started = time.perf_counter()
            baseline()
            baseline_wall = min(baseline_wall, time.perf_counter() - started)
        ratio = shared_wall / baseline_wall
        print(f"shared N={len(MULTI_QUERIES)}: {shared_wall * 1000:.1f} ms, "
              f"baseline: {baseline_wall * 1000:.1f} ms "
              f"(ratio {ratio:.2f}, bound {MULTI_BOUND})")
        if ratio > MULTI_BOUND * BYTES_NOISE_SLACK:
            print(f"FAIL: shared-scan wall time exceeds {MULTI_BOUND}x of "
                  f"the {len(MULTI_QUERIES)}-session baseline -- the native "
                  "step dispatch has regressed")
            failures += 1
        else:
            print(f"OK: shared scan within {MULTI_BOUND}x of sequential "
                  f"accelerated sessions ({ratio:.2f}x, slack "
                  f"{BYTES_NOISE_SLACK}x)")
    else:
        print("SKIP: repro._accel extension not built (or REPRO_PURE=1); "
              f"the shared N=4 <= {MULTI_BOUND}x independent-sessions gate "
              "was NOT checked (it compares two accelerated paths) -- "
              "byte-identity was still verified above")

    if accel_available():
        multi_engine = MultiQueryEngine(dtd, specs, backend="native")

        def shared_delivery(delivery):
            session = multi_engine.session(delivery=delivery)
            for chunk in iter_chunks(document, 64 * 1024):
                session.feed(chunk)
            return session.finish()

        accel_shared = pure_shared = float("inf")
        for _ in range(ROUNDS):
            started = time.perf_counter()
            shared_delivery("accel")
            accel_shared = min(accel_shared, time.perf_counter() - started)
            started = time.perf_counter()
            shared_delivery("batched")
            pure_shared = min(pure_shared, time.perf_counter() - started)
        ratio = pure_shared / accel_shared
        print(f"shared N={len(MULTI_QUERIES)} session: accel "
              f"{accel_shared * 1000:.1f} ms, pure {pure_shared * 1000:.1f} ms "
              f"(accel {ratio:.2f}x pure, floor {ACCEL_FLOOR}x)")
        if accel_shared * ACCEL_FLOOR > pure_shared:
            print(f"FAIL: the native shared session runs below "
                  f"{ACCEL_FLOOR}x of the pure shared loop -- the "
                  "step_events kernel has regressed")
            failures += 1
        else:
            print(f"OK: native shared session >= {ACCEL_FLOOR}x the pure "
                  f"shared loop ({ratio:.2f}x)")
    else:
        print("SKIP: repro._accel extension not built (or REPRO_PURE=1); "
              f"the native shared >= {ACCEL_FLOOR}x pure gate was NOT "
              "checked")

    # --- generated workload throughput (informational, no gate) -----------
    # Tracks shared-scan throughput over a seed-deterministic generated
    # workload (repro.workloads.get "gen:" address) release over release;
    # benchmarks/bench_generated.py records the full depth/fanout/query
    # sweeps.  Print-only: generated schemas change shape across seeds, so
    # a hard bound here would gate on workload shape, not on the engine.
    from repro import workloads

    generated = workloads.get(
        "gen:depth=8,fanout=4,seed=31,records=4,record_bytes=120000,"
        "queries=8"
    )
    generated_stream = generated.stream()
    generated_specs = [
        generated.query(name)
        for name in generated.query_order
        if "phantom" not in name and "never" not in name
    ][:4]
    generated_engine = MultiQueryEngine(
        generated.dtd, generated_specs, backend="native"
    )

    def generated_shared():
        session = generated_engine.session(binary=True)
        for chunk in iter_chunks(generated_stream, 64 * 1024):
            session.feed(chunk)
        return session.finish()

    generated_wall = best_of(generated_shared, rounds=3)
    print(f"INFO: generated workload (depth=8 fanout=4 seed=31, "
          f"N={len(generated_specs)} queries, "
          f"{len(generated_stream) / 1e6:.1f} MB): "
          f"{generated_wall * 1000:.1f} ms "
          f"({len(generated_stream) / 1e6 / generated_wall:.0f} MB/s) "
          "-- informational, not gated")

    # --- durable checkpoint overhead (informational, no gate) --------------
    # Tracks the cost of checkpointing the serving loop every 64 records
    # (64 KiB feed frames through the 4-query shared scan, one fsynced
    # atomic write per checkpoint).  The gated <= 5% bound lives in
    # benchmarks/bench_checkpoint.py with a full interval sweep; this row
    # just keeps the number visible per push.
    ckpt_engine = api.Engine(
        [api.Query.from_spec(dtd, spec, backend="native") for spec in specs]
    )
    ckpt_records = [
        document_bytes[offset:offset + 64 * 1024]
        for offset in range(0, len(document_bytes), 64 * 1024)
    ]
    ckpt_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-perf-ckpt-"), "smoke.ckpt"
    )

    def checkpointed(interval):
        session = ckpt_engine.open(binary=True)
        for index, record in enumerate(ckpt_records, start=1):
            session.feed(record)
            if interval and index % interval == 0:
                session.checkpoint(ckpt_path)
        session.finish()

    plain_wall = ckpt_wall = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        checkpointed(0)
        plain_wall = min(plain_wall, time.perf_counter() - started)
        started = time.perf_counter()
        checkpointed(64)
        ckpt_wall = min(ckpt_wall, time.perf_counter() - started)
    overhead = (ckpt_wall - plain_wall) / plain_wall if plain_wall else 0.0
    print(f"INFO: checkpoint every 64 records (shared N={len(specs)}, "
          f"{len(ckpt_records)} x 64 KiB frames): plain "
          f"{plain_wall * 1000:.1f} ms, checkpointed "
          f"{ckpt_wall * 1000:.1f} ms ({overhead * 100:+.1f}% overhead) "
          "-- informational, gated in benchmarks/bench_checkpoint.py")

    # --- cold compile of the XMark 16-query set (informational) -----------
    # Mirrors the benchmark's set-up metric (perfbench setup_s on the
    # xmark-shared16 workload): a fresh Dtd.parse, so the schema's
    # DTD-automaton and every plan are built from scratch, then the shared
    # engine and its first open().  Print-only, so a compile regression
    # shows in CI logs without gating on runner speed.
    from repro.dtd import Dtd
    from repro.workloads.xmark import XMARK_DTD_TEXT, XMARK_QUERIES

    xmark_specs = [
        XMARK_QUERIES[f"XM{number}"] for number in (*range(1, 15), 17, 18)
    ]
    compile_walls = []
    for _ in range(5):
        started = time.perf_counter()
        fresh = Dtd.parse(XMARK_DTD_TEXT)
        compiled = api.Engine(
            [api.Query.from_spec(fresh, spec) for spec in xmark_specs],
            mode="shared",
        )
        compiled.open(binary=True).close()
        compile_walls.append(time.perf_counter() - started)
    print(f"INFO: cold compile of the XMark {len(xmark_specs)}-query shared "
          f"set (fresh Dtd.parse + Engine + first open, median of 5): "
          f"{statistics.median(compile_walls) * 1000:.1f} ms "
          "-- informational, not gated; cf. perfbench setup_s on "
          "xmark-shared16")

    if failures:
        print(f"{failures} perf-smoke check(s) failed")
        return 1
    print("OK: perf smoke holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
