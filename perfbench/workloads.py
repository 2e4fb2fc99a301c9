"""The benchmark's workloads.

Each workload makes its inputs from the seed, computes the expected outputs
with the oracle before any timing, runs trials for the requested seconds
with cold set-ups interleaved between them, checks every operation, and
takes memory in a pass of its own.  Trial and set-up times are medians over
the uncontended samples (see :func:`host_probe`).  With ``trace`` it
instead runs untraced and traced trials (half the seconds each) and derives
the per-layer metrics from the traced half.

Workloads and why they were chosen:

* ``medline-search`` -- one ~32 MiB MEDLINE document in 1 MiB chunks
  through ``Engine(M2, mode="search")``.  The selective query inspects ~11%
  of the bytes: it exercises the scan kernel (``find_token``) and per-token
  transitions, while emit, shared dispatch, parallel and aio idle.
* ``xmark-shared16`` -- an ~8 MB XMark document through one shared scan of
  XM1-XM14, XM17 and XM18.  Exercises shared-scan dispatch
  (``step_events``) and emit, and has the heaviest compile; ``find_token``
  is bypassed.
* ``medline-corpus-j2`` -- 48 MEDLINE records of ~256 KiB through
  ``Engine([M2, M5], mode="parallel", jobs=2)``: the only workload on
  ``repro.parallel`` (fork, payload pickling, result queue, ordered merge).
* ``medline-records-serve`` -- ``aio.serve_records`` over M2-M5 in a child
  process; this process sends ~64 KiB records open-loop at a fixed rate.
  Many small documents, each paying session open, frame writes and one
  fsynced checkpoint commit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro import Dtd, aio, api, parallel
from repro.accel import load_accel
from repro.workloads.medline import MEDLINE_QUERIES
from repro.workloads.medline.dtd import MEDLINE_DTD_TEXT
from repro.workloads.xmark import XMARK_DTD_TEXT, XMARK_QUERIES

import inputs
import layers
from build import BenchmarkError, require_native
from spans import Tracer, summarise

_clock = time.perf_counter

CHUNK = 1 << 20
MEDLINE_END = b"</MedlineCitationSet>"
#: Distinct citations the MEDLINE documents are drawn from.  The selective
#: queries match few citations, so a small pool makes the work per byte
#: swing with the seed: 1000 citations gave M2 search 3000-5900 matched
#: tokens and 28-35 ms per 32 MiB pass across five seeds, 4000 gave
#: 4200-5100 tokens and 31.5-33.5 ms.
POOL_CITATIONS = 4000
#: Samples a tail percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10
#: Cold set-ups per run, at least, spread evenly over its trials.
SETUP_REPEATS = 16
#: Set-ups also keep running until they take this share of the trial time,
#: so a cheap set-up is sampled across the run as widely as the trials are.
SETUP_SHARE = 0.2
#: A sample whose host probe read slower than this multiple of the run's
#: fastest probe ran contended.
CONTENDED = 1.25
#: Iterations of the host probe's loop; about 0.2 ms on a 2-vCPU Xeon.
PROBE_LOOP = 3000


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes, best of three.

    On a shared host a busy neighbour slows everything here 1.3-2x, for
    stretches of seconds that cover anywhere from a tenth to nine tenths of
    a run.  The probe runs none of the program, so it tells such stretches
    apart without looking at the metric being measured: a change that
    stalls some operations still shows in every figure.
    """
    best = math.inf
    for _ in range(3):
        started = _clock()
        total = 0
        for value in range(PROBE_LOOP):
            total += value * value
        best = min(best, _clock() - started)
    return best


class Samples:
    """Timed samples, each with the slower of the host probes taken just
    before and just after it."""

    def __init__(self, values=(), probes=()) -> None:
        self.values = list(values)
        self.probes = list(probes)

    def add(self, value: float, probe: float) -> None:
        self.values.append(value)
        self.probes.append(probe)

    def uncontended(self) -> list[int]:
        """Indices of the samples whose probe was within :data:`CONTENDED`
        times the fastest probe."""
        best = min(self.probes)
        return [index for index, probe in enumerate(self.probes)
                if probe <= CONTENDED * best]

    def median(self) -> float:
        """The median of the uncontended samples."""
        return statistics.median([self.values[i] for i in self.uncontended()])

    def __len__(self) -> int:
        return len(self.values)


def ack_pool(trials: Samples, acks: list[list[float]], q: float = 0.9) -> list[float]:
    """The ack latencies of the uncontended trials, with the trials of the
    next-fastest probes added until the ``q`` percentile has
    :data:`TAIL_SAMPLES` samples beyond it."""
    chosen = set(trials.uncontended())
    pool = [ack for index in chosen for ack in acks[index]]
    for index in sorted(range(len(trials)), key=trials.probes.__getitem__):
        if len(pool) * (1 - q) >= TAIL_SAMPLES + 1:
            break
        if index not in chosen:
            pool.extend(acks[index])
    return pool


def percentile(samples, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``samples``, nearest rank.

    Refuses unless at least :data:`TAIL_SAMPLES` samples lie beyond it.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_SAMPLES and q > 0.5:
        raise BenchmarkError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


class Result:
    """What a workload measured."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _traced_setup(setup):
    tracer = Tracer()
    with tracer:
        layers.install_compile_spans(tracer)
        started = _clock()
        engine = setup()
        window = (started, _clock())
    return engine, summarise(tracer.spans, [window])


def _set_up_due(setups: Samples, trial_seconds: float, seconds: float) -> bool:
    """Whether another cold set-up is due after ``trial_seconds`` of the
    ``seconds`` of trials: set-ups keep pace with the trials until there
    are :data:`SETUP_REPEATS` of them and they take :data:`SETUP_SHARE` of
    the trial time."""
    progress = min(1.0, trial_seconds / seconds)
    return (len(setups) < math.ceil(SETUP_REPEATS * progress)
            or sum(setups.values) < SETUP_SHARE * trial_seconds)


def _timed(trial, check, seconds: float, *, setup=None, warmup: int = 2,
           minimum: int = 5, windows=None):
    """Run ``trial`` for ``seconds`` of trial time after ``warmup`` runs.

    ``check`` sees each result outside the timing and returns the trial's
    ack latencies.  With ``setup``, cold set-ups are timed between the
    trials as :func:`_set_up_due` asks, so they sample the same stretches
    of host load the trials do.  Returns the trials as
    :class:`Samples`, each trial's acks, and the set-ups as :class:`Samples`.
    """
    # The inputs and oracle results are long-lived: freezing them keeps the
    # per-trial collections below cheap.
    gc.collect()
    gc.freeze()
    for _ in range(warmup):
        check(trial())
    trials, setups = Samples(), Samples()
    acks: list[list[float]] = []
    probe = host_probe()

    def timed(call):
        nonlocal probe
        gc.collect()
        started = _clock()
        outcome = call()
        ended = _clock()
        before, probe = probe, host_probe()
        return outcome, started, ended, max(before, probe)

    while sum(trials.values) < seconds or len(trials) < minimum:
        outcome, started, ended, contention = timed(trial)
        trials.add(ended - started, contention)
        if windows is not None:
            windows.append((started, ended))
        acks.append(check(outcome))
        while setup is not None and \
                _set_up_due(setups, sum(trials.values), seconds):
            _, started, ended, contention = timed(setup)
            setups.add(ended - started, contention)
    return trials, acks, setups


def _peak_mb(trial, check) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        outcome = trial()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    check(outcome)
    return peak / 1e6


class TrialBench:
    """A workload measured in whole trials inside this process.

    Subclasses provide ``setup()`` (one cold set-up, returning the engine),
    ``trial(tracer=None)``, ``check(outcome)`` (returns the trial's ack
    latencies), ``input_bytes``, ``sink_type`` and :meth:`traced_metrics`.
    """

    sink_type = layers.DigestSink

    def bind(self, engine) -> None:
        require_native(engine)
        self.engine = engine
        self.sinks = [self.sink_type() for _ in engine.labels]

    def peak_mb(self) -> float:
        return _peak_mb(self.trial, self.check)

    def traced_metrics(self, traced: Samples, summary: dict) -> dict:
        """The per-layer metrics this workload measures itself, from its
        last traced trial (``self.last``)."""
        raise NotImplementedError

    def run(self, seconds: float, trace: bool) -> Result:
        if not trace:
            self.bind(self.setup())
            trials, acks, setups = _timed(self.trial, self.check, seconds,
                                          setup=self.setup)
            result = Result(self.tally)
            _end_to_end(result, self.input_bytes, trials, acks, setups)
            result.put("peak_traced_mb", self.peak_mb(), "MB")
            return result
        engine, setup_summary = _traced_setup(self.setup)
        self.bind(engine)
        untraced, _, _ = _timed(self.trial, self.check, seconds / 2)
        tracer = Tracer()
        windows: list = []
        with tracer:
            layers.install_spans(tracer, load_accel(), sink_types=(self.sink_type,))
            traced, _, _ = _timed(lambda: self.trial(tracer), self.check,
                                  seconds / 2, warmup=0, windows=windows)
        summary = summarise(tracer.spans, windows)
        extra = layers.setup_metrics(setup_summary, engine.plans)
        extra.update(self.traced_metrics(traced, summary))
        extra["emit.fragments"] = sum(sink.writes for sink in self.sinks)
        extra["emit.bytes"] = sum(sink.size for sink in self.sinks)
        extra["trace.overhead"] = traced.median() / untraced.median()
        result = Result(self.tally)
        for name, value in layers.layer_metrics(
                summary, len(traced), tracer.counters, extra).items():
            result.put(name, value, layers.PER_LAYER[name])
        result.info.update(trials=len(untraced), traced_trials=len(traced))
        return result


# ----------------------------------------------------------------------
# Whole documents streamed through one session: search and shared16
# ----------------------------------------------------------------------
class StreamBench(TrialBench):
    """One document, fed in 1 MiB chunks through one engine session.

    An operation is one document pass; its ack samples are the per-chunk
    ``feed`` latencies (``finish`` counted with the last chunk).
    """

    def __init__(self, setup, document: bytes, expected: dict[str, bytes],
                 *, sink_type=layers.DigestSink) -> None:
        self.setup = setup
        self.document = document
        self.input_bytes = len(document)
        self.expected = {
            label: (inputs.digest(data), len(data))
            for label, data in expected.items()
        }
        self.sink_type = sink_type
        self.tally = Tally()
        self.reference_stats = None

    def trial(self, tracer: Tracer | None = None):
        for sink in self.sinks:
            sink.reset()
        acks = []
        session = self.engine.open(sinks=self.sinks, binary=True)
        source = api.Source.from_bytes(self.document, chunk_size=CHUNK)
        with source.open() as chunks:
            if tracer is not None:
                chunks = tracer.iterate(chunks, "sources.read")
            for chunk in chunks:
                started = _clock()
                session.feed(chunk)
                acks.append(_clock() - started)
            started = _clock()
            session.finish()
            acks[-1] += _clock() - started
        return acks, session.stats, session.scan_stats

    def check(self, outcome) -> list[float]:
        acks, stats, scan_stats = outcome
        problems = []
        for label, sink in zip(self.engine.labels, self.sinks):
            if (sink.digest(), sink.size) != self.expected[label]:
                problems.append(f"{label}: output differs from the oracle")
        for label, record in zip(self.engine.labels, stats):
            if record.input_size != len(self.document) or \
                    record.output_size != self.expected[label][1]:
                problems.append(f"{label}: statistics sizes are wrong")
        key = layers.stats_key([*stats, scan_stats])
        if self.reference_stats is None:
            self.reference_stats = key
        elif key != self.reference_stats:
            problems.append("paper statistics changed between trials")
        self.tally.record(not problems, "; ".join(problems))
        self.last = outcome
        return acks

    def traced_metrics(self, traced: Samples, summary: dict) -> dict:
        _, stats, scan_stats = self.last
        return layers.runtime_metrics(stats, scan_stats, self.input_bytes)


def _end_to_end(result: Result, input_bytes: int, trials: Samples,
                acks: list[list[float]], setups: Samples) -> None:
    """Throughput at the median uncontended trial, the ack percentiles of
    the uncontended trials and the median uncontended set-up."""
    pool = ack_pool(trials, acks)
    result.put("throughput_mbps", input_bytes / trials.median() / 1e6, "MB/s")
    result.put("ack_p50_ms", percentile(pool, 0.5) * 1e3, "ms")
    result.put("ack_p90_ms", percentile(pool, 0.9) * 1e3, "ms")
    result.put("setup_s", setups.median(), "s")
    result.info.update(
        trials=len(trials), uncontended_trials=len(trials.uncontended()),
        walls=trials.values, probes=trials.probes, ack_samples=len(pool),
        ack_p99_ms=_informational_p99(pool), input_bytes=input_bytes,
        setup_repeats=setups.values, setup_probes=setups.probes,
        uncontended_setups=len(setups.uncontended()),
    )


def _informational_p99(samples) -> float | None:
    try:
        return percentile(samples, 0.99) * 1e3
    except BenchmarkError:
        return None


def medline_search(seed: int, seconds: float, trace: bool, *,
                   megabytes: float = 32, sink_type=layers.DigestSink) -> Result:
    spec = MEDLINE_QUERIES["M2"]
    dtd = Dtd.parse(MEDLINE_DTD_TEXT)
    pool = inputs.CitationPool(dtd, [spec], seed=seed, citations=POOL_CITATIONS)
    order = pool.draw(random.Random(seed), int(megabytes * (1 << 20)))

    def setup():
        fresh = Dtd.parse(MEDLINE_DTD_TEXT)
        engine = api.Engine(api.Query.from_spec(fresh, spec), mode="search")
        engine.open(binary=True).close()
        return engine

    bench = StreamBench(setup, pool.document(order),
                        {spec.name: pool.expected(spec.name, order)},
                        sink_type=sink_type)
    return bench.run(seconds, trace)


XMARK_SHARED = tuple(f"XM{n}" for n in (*range(1, 15), 17, 18))
XMARK_MEGABYTES = 8


def xmark_shared16(seed: int, seconds: float, trace: bool) -> Result:
    specs = [XMARK_QUERIES[name] for name in XMARK_SHARED]
    dtd = Dtd.parse(XMARK_DTD_TEXT)
    document, expected = inputs.xmark_document(
        dtd, specs, seed=seed, megabytes=XMARK_MEGABYTES
    )

    def setup():
        fresh = Dtd.parse(XMARK_DTD_TEXT)
        engine = api.Engine(
            [api.Query.from_spec(fresh, spec) for spec in specs], mode="shared"
        )
        engine.open(binary=True).close()
        return engine

    return StreamBench(setup, document, expected).run(seconds, trace)


# ----------------------------------------------------------------------
# medline-corpus-j2
# ----------------------------------------------------------------------
CORPUS_QUERIES = ("M2", "M5")
CORPUS_RECORDS = 48
CORPUS_RECORD_KIB = 256
JOBS = 2


class CorpusBench(TrialBench):
    """A concatenated record stream through a jobs=2 parallel engine.

    An operation is one corpus document.  Its ack is the time from the
    engine pulling the document off the split record stream (just before
    it is submitted to a worker) until the ordered merge delivered its
    last query output to the sinks.
    """

    sink_type = layers.DocumentSink

    def __init__(self, seed: int) -> None:
        self.specs = [MEDLINE_QUERIES[name] for name in CORPUS_QUERIES]
        dtd = Dtd.parse(MEDLINE_DTD_TEXT)
        pool = inputs.CitationPool(dtd, self.specs, seed=seed,
                                   citations=POOL_CITATIONS)
        rng = random.Random(seed)
        orders = [pool.draw(rng, CORPUS_RECORD_KIB << 10)
                  for _ in range(CORPUS_RECORDS)]
        self.stream = b"".join(pool.document(order) for order in orders)
        self.input_bytes = len(self.stream)
        outputs = {
            spec.name: [pool.expected(spec.name, order) for order in orders]
            for spec in self.specs
        }
        self.expected = {
            name: [inputs.digest(output) for output in documents]
            for name, documents in outputs.items()
        }
        #: Projected bytes per corpus run, over all queries.
        self.output_bytes = sum(
            len(output) for documents in outputs.values() for output in documents
        )
        self.records = CORPUS_RECORDS
        self.tally = Tally()
        self.reference_stats = None

    def setup(self):
        fresh = Dtd.parse(MEDLINE_DTD_TEXT)
        return api.Engine(
            [api.Query.from_spec(fresh, spec) for spec in self.specs],
            mode="parallel", jobs=JOBS,
        )

    def trial(self, tracer: Tracer | None = None):
        for sink in self.sinks:
            sink.reset()
        pulled: list[float] = []
        source = api.Source.from_records(self.stream, end_tag=MEDLINE_END)
        documents = source.documents

        def stamped():
            items = documents()
            if tracer is not None:
                items = tracer.iterate(items, "sources.split")
            for item in items:
                pulled.append(_clock())
                if tracer is not None:
                    tracer.count("sources.records")
                yield item

        source.documents = stamped
        run = self.engine.run(source, sinks=self.sinks, binary=True)
        return run, pulled

    def check(self, outcome) -> list[float]:
        run, pulled = outcome
        acks = []
        stats = [result.stats for result in run.results]
        key = layers.stats_key([*stats, run.scan_stats])
        stable = True
        if self.reference_stats is None:
            self.reference_stats = key
        elif key != self.reference_stats:
            stable = False
        complete = len(pulled) == self.records and not run.failures and all(
            len(sink.digests) == self.records for sink in self.sinks
        )
        for index in range(self.records):
            problems = [] if stable else ["paper statistics changed"]
            if not complete:
                problems.append("documents missing or failed")
            else:
                for sink, spec in zip(self.sinks, self.specs):
                    if sink.digests[index] != self.expected[spec.name][index]:
                        problems.append(f"{spec.name}: record {index} differs")
                acks.append(
                    max(sink.arrivals[index] for sink in self.sinks)
                    - pulled[index]
                )
            self.tally.record(not problems, "; ".join(problems))
        self.last = run
        return acks

    def traced_metrics(self, traced: Samples, summary: dict) -> dict:
        run = self.last
        busy = sum(
            document.run.scan_stats.run_seconds for document in run.documents
        )
        submits = summary["layers"].get("parallel.submit", {}).get("calls", 0)
        extra = layers.runtime_metrics(
            [r.stats for r in run.results], run.scan_stats, self.input_bytes
        )
        extra.update({
            "parallel.worker_busy_s": busy,
            "parallel.worker_utilization":
                busy / (JOBS * traced.median()),
            "parallel.retries": (submits - self.records * len(traced))
                / len(traced),
        })
        return extra

    def peak_mb(self) -> float:
        """Peak traced memory of the parent and of each worker process."""
        original = parallel._worker_main
        with tempfile.TemporaryDirectory(dir=_scratch()) as directory:

            def worker_main(*args, **kwargs):
                tracemalloc.stop()
                tracemalloc.start()
                try:
                    original(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    Path(directory, f"peak-{os.getpid()}").write_text(str(peak))

            parallel._worker_main = worker_main
            try:
                parent = _peak_mb(self.trial, self.check)
            finally:
                parallel._worker_main = original
            workers = [
                int(path.read_text()) / 1e6
                for path in Path(directory).glob("peak-*")
            ]
        if len(workers) != JOBS:
            raise BenchmarkError("a worker did not report its memory peak")
        return max(parent, *workers)


def medline_corpus_j2(seed: int, seconds: float, trace: bool) -> Result:
    return CorpusBench(seed).run(seconds, trace)


# ----------------------------------------------------------------------
# medline-records-serve
# ----------------------------------------------------------------------
SERVE_QUERIES = ("M2", "M3", "M4", "M5")
SERVE_DISTINCT = 128
SERVE_RECORD_KIB = 64
#: Open-loop send rate, fixed so runs compare.  A 2-vCPU machine serves
#: ~500 records/s when calm, but a busy neighbour has cut that to ~125/s
#: for minutes; at an eighth of the calm capacity the server keeps up.
SERVE_RATE = 60.0
#: Length of one open-loop pass: short, so that the host probes on either
#: side of each pass follow changes of host load.
SERVE_PASS_SECONDS = 0.5
#: Send rate of the memory pass.  ``tracemalloc`` slows the server several
#: times over; at the full rate records could queue up while the host is
#: busy, and the peak would measure that backlog.
MEMORY_RATE = SERVE_RATE / 4


def _scratch() -> Path:
    """Temporary files live in the checkout's build directory."""
    path = Path(__file__).resolve().parent.parent / ".bench_build" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


class ServerProcess:
    """The serving child process, driven one command line at a time."""

    def __init__(self, lib: Path) -> None:
        script = Path(__file__).resolve().parent / "serve_child.py"
        self.process = subprocess.Popen(
            [sys.executable, str(script), str(lib), str(_scratch())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"the server process exited during {command!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchmarkError(f"server: {reply['error']}")
        return reply

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


class ServeBench:
    """Open-loop record feed against ``aio.serve_records``.

    An operation is one record.  Its ack latency runs from when the record
    was due to be sent until its ``FRAME_RECORD`` arrived, so a stall counts
    against every record queued behind it.
    """

    def __init__(self, seed: int) -> None:
        specs = [MEDLINE_QUERIES[name] for name in SERVE_QUERIES]
        dtd = Dtd.parse(MEDLINE_DTD_TEXT)
        pool = inputs.CitationPool(dtd, specs, seed=seed,
                                   citations=POOL_CITATIONS)
        self.rng = random.Random(seed)
        orders = [pool.draw(self.rng, SERVE_RECORD_KIB << 10)
                  for _ in range(SERVE_DISTINCT)]
        self.records = [pool.document(order) for order in orders]
        self.expected = [
            {spec.name.encode(): pool.expected(spec.name, order) for spec in specs}
            for order in orders
        ]
        self.tally = Tally()

    def sequence(self, count: int) -> list[int]:
        return [self.rng.randrange(len(self.records)) for _ in range(count)]

    async def feed(self, port: int, sequence: list[int], rate: float) -> "Feed":
        """Send ``sequence`` at ``rate`` records a second and collect the
        acks."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            frame = await aio.read_frame(reader)
            if frame is None or frame[0] != aio.FRAME_RESUME:
                raise BenchmarkError("server did not open with FRAME_RESUME")
            due = [0.0] * len(sequence)
            acked: list[float] = []
            receiver = asyncio.ensure_future(
                self._receive(reader, sequence, acked)
            )
            lags = []
            start = _clock() + 0.01
            for index, record in enumerate(sequence):
                due[index] = start + index / rate
                delay = due[index] - _clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(_clock() - due[index])
                writer.write(self.records[record])
                await writer.drain()
            writer.write_eof()
            try:
                await asyncio.wait_for(receiver, timeout=60)
            finally:
                if not receiver.done():
                    receiver.cancel()
        finally:
            writer.close()
            await writer.wait_closed()
        for _ in range(len(sequence) - len(acked)):
            self.tally.record(False, "record never acknowledged")
        return Feed([ack - due[i] for i, ack in enumerate(acked)], lags,
                    sum(len(self.records[record]) for record in sequence))

    async def _receive(self, reader, sequence, acked: list[float]) -> None:
        pending: dict[bytes, list[bytes]] = {}
        while True:
            frame = await aio.read_frame(reader)
            if frame is None:
                return
            kind, label, payload = frame
            if kind == aio.FRAME_DATA:
                pending.setdefault(label, []).append(payload)
            elif kind == aio.FRAME_RECORD:
                acked.append(_clock())
                expected = self.expected[sequence[len(acked) - 1]]
                ok = all(
                    b"".join(pending.get(label, ())) == data
                    for label, data in expected.items()
                ) and set(pending) <= set(expected)
                self.tally.record(ok, f"record {len(acked) - 1} differs")
                pending.clear()
            elif kind == aio.FRAME_ERROR:
                raise BenchmarkError(
                    f"server error: {payload.decode('utf-8', 'replace')}"
                )

    def run(self, seconds: float, trace: bool, lib: Path) -> Result:
        server = ServerProcess(lib)
        try:
            return self._run(server, seconds, trace)
        finally:
            server.close()

    def _pass(self, server: ServerProcess, mode: str, seconds: float,
              rate: float = SERVE_RATE):
        port = server.ask(f"serve {mode}")["port"]
        sequence = self.sequence(max(1, int(rate * seconds)))
        feed = asyncio.run(self.feed(port, sequence, rate))
        return feed, server.ask("done")

    def _run(self, server: ServerProcess, seconds: float, trace: bool) -> Result:
        if not trace:
            return self._end_to_end(server, seconds)
        setup = server.ask("setup trace")
        untraced, _ = self._pass(server, "plain", seconds / 2)
        traced, reply = self._pass(server, "trace", seconds / 2)
        extra = dict(reply["extra"], **setup["compile"])
        extra["aio.generator_lag_ms"] = percentile(traced.lags, 0.9) * 1e3
        extra["trace.overhead"] = (
            percentile(traced.latencies, 0.5) / percentile(untraced.latencies, 0.5)
        )
        result = Result(self.tally)
        for name, value in layers.layer_metrics(
                reply["summary"], reply["records"], reply["counters"],
                extra).items():
            result.put(name, value, layers.PER_LAYER[name])
        result.info.update(ack_samples=len(untraced.latencies),
                           traced_records=len(traced.latencies))
        return result

    def _end_to_end(self, server: ServerProcess, seconds: float) -> Result:
        """The feed runs as passes of :data:`SERVE_PASS_SECONDS`, each a
        trial with a host probe on either side, taken in the server process
        while it is idle: the server does most of the work, and the two
        processes may sit on differently loaded CPUs.  Cold set-ups run between the passes as :func:`_set_up_due`
        asks.

        A pass's acks count every record in it, so a stall shows in the
        percentiles.  Throughput is bytes per second of server CPU: bytes
        per wall second would only restate the fixed send rate."""
        count = max(1, math.ceil(seconds / SERVE_PASS_SECONDS))
        passes, setups = Samples(), Samples()
        acks: list[list[float]] = []
        lags: list[float] = []

        def set_up() -> None:
            reply = server.ask("setup")
            setups.add(reply["setup_s"], reply["probe_s"])

        set_up()
        _, memory = self._pass(server, "memory", 2.0, MEMORY_RATE)
        for index in range(count):
            feed, served = self._pass(server, "plain", seconds / count)
            passes.add(feed.sent / served["cpu_s"], served["probe_s"])
            acks.append(feed.latencies)
            lags.extend(feed.lags)
            while _set_up_due(setups, seconds * (index + 1) / count, seconds):
                set_up()
        pool = ack_pool(passes, acks)
        result = Result(self.tally)
        result.put("throughput_mbps", passes.median() / 1e6, "MB/s")
        result.put("ack_p50_ms", percentile(pool, 0.5) * 1e3, "ms")
        result.put("ack_p90_ms", percentile(pool, 0.9) * 1e3, "ms")
        result.put("setup_s", setups.median(), "s")
        result.put("peak_traced_mb", memory["peak_mb"], "MB")
        result.info.update(
            passes=count, uncontended_passes=len(passes.uncontended()),
            pass_bytes_per_cpu_s=passes.values, probes=passes.probes,
            ack_samples=len(pool), ack_p99_ms=_informational_p99(pool),
            generator_lag_p90_ms=percentile(lags, 0.9) * 1e3,
            setup_repeats=setups.values, setup_probes=setups.probes,
            uncontended_setups=len(setups.uncontended()),
            rate_per_s=SERVE_RATE,
        )
        return result


class Feed:
    """One open-loop pass: ack latencies, sender lateness, bytes sent."""

    def __init__(self, latencies: list[float], lags: list[float],
                 sent: int) -> None:
        self.latencies = latencies
        self.lags = lags
        self.sent = sent


def medline_records_serve(seed: int, seconds: float, trace: bool, *,
                          lib: Path) -> Result:
    return ServeBench(seed).run(seconds, trace, lib)
