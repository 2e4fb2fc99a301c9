"""Server process of the ``medline-records-serve`` workload.

Run as ``serve_child.py LIB SCRATCH`` by ``workloads.ServerProcess``: LIB is
the benchmark's build of ``repro._accel``, SCRATCH the directory for
checkpoint files.  It reads one command per line on stdin and answers each
with one JSON line on stdout:

``setup [trace]``
    One cold set-up -- ``Dtd.parse``, ``Engine`` over M2-M5, a first
    ``open()``, and ``aio.serve_records`` ready to accept -- with its
    seconds as ``{"setup_s"}`` and the slower of the host probes before
    and after it as ``"probe_s"``; ``trace`` adds the compile-layer
    metrics.  Later passes serve with its engine.
``serve MODE``
    Start a server with a fresh checkpoint file for one pass and answer
    ``{"port": n}``.  MODE ``memory`` traces allocations, ``trace`` records
    layer spans, ``plain`` does neither but probes the host first.
``done``
    End the pass: ``{"peak_mb"}`` after ``memory``, the span summary after
    ``trace``; after ``plain``, ``{"cpu_s"}`` (this process's CPU seconds
    during the pass) and the slower of the host probes taken before and
    after it as ``"probe_s"``.
``quit``
    Exit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import build  # noqa: E402

_clock = time.perf_counter
END_TAG = b"</MedlineCitationSet>"
QUERIES = ("M2", "M3", "M4", "M5")


class ServingState:
    def __init__(self, accel, scratch: str) -> None:
        self.accel = accel
        self.directory = tempfile.TemporaryDirectory(dir=scratch)
        self.servers = 0
        self.engine = None
        self.server = None
        self.mode = "plain"
        self.tracer = None
        self.finished: list = []

    def _checkpoint(self) -> str:
        self.servers += 1
        return str(Path(self.directory.name) / f"checkpoint-{self.servers}")

    async def setup(self, traced: str = "") -> dict:
        from repro import Dtd, aio, api
        from repro.workloads.medline import MEDLINE_QUERIES
        from repro.workloads.medline.dtd import MEDLINE_DTD_TEXT

        import layers
        from spans import Tracer, summarise
        from workloads import host_probe

        tracer = Tracer()
        if traced:
            layers.install_compile_spans(tracer)
        before = host_probe()
        gc.collect()
        started = _clock()
        dtd = Dtd.parse(MEDLINE_DTD_TEXT)
        engine = api.Engine(
            [api.Query.from_spec(dtd, MEDLINE_QUERIES[name]) for name in QUERIES],
            mode="shared",
        )
        engine.open(binary=True).close()
        server = await aio.serve_records(
            engine, end_tag=END_TAG, checkpoint=self._checkpoint()
        )
        ended = _clock()
        server.close()
        await server.wait_closed()
        probe = max(before, host_probe())
        tracer.restore()
        build.require_native(engine)
        self.engine = engine
        reply = {"setup_s": ended - started, "probe_s": probe}
        if traced:
            reply["compile"] = layers.setup_metrics(
                summarise(tracer.spans, [(started, ended)]), engine.plans
            )
        return reply

    async def serve(self, mode: str) -> dict:
        from repro import aio

        import layers
        from spans import Tracer

        await self._stop_server()
        self.mode = mode
        if mode == "memory":
            gc.collect()
            tracemalloc.start()
        elif mode == "trace":
            self.tracer = Tracer()
            self.finished = []
            layers.install_spans(
                self.tracer, self.accel,
                on_finish=lambda session: self.finished.append(
                    (session.stats, session.scan_stats)
                ),
            )
        elif mode == "plain":
            from workloads import host_probe

            self.probe = host_probe()
        else:
            raise ValueError(f"unknown pass mode {mode!r}")
        self.server = await aio.serve_records(
            self.engine, end_tag=END_TAG, checkpoint=self._checkpoint()
        )
        self.cpu_started = time.process_time()
        return {"port": self.server.sockets[0].getsockname()[1]}

    async def done(self) -> dict:
        from workloads import host_probe

        await self._stop_server()
        if self.mode == "memory":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return {"peak_mb": peak / 1e6}
        if self.mode == "trace":
            self.tracer.restore()
            return self._trace_summary()
        return {"cpu_s": time.process_time() - self.cpu_started,
                "probe_s": max(self.probe, host_probe())}

    def _trace_summary(self) -> dict:
        import layers
        from spans import summarise

        tracer = self.tracer
        opens = [span[1] for span in tracer.spans if span[0] == "session.open"]
        acks = tracer.marks["aio.record_frame"]
        if len(opens) != len(acks) or not acks:
            raise RuntimeError(
                f"{len(opens)} session opens for {len(acks)} record acks"
            )
        # A record's trial window runs from its session open until its
        # FRAME_RECORD was written; reads and drains in between are idle.
        summary = summarise(tracer.spans, list(zip(opens, acks)))
        for name, layer in summary["layers"].items():
            if name != "checkpoint.commit":
                layer["durations"] = []
        records = len(acks)
        stats = [record for query_stats, _ in self.finished for record in query_stats]
        scans = [scan for _, scan in self.finished if scan is not None]
        input_bytes = sum(scan.input_size for scan in scans)
        extra = layers.runtime_metrics(stats, layers.merged(scans), input_bytes)
        for name in ("runtime.tokens_matched", "runtime.regions_copied",
                     "multi.tokens_matched"):
            extra[name] /= records
        extra["emit.fragments"] = tracer.counters["aio.data_frames"] / records
        extra["emit.bytes"] = layers.merged(stats).output_size / records
        return {
            "summary": summary, "records": records,
            "counters": dict(tracer.counters), "extra": extra,
        }

    async def _stop_server(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    async def close(self) -> None:
        await self._stop_server()
        if self.tracer is not None:
            self.tracer.restore()
        self.directory.cleanup()


async def main(lib: Path, scratch: str) -> None:
    accel = build.load_repro(HERE.parent, lib)
    state = ServingState(accel, scratch)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            words = line.split()
            if not words or words[0] == "quit":
                break
            handler = {"setup": state.setup, "serve": state.serve,
                       "done": state.done}.get(words[0])
            try:
                if handler is None:
                    raise ValueError(f"unknown command {words[0]!r}")
                reply = await handler(*words[1:])
            except Exception as error:  # noqa: BLE001 -- reported to the parent
                reply = {"error": f"{type(error).__name__}: {error}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        await state.close()


if __name__ == "__main__":
    asyncio.run(main(Path(sys.argv[1]), sys.argv[2]))
