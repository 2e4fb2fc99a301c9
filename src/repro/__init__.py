"""Reproduction of *XML Prefiltering as a String Matching Problem* (ICDE 2008).

The package implements the SMP prefilter of Koch, Scherzinger and Schmidt and
every substrate it depends on: Boyer-Moore / Commentz-Walter string matching,
DTD parsing and DTD automata, the projection semantics of Section III, a
token-based reference projector, SAX-style tokenization, in-memory and
streaming XPath engines, and synthetic XMark / MEDLINE workloads.

Quickstart -- the unified dataflow API (Source → Query → Engine → Sink)::

    from repro import Dtd, api

    dtd = Dtd.parse(open("site.dtd").read())
    engine = api.Engine(api.Query("//australia//description", dtd))

    run = engine.run(api.Source.from_file("site.xml"))     # O(chunk) memory
    print(run.single.output)                               # the projection
    print(run.single.stats.char_comparison_ratio, "% of bytes inspected")

Sources cover every input shape with uniform chunk-size/alignment options
(``from_text``, ``from_bytes``, ``from_file``, ``from_mmap``,
``from_stdin``, ``from_socket``, ``from_iter``); sinks stream the
projection anywhere (``FileSink``, ``CollectSink``, ``CallbackSink``,
``NullSink``).  N queries share **one** document scan, each with its own
labelled sink::

    engine = api.Engine([api.Query(q, dtd) for q in queries])
    engine.run(api.Source.from_mmap("site.xml"),
               sinks={label: api.FileSink(f"{label}.xml") for label in engine.labels})

Sessions are incremental and *live*: ``feed``/``finish`` chunk by chunk,
with mid-stream query management::

    session = engine.open(live=True, binary=True)
    for chunk in chunks:
        session.feed(chunk)
    handle = session.attach(api.Query("//person//name", dtd))   # hot attach
    session.detach(handle)                                      # hot detach

The asyncio bridge (:mod:`repro.aio`) serves the same dataflow over
sockets -- ``await aio.serve(engine)`` multiplexes one document in, N
labelled projection streams out, with sink backpressure.  The Figure 7(b)
pairing evaluates XPath on a projection with
:meth:`repro.xpath.StreamingXPathEngine.evaluate`.  The same functionality
is available from the shell as ``python -m repro``.  Any live session can
be captured to a durable, checksummed :class:`Checkpoint`
(``session.checkpoint(path)``)
and resumed after a crash via ``engine.open(resume=path)``; corpus runs
journal per-document results for exactly-once restart
(:mod:`repro.checkpoint`).
"""

from repro import api, faults, parallel
from repro.api import (
    CallbackSink,
    Checkpoint,
    CollectSink,
    CorpusRun,
    DocumentRun,
    Engine,
    EngineRun,
    FileSink,
    NullSink,
    Query,
    QueryHandle,
    QueryResult,
    Session,
    Sink,
    Source,
)
from repro.core.multi import MultiQueryEngine, MultiQueryRun, MultiQuerySession
from repro.core.prefilter import FilterSession, SmpPrefilter
from repro.core.sources import (
    BufferPool,
    RetryPolicy,
    align_utf8_chunks,
    decode_chunks,
    file_chunks,
    iter_byte_chunks,
    mmap_chunks,
    socket_chunks,
    split_documents,
    stdin_chunks,
)
from repro.core.stream import DEFAULT_CHUNK_SIZE, iter_chunks
from repro.core.stats import CompilationStatistics, FilterRun, RunStatistics
from repro.dtd.model import Dtd
from repro.errors import (
    CheckpointError,
    CompilationError,
    DtdRecursionError,
    DtdSyntaxError,
    DtdValidationError,
    MatchingError,
    ProjectionPathError,
    QueryError,
    ReproError,
    RuntimeFilterError,
    SourceError,
    WorkloadError,
    XPathSyntaxError,
    XmlSyntaxError,
)
from repro.faults import FaultPlan
from repro.parallel import DocumentFailure, ParallelExecutionError, WorkerPool
from repro.projection.extraction import QuerySpec, extract_paths_from_xpath
from repro.projection.paths import ProjectionPath, parse_projection_paths
from repro.projection.reference import ReferenceProjector

__version__ = "1.1.0"

__all__ = [
    "BufferPool",
    "CallbackSink",
    "CollectSink",
    "Checkpoint",
    "CheckpointError",
    "CorpusRun",
    "CompilationError",
    "CompilationStatistics",
    "DEFAULT_CHUNK_SIZE",
    "Dtd",
    "DtdRecursionError",
    "DtdSyntaxError",
    "DocumentFailure",
    "DocumentRun",
    "DtdValidationError",
    "Engine",
    "EngineRun",
    "FaultPlan",
    "FileSink",
    "FilterRun",
    "FilterSession",
    "MatchingError",
    "MultiQueryEngine",
    "MultiQueryRun",
    "MultiQuerySession",
    "NullSink",
    "ParallelExecutionError",
    "ProjectionPath",
    "ProjectionPathError",
    "Query",
    "QueryError",
    "QueryHandle",
    "QueryResult",
    "QuerySpec",
    "ReferenceProjector",
    "ReproError",
    "RetryPolicy",
    "RunStatistics",
    "RuntimeFilterError",
    "Session",
    "Sink",
    "SmpPrefilter",
    "Source",
    "SourceError",
    "WorkerPool",
    "WorkloadError",
    "XPathSyntaxError",
    "XmlSyntaxError",
    "__version__",
    "aio",
    "align_utf8_chunks",
    "api",
    "decode_chunks",
    "extract_paths_from_xpath",
    "faults",
    "file_chunks",
    "iter_byte_chunks",
    "iter_chunks",
    "mmap_chunks",
    "parallel",
    "parse_projection_paths",
    "socket_chunks",
    "split_documents",
    "stdin_chunks",
]


def __getattr__(name):
    # ``repro.aio`` pulls in asyncio; import it only when first touched.
    if name == "aio":
        import repro.aio as aio

        return aio
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
