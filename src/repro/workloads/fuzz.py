"""Differential fuzzing across all execution paths of the engine.

The engine has four execution paths — whole-document, chunked (any split),
shared multi-query scan, and parallel corpus — times two token delivery
tiers (the pure ``batched`` reference and, when the C extension is built,
native ``accel``), and they must all be byte-identical with equal
statistics.  The reference of every comparison is the whole-document
``batched`` run.  This driver turns the generator
subsystem into an automated equivalence obligation: every generated
(record, query) pair runs through the whole matrix and any disagreement is
reported with a seed-addressable repro line.

A *case* is fully determined by ``(scenario, case_seed)``: the scenario
names fixed schema/document/query parameters (deep unrolled recursion,
huge attributes, pathological keyword overlap, dense multi-byte UTF-8,
CDATA/comment/DOCTYPE markup, many-record corpora...), the case seed feeds
every RNG.  ``run_fuzz`` derives case seeds deterministically from the
master seed, so ``python -m repro fuzz --seed S --budget N`` is exactly
reproducible, and each reported divergence carries the one-case repro line
``python -m repro fuzz --only <scenario> --case-seed <case_seed>``.

Comparison contract (matching the repository's equivalence tests):

- whole vs chunked vs every delivery, single query: byte-identical output
  and an equal 11-field statistics tuple (:data:`STATS_FIELDS`);
- shared multi-query scan vs single-query search: byte-identical per-query
  output and equal *structural* statistics (:data:`STRUCTURAL_FIELDS`) —
  the shared scan pays character comparisons once on the scan, so the
  per-query matcher counters legitimately differ;
- sequential corpus vs ``Engine(mode="parallel")``: byte-identical
  per-query aggregate output and equal merged statistics, and the
  sequential aggregate must equal the concatenation of the per-record
  reference outputs.

``inject_seed`` deliberately corrupts the chunked view of the last record
(via :func:`repro.faults.flip_bits`) **without** touching the reference —
a known divergence that the driver must catch, used by the test suite to
prove the harness actually detects disagreements.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from random import Random

from repro.accel import accel_available
from repro.api import Engine, Query, Source
from repro.core.multi import MultiQueryEngine
from repro.core.prefilter import SmpPrefilter
from repro.errors import ReproError, WorkloadError
from repro.faults import flip_bits
from repro.workloads.generate import DocumentSpec, generate_records
from repro.workloads.queries import generate_queries
from repro.workloads.schema import SchemaSpec, build_schema, parse_kv

#: The full statistics tuple that must agree across chunkings and
#: deliveries of the same single-query run.
STATS_FIELDS = (
    "input_size", "output_size", "char_comparisons", "local_scan_chars",
    "shifts", "shift_total", "initial_jumps", "initial_jump_chars",
    "tokens_matched", "tokens_copied", "regions_copied",
)

#: The structural subset that must agree between the searching path and
#: the shared multi-query scan (whose per-query matcher counters are zero
#: because the scan pays them once).
STRUCTURAL_FIELDS = (
    "input_size", "output_size", "tokens_matched", "tokens_copied",
    "regions_copied", "initial_jumps", "initial_jump_chars",
    "local_scan_chars",
)

#: Adversarial chunk-split flavours.
CHUNK_FLAVORS = ("tiny", "midtag", "midutf8", "mixed")


@dataclass(frozen=True)
class Scenario:
    """One named point of the fuzz matrix (seedless; the case adds seeds)."""

    name: str
    schema: str          # SchemaSpec kv string, without seed
    document: str        # DocumentSpec kv string, without seed
    query_count: int
    flavors: tuple[str, ...]
    description: str


#: The scenario matrix.  Record sizes are deliberately small: the value of
#: a fuzz case is in its shape, and small records buy more (record, query)
#: pairs per CPU second.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            "baseline", "depth=4,fanout=3", "records=4,record_bytes=600",
            6, ("tiny", "midtag", "mixed"),
            "Moderate tree, all query families.",
        ),
        Scenario(
            "deep", "depth=12,fanout=2,chain=8",
            "records=3,record_bytes=800",
            6, ("tiny", "midtag"),
            "Deep nesting plus an unrolled-recursion chain.",
        ),
        Scenario(
            "wide", "depth=3,fanout=7", "records=3,record_bytes=800",
            6, ("tiny", "midtag"),
            "Shallow but wide content models.",
        ),
        Scenario(
            "huge_attributes", "depth=4,fanout=3,attr_density=0.9",
            "records=3,attr_bytes=1500",
            6, ("tiny", "midtag"),
            "Attribute payloads dwarf the element structure.",
        ),
        Scenario(
            "overlap", "depth=6,fanout=3,alphabet=overlap",
            "records=3,record_bytes=800",
            6, ("tiny", "midtag"),
            "Pathological keyword overlap: tags are prefixes of each other.",
        ),
        Scenario(
            "longnames", "depth=4,fanout=2,alphabet=long",
            "records=3,record_bytes=700",
            4, ("midtag",),
            "24+-character tag keywords dominate the byte stream.",
        ),
        Scenario(
            "utf8", "depth=4,fanout=3",
            "records=3,record_bytes=700,utf8=0.35",
            6, ("tiny", "midutf8", "mixed"),
            "Dense multi-byte text; splits land inside encoded characters.",
        ),
        Scenario(
            "markup", "depth=4,fanout=3",
            "records=3,record_bytes=700,cdata=0.3,comments=0.25,doctype=1",
            6, ("tiny", "midtag"),
            "CDATA sections, comments and DOCTYPE prologues per record.",
        ),
        Scenario(
            "records", "depth=3,fanout=3",
            "records=10,record_bytes=400",
            4, ("mixed",),
            "Many small records: corpus splitting and parallel sharding.",
        ),
        Scenario(
            "json", "", "records=8,utf8=0.2,note_density=0.6",
            7, ("tiny", "mixed"),
            "Second grammar: JSONL records mapped onto the XML runtime.",
        ),
    )
}


def available_deliveries() -> tuple[str, ...]:
    """The token-delivery tiers importable in this process."""
    return ("batched", "accel") if accel_available() else ("batched",)


# ----------------------------------------------------------------------
# Adversarial chunk splits
# ----------------------------------------------------------------------
def adversarial_chunks(data: bytes, flavor: str,
                       rng: Random | None = None) -> list[bytes]:
    """Split ``data`` adversarially; concatenation is always ``data``."""
    if flavor == "tiny":
        # 1-3 byte chunks: every carry-over path runs on every feed.
        chunks, position, size = [], 0, 1
        while position < len(data):
            chunks.append(data[position:position + size])
            position += size
            size = size % 3 + 1
        return chunks
    if flavor == "midtag":
        # A boundary immediately after every '<': each tag keyword is cut.
        cuts = [i + 1 for i, byte in enumerate(data) if byte == 0x3C]
    elif flavor == "midutf8":
        # Boundaries on UTF-8 continuation bytes: splits inside characters.
        cuts = [i for i, byte in enumerate(data) if byte & 0xC0 == 0x80]
    elif flavor == "mixed":
        if rng is None:
            raise WorkloadError("flavor 'mixed' needs an rng")
        cuts = sorted(rng.sample(range(1, len(data)),
                                 min(len(data) - 1, max(1, len(data) // 41))))
    else:
        raise WorkloadError(
            f"unknown chunk flavor {flavor!r}; expected one of {CHUNK_FLAVORS}"
        )
    chunks, previous = [], 0
    for cut in cuts:
        if cut <= previous or cut >= len(data):
            continue
        chunks.append(data[previous:cut])
        previous = cut
    chunks.append(data[previous:])
    return chunks


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """One disagreement between execution paths, seed-addressable."""

    scenario: str
    case_seed: int
    query: str
    record: int
    comparison: str
    detail: str
    inject_seed: int | None = None

    @property
    def repro(self) -> str:
        if self.scenario.startswith("kill-resume"):
            return (f"python -m repro fuzz --kill-resume "
                    f"--case-seed {self.case_seed}")
        line = (f"python -m repro fuzz --only {self.scenario} "
                f"--case-seed {self.case_seed}")
        if self.inject_seed is not None:
            line += f" --inject-seed {self.inject_seed}"
        return line

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "case_seed": self.case_seed,
            "query": self.query,
            "record": self.record,
            "comparison": self.comparison,
            "detail": self.detail,
            "inject_seed": self.inject_seed,
            "repro": self.repro,
        }


@dataclass
class CaseResult:
    """One executed (scenario, case_seed) cell of the matrix."""

    scenario: str
    case_seed: int
    pairs: int = 0
    queries: tuple[str, ...] = ()
    divergences: list[Divergence] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "case_seed": self.case_seed,
            "pairs": self.pairs,
            "queries": list(self.queries),
            "divergences": [d.to_dict() for d in self.divergences],
        }


@dataclass
class FuzzReport:
    """The whole run: deterministic in (seed, budget, scenario selection)."""

    seed: int
    budget: int
    deliveries: tuple[str, ...]
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return sum(case.pairs for case in self.cases)

    @property
    def divergences(self) -> list[Divergence]:
        return [d for case in self.cases for d in case.divergences]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "deliveries": list(self.deliveries),
            "pairs": self.pairs,
            "cases": [case.to_dict() for case in self.cases],
            "divergence_count": len(self.divergences),
            "ok": self.ok,
        }


def _stats_tuple(stats, fields=STATS_FIELDS) -> tuple:
    return tuple(getattr(stats, name) for name in fields)


def _first_difference(left: bytes, right: bytes) -> str:
    if len(left) != len(right):
        prefix = f"lengths {len(left)} != {len(right)}; "
    else:
        prefix = ""
    limit = min(len(left), len(right))
    for offset in range(limit):
        if left[offset] != right[offset]:
            return (f"{prefix}first differing byte at offset {offset}: "
                    f"{left[offset]:#x} != {right[offset]:#x}")
    return prefix + f"one output is a prefix of the other (at {limit})"


def _stats_difference(left, right, fields) -> str | None:
    for name in fields:
        a, b = getattr(left, name), getattr(right, name)
        if a != b:
            return f"stats field {name}: {a} != {b}"
    return None


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------
class _CaseRunner:
    def __init__(self, scenario: Scenario, case_seed: int, *,
                 deliveries: tuple[str, ...], jobs: int,
                 inject_seed: int | None) -> None:
        self._scenario = scenario
        self._seed = case_seed
        self._deliveries = deliveries
        self._jobs = jobs
        self._inject_seed = inject_seed
        self._result = CaseResult(scenario.name, case_seed)
        self._rng = Random(("case", scenario.name, case_seed).__repr__())
        self._prepare()
        self._result.queries = tuple(q.name for q in self._queries)

    def _prepare(self) -> None:
        """Build records, queries and plans (the XML generator path)."""
        scenario, case_seed = self._scenario, self._seed
        schema_kwargs = parse_kv(scenario.schema, SchemaSpec)
        schema_kwargs["seed"] = case_seed
        self._schema = build_schema(SchemaSpec(**schema_kwargs))
        document_kwargs = parse_kv(scenario.document, DocumentSpec)
        document_kwargs["seed"] = case_seed
        self._document_spec = DocumentSpec(**document_kwargs)
        self._records = generate_records(self._schema, self._document_spec)
        self._queries = generate_queries(
            self._schema, seed=case_seed, count=scenario.query_count
        )
        self._dtd = self._schema.dtd
        self._plans = [
            SmpPrefilter.cached_for_query(
                self._dtd, query.spec(), backend="native"
            )
            for query in self._queries
        ]

    def _corpus_source(self) -> Source:
        """A fresh corpus Source over the generated records (one-shot)."""
        stream = b"\n".join(self._records) + b"\n"
        return Source.from_records(
            stream, end_tag=self._schema.end_tag, chunk_size=173
        )

    # ------------------------------------------------------------------
    def run(self) -> CaseResult:
        references = self._single_query_matrix()
        self._shared_scan(references)
        self._corpus(references)
        return self._result

    def _diverge(self, query: str, record: int, comparison: str,
                 detail: str) -> None:
        self._result.divergences.append(Divergence(
            scenario=self._scenario.name,
            case_seed=self._seed,
            query=query,
            record=record,
            comparison=comparison,
            detail=detail,
            inject_seed=self._inject_seed,
        ))

    def _chunked_view(self, index: int) -> bytes:
        """The bytes the chunked paths see (the injection target)."""
        data = self._records[index]
        if (self._inject_seed is not None
                and index == len(self._records) - 1):
            data = flip_bits(data, seed=self._inject_seed, flips=3)
        return data

    def _run_single(self, plan: SmpPrefilter, chunks: list[bytes],
                    delivery: str):
        session = plan.session(binary=True, delivery=delivery)
        return session.run(chunks)

    # ------------------------------------------------------------------
    def _single_query_matrix(self) -> list[list]:
        """Whole vs chunked vs deliveries; returns per-query per-record
        reference (batched, whole-document) runs."""
        flavors = self._scenario.flavors
        references: list[list] = []
        for query, plan in zip(self._queries, self._plans):
            per_record = []
            for index, record in enumerate(self._records):
                self._result.pairs += 1
                reference = self._run_single(plan, [record], "batched")
                per_record.append(reference)
                chunked_data = self._chunked_view(index)
                for delivery in self._deliveries:
                    if delivery != "batched":
                        self._compare_single(
                            query.name, index, reference,
                            plan, [record], delivery,
                            comparison=f"whole[batched] vs whole[{delivery}]",
                        )
                    for flavor in flavors:
                        chunks = adversarial_chunks(
                            chunked_data, flavor, self._rng
                        )
                        self._compare_single(
                            query.name, index, reference,
                            plan, chunks, delivery,
                            comparison=(f"whole[batched] vs "
                                        f"chunked[{delivery}]/{flavor}"),
                        )
            references.append(per_record)
        return references

    def _compare_single(self, query: str, record: int, reference,
                        plan, chunks, delivery, *, comparison: str) -> None:
        try:
            run = self._run_single(plan, chunks, delivery)
        except ReproError as error:
            self._diverge(query, record, comparison,
                          f"{type(error).__name__}: {error}")
            return
        if run.output != reference.output:
            self._diverge(query, record, comparison,
                          _first_difference(run.output, reference.output))
            return
        detail = _stats_difference(run.stats, reference.stats, STATS_FIELDS)
        if detail is not None:
            self._diverge(query, record, comparison, detail)

    # ------------------------------------------------------------------
    def _shared_scan(self, references) -> None:
        """Shared multi-query sessions vs the single-query references."""
        engine = MultiQueryEngine(
            self._dtd, list(self._plans), backend="native"
        )
        flavors = self._scenario.flavors
        for index, record in enumerate(self._records):
            for delivery in self._deliveries:
                flavor = flavors[index % len(flavors)]
                for chunks, label in (
                    ([record], f"shared-whole[{delivery}]"),
                    (adversarial_chunks(record, flavor, self._rng),
                     f"shared-chunked[{delivery}]/{flavor}"),
                ):
                    self._compare_shared(
                        engine, chunks, delivery, index, references, label
                    )

    def _compare_shared(self, engine, chunks, delivery, index,
                        references, label) -> None:
        comparison = f"whole[batched] vs {label}"
        try:
            session = engine.session(binary=True, delivery=delivery)
            pieces: list[list[bytes]] = [[] for _ in self._queries]
            for chunk in chunks:
                for position, piece in enumerate(session.feed(chunk)):
                    pieces[position].append(piece)
            for position, piece in enumerate(session.finish()):
                pieces[position].append(piece)
        except ReproError as error:
            self._diverge("*", index, comparison,
                          f"{type(error).__name__}: {error}")
            return
        for position, query in enumerate(self._queries):
            reference = references[position][index]
            output = b"".join(pieces[position])
            if output != reference.output:
                self._diverge(query.name, index, comparison,
                              _first_difference(output, reference.output))
                continue
            detail = _stats_difference(
                session.stats[position], reference.stats, STRUCTURAL_FIELDS
            )
            if detail is not None:
                self._diverge(query.name, index, comparison, detail)

    # ------------------------------------------------------------------
    def _corpus(self, references) -> None:
        """Sequential corpus vs parallel corpus vs concatenated references."""
        queries = [
            Query.from_plan(plan, label=query.name)
            for query, plan in zip(self._queries, self._plans)
        ]
        try:
            sequential = Engine(queries).run(
                self._corpus_source(), binary=True
            )
            parallel = Engine(queries, mode="parallel", jobs=self._jobs).run(
                self._corpus_source(), binary=True
            )
        except ReproError as error:
            self._diverge("*", -1, "corpus sequential vs parallel",
                          f"{type(error).__name__}: {error}")
            return
        for position, query in enumerate(self._queries):
            concatenated = b"".join(
                run.output for run in references[position]
            )
            seq_result = sequential.results[position]
            par_result = parallel.results[position]
            if seq_result.output != concatenated:
                self._diverge(
                    query.name, -1,
                    "concatenated whole[batched] vs corpus-sequential",
                    _first_difference(seq_result.output, concatenated),
                )
            if par_result.output != seq_result.output:
                self._diverge(
                    query.name, -1, "corpus-sequential vs corpus-parallel",
                    _first_difference(par_result.output, seq_result.output),
                )
                continue
            detail = _stats_difference(
                par_result.stats, seq_result.stats, STATS_FIELDS
            )
            if detail is not None:
                self._diverge(query.name, -1,
                              "corpus-sequential vs corpus-parallel", detail)


class _JsonCaseRunner(_CaseRunner):
    """The second-grammar cell: JSONL records mapped onto the runtime.

    Records are generated as JSON, mapped to XML with the
    :mod:`repro.workloads.json_records` mapping, and held to the same
    differential obligations; the corpus leg additionally exercises
    ``Source.from_jsonl`` (JSONL line splitting + per-record transform)
    instead of end-tag splitting.
    """

    def _prepare(self) -> None:
        from repro.workloads import json_records

        kwargs = parse_kv(self._scenario.document, json_records.JsonSpec)
        kwargs["seed"] = self._seed
        self._json_spec = json_records.JsonSpec(**kwargs)
        self._records = json_records.xml_records(self._json_spec)
        self._jsonl = json_records.generate_jsonl(self._json_spec)
        self._queries = json_records.json_queries()
        self._dtd = json_records.json_dtd()
        self._schema = None
        self._plans = [
            SmpPrefilter.cached_for_query(
                self._dtd, query.spec(), backend="native"
            )
            for query in self._queries
        ]

    def _corpus_source(self) -> Source:
        from repro.workloads.json_records import json_record_to_xml

        return Source.from_jsonl(
            self._jsonl, transform=json_record_to_xml, chunk_size=173
        )


def run_case(scenario: "Scenario | str", case_seed: int, *,
             deliveries: tuple[str, ...] | None = None,
             jobs: int = 2, inject_seed: int | None = None) -> CaseResult:
    """Execute one fully-determined fuzz case."""
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise WorkloadError(
                f"unknown scenario {scenario!r}; expected one of "
                f"{sorted(SCENARIOS)}"
            ) from None
    runner_type = _JsonCaseRunner if scenario.name == "json" else _CaseRunner
    runner = runner_type(
        scenario, case_seed,
        deliveries=deliveries or available_deliveries(),
        jobs=jobs, inject_seed=inject_seed,
    )
    return runner.run()


def run_fuzz(*, seed: int, budget: int = 200,
             scenarios: "tuple[str, ...] | None" = None,
             case_seed: int | None = None,
             deliveries: tuple[str, ...] | None = None,
             jobs: int = 2, inject_seed: int | None = None,
             progress=None) -> FuzzReport:
    """Run the scenario matrix until ``budget`` (record, query) pairs ran.

    Fully deterministic in ``(seed, budget, scenarios, case_seed)``: case
    seeds derive from the master seed per (scenario, round) and every
    generator downstream is seeded from them.  With ``case_seed`` the
    selected scenarios run exactly once with that seed (the repro mode the
    divergence lines point at) and ``budget`` is ignored.
    """
    names = tuple(scenarios) if scenarios else tuple(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise WorkloadError(
                f"unknown scenario {name!r}; expected one of "
                f"{sorted(SCENARIOS)}"
            )
    resolved = deliveries or available_deliveries()
    report = FuzzReport(seed=seed, budget=budget, deliveries=resolved)
    if case_seed is not None:
        for name in names:
            report.cases.append(run_case(
                name, case_seed, deliveries=resolved, jobs=jobs,
                inject_seed=inject_seed,
            ))
            if progress is not None:
                progress(report.cases[-1])
        return report
    round_number = 0
    while report.pairs < budget:
        for name in names:
            derived = Random(
                ("fuzz-case", seed, name, round_number).__repr__()
            ).getrandbits(32)
            report.cases.append(run_case(
                name, derived, deliveries=resolved, jobs=jobs,
                inject_seed=inject_seed,
            ))
            if progress is not None:
                progress(report.cases[-1])
            if report.pairs >= budget:
                break
        round_number += 1
    return report


# ----------------------------------------------------------------------
# Kill-and-resume: SIGKILL at a seeded offset, resume, assert identity
# ----------------------------------------------------------------------
#: The workloads of the kill-and-resume matrix: the MEDLINE dataset, the
#: generated-XML grammar and the JSONL second grammar.
KILL_RESUME_WORKLOADS = ("medline", "gen:", "json:")

#: Chunk flavours with bounded chunk counts (every chunk boundary is a
#: potential checkpoint, so "tiny" would mean thousands of fsyncs).
KILL_RESUME_FLAVORS = ("midtag", "mixed")


def _kill_resume_setup(workload: str, case_seed: int, backend: str):
    """Deterministically rebuild (document bytes, compiled plan) for a
    kill-and-resume case — called identically in parent and child."""
    if workload == "medline":
        from repro.workloads.datasets import load_dataset
        from repro.workloads.medline import (
            MEDLINE_QUERIES, MEDLINE_QUERY_ORDER, medline_dtd,
        )

        document = load_dataset(
            "medline", size_bytes=16_000 + (case_seed % 5) * 1000
        ).encode("utf-8")
        order = [n for n in MEDLINE_QUERY_ORDER if n != "M1"]
        spec = MEDLINE_QUERIES[order[case_seed % len(order)]]
        dtd = medline_dtd()
    elif workload.startswith("gen:"):
        schema = build_schema(SchemaSpec(depth=5, fanout=3, seed=case_seed))
        records = generate_records(schema, DocumentSpec(
            records=1, record_bytes=12_000, seed=case_seed,
        ))
        document = records[0]
        queries = generate_queries(schema, seed=case_seed, count=4)
        spec = queries[case_seed % len(queries)].spec()
        dtd = schema.dtd
    elif workload.startswith("json:"):
        from repro.workloads import json_records

        json_spec = json_records.JsonSpec(
            records=1, seed=case_seed, note_density=0.5,
        )
        document = json_records.xml_records(json_spec)[0]
        queries = json_records.json_queries()
        spec = queries[case_seed % len(queries)].spec()
        dtd = json_records.json_dtd()
    else:
        raise WorkloadError(
            f"unknown kill-resume workload {workload!r}; expected one of "
            f"{KILL_RESUME_WORKLOADS}"
        )
    plan = SmpPrefilter.cached_for_query(dtd, spec, backend=backend)
    return document, plan


def _kill_resume_chunks(document: bytes, flavor: str, case_seed: int):
    """The adversarial chunking of a case (same split in parent & child)."""
    rng = Random(("kill-resume-chunks", case_seed, flavor).__repr__())
    return adversarial_chunks(document, flavor, rng)


def _kill_resume_child(config: dict) -> None:
    """Child-process body: filter + checkpoint, then SIGKILL itself.

    Runs in a spawned process.  Feeds the case's adversarial chunks into a
    streaming session whose projected bytes go straight to the output
    file; every ``interval``-th chunk boundary flushes the file and writes
    an atomic checkpoint.  At the seeded kill chunk the process SIGKILLs
    itself — either *before* the boundary's checkpoint (resume must replay
    from the previous one) or right *after* it (resume starts exactly at
    the boundary), so both torn-progress shapes are exercised.
    """
    import signal

    from repro.checkpoint import write_checkpoint

    document, plan = _kill_resume_setup(
        config["workload"], config["case_seed"], config["backend"]
    )
    chunks = _kill_resume_chunks(
        document, config["flavor"], config["case_seed"]
    )
    kill_index = config["kill_index"]
    kill_phase = config["kill_phase"]
    interval = config["interval"]
    with open(config["output_path"], "wb") as out:
        session = plan.session(
            sink=out.write, binary=True, delivery=config["delivery"]
        )
        consumed = 0
        for index, chunk in enumerate(chunks):
            session.feed(chunk)
            consumed += len(chunk)
            boundary = index % interval == 0
            if boundary and kill_phase == "before" and index >= kill_index:
                os.kill(os.getpid(), signal.SIGKILL)
            if boundary:
                out.flush()
                state = session.export_state()
                write_checkpoint(config["checkpoint_path"], {
                    "kind": "fuzz-stream",
                    "input_offset": consumed,
                    "output_size": state["emitted_bytes"],
                    "delivery": session.delivery,
                    "state": state,
                })
            if boundary and kill_phase == "after" and index >= kill_index:
                os.kill(os.getpid(), signal.SIGKILL)
    # Not reached: kill_index always fires.  Exit loudly if it did not.
    os._exit(86)


def _resume_killed_case(config: dict):
    """Parent-side recovery: load the checkpoint, resume, run to the end.

    Returns ``(output bytes, RunStatistics)`` of the recovered run.
    """
    from repro.checkpoint import read_checkpoint, resume_chunks

    document, plan = _kill_resume_setup(
        config["workload"], config["case_seed"], config["backend"]
    )
    chunks = _kill_resume_chunks(
        document, config["flavor"], config["case_seed"]
    )
    snapshot = read_checkpoint(config["checkpoint_path"])
    if snapshot.get("kind") != "fuzz-stream":
        raise WorkloadError("unexpected checkpoint kind in kill-resume case")
    with open(config["output_path"], "r+b") as out:
        out.truncate(int(snapshot["output_size"]))
        out.seek(int(snapshot["output_size"]))
        session = plan.session(
            sink=out.write, binary=True, delivery=snapshot["delivery"]
        )
        session.import_state(snapshot["state"])
        for chunk in resume_chunks(chunks, int(snapshot["input_offset"])):
            session.feed(chunk)
        session.finish()
        out.flush()
    with open(config["output_path"], "rb") as out:
        output = out.read()
    return output, session.stats


def run_kill_resume(*, seed: int, case_seed: int | None = None,
                    workloads: tuple[str, ...] = KILL_RESUME_WORKLOADS,
                    deliveries: tuple[str, ...] | None = None,
                    rounds: int = 1, progress=None) -> list[CaseResult]:
    """The kill-and-resume chaos matrix: workloads × deliveries × flavours.

    Each cell: an uninterrupted reference run; then a spawned child that
    filters the same adversarial chunk stream, checkpoints at chunk
    boundaries and SIGKILLs itself at a seeded offset; then an in-process
    resume from the surviving checkpoint.  The recovered output bytes and
    the full 11-field statistics tuple (:data:`STATS_FIELDS`) must be
    identical to the uninterrupted run.  Backends alternate between
    ``native`` and ``instrumented`` per cell.
    """
    import multiprocessing
    import tempfile

    resolved = deliveries or available_deliveries()
    spawn = multiprocessing.get_context("spawn")
    cases: list[CaseResult] = []
    for round_number in range(max(1, rounds)):
        if case_seed is not None and round_number:
            break
        derived = case_seed if case_seed is not None else Random(
            ("kill-resume", seed, round_number).__repr__()
        ).getrandbits(32)
        for workload in workloads:
            case = CaseResult(f"kill-resume:{workload}", derived)
            rng = Random(("kill-resume-case", derived, workload).__repr__())
            for delivery in resolved:
                for flavor in KILL_RESUME_FLAVORS:
                    case.pairs += 1
                    backend = ("native", "instrumented")[case.pairs % 2]
                    detail = _run_one_kill_resume(
                        workload, derived, delivery, flavor, backend,
                        rng, spawn, tempfile,
                    )
                    if detail is not None:
                        case.divergences.append(Divergence(
                            scenario=case.scenario,
                            case_seed=derived,
                            query="*",
                            record=0,
                            comparison=(f"uninterrupted vs kill+resume"
                                        f"[{delivery}]/{flavor}/{backend}"),
                            detail=detail,
                        ))
            if progress is not None:
                progress(case)
            cases.append(case)
    return cases


def _run_one_kill_resume(workload, derived, delivery, flavor, backend,
                         rng, spawn, tempfile) -> "str | None":
    """One cell of the kill-and-resume matrix; returns a detail string on
    divergence (or harness failure), None when byte-identical."""
    document, plan = _kill_resume_setup(workload, derived, backend)
    chunks = _kill_resume_chunks(document, flavor, derived)
    if len(chunks) < 4:
        return None  # degenerate split; nothing to kill mid-stream
    interval = max(1, len(chunks) // 32)
    kill_index = rng.randrange(interval, len(chunks) - 1)
    kill_phase = rng.choice(("before", "after"))

    reference = plan.session(binary=True, delivery=delivery).run(chunks)

    with tempfile.TemporaryDirectory(prefix="kill-resume-") as tmp:
        config = {
            "workload": workload,
            "case_seed": derived,
            "backend": backend,
            "delivery": delivery,
            "flavor": flavor,
            "kill_index": kill_index,
            "kill_phase": kill_phase,
            "interval": interval,
            "checkpoint_path": os.path.join(tmp, "stream.ckpt"),
            "output_path": os.path.join(tmp, "projected.xml"),
        }
        child = spawn.Process(target=_kill_resume_child, args=(config,))
        child.start()
        child.join(timeout=120)
        if child.is_alive():
            child.kill()
            child.join()
            return "child did not die at the seeded kill offset"
        if child.exitcode != -9:
            return (f"child exited with {child.exitcode}, "
                    f"expected SIGKILL (-9)")
        try:
            output, stats = _resume_killed_case(config)
        except ReproError as error:
            return f"resume failed: {type(error).__name__}: {error}"
    if output != reference.output:
        return "resumed output differs: " + _first_difference(
            output, reference.output
        )
    return _stats_difference(stats, reference.stats, STATS_FIELDS)


# ----------------------------------------------------------------------
# CLI: python -m repro fuzz ...
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """``python -m repro fuzz`` — exit 0 when all paths agree, 4 otherwise."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Differential fuzzing: generated corpora and matched queries "
            "through whole-document, chunked, shared and parallel "
            "execution on every delivery tier."
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--budget", type=int, default=200,
                        help="minimum (record, query) pairs to run "
                             "(default 200)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="SCENARIO",
                        help="restrict to a scenario (repeatable); one of: "
                             + ", ".join(SCENARIOS))
    parser.add_argument("--case-seed", type=int, default=None,
                        help="run the selected scenarios exactly once with "
                             "this case seed (repro mode)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel leg "
                             "(default 2)")
    parser.add_argument("--inject-seed", type=int, default=None,
                        help="corrupt the chunked view of the last record "
                             "with this fault seed (harness self-test)")
    parser.add_argument("--kill-resume", action="store_true",
                        help="additionally run the kill-and-resume chaos "
                             "matrix: a child process SIGKILLs itself at a "
                             "seeded offset mid-stream and the parent "
                             "resumes from the last checkpoint; output and "
                             "statistics must be byte-identical to an "
                             "uninterrupted run")
    parser.add_argument("--kill-rounds", type=int, default=1,
                        help="rounds of the kill-and-resume matrix "
                             "(default 1; each round uses a fresh derived "
                             "case seed)")
    parser.add_argument("--kill-resume-only", action="store_true",
                        help="run only the kill-and-resume matrix, skipping "
                             "the differential scenarios")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the full JSON report to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    options = parser.parse_args(argv)

    def progress(case: CaseResult) -> None:
        if options.quiet:
            return
        status = ("ok" if not case.divergences
                  else f"{len(case.divergences)} DIVERGENCES")
        print(f"[fuzz] {case.scenario:<16} case_seed={case.case_seed:<12}"
              f" pairs={case.pairs:<4} {status}")

    try:
        if options.kill_resume_only:
            report = FuzzReport(
                seed=options.seed, budget=0,
                deliveries=available_deliveries(),
            )
        else:
            report = run_fuzz(
                seed=options.seed,
                budget=options.budget,
                scenarios=tuple(options.only) if options.only else None,
                case_seed=options.case_seed,
                jobs=options.jobs,
                inject_seed=options.inject_seed,
                progress=progress,
            )
        if options.kill_resume or options.kill_resume_only:
            report.cases.extend(run_kill_resume(
                seed=options.seed,
                case_seed=options.case_seed,
                rounds=options.kill_rounds,
                progress=progress,
            ))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if options.report:
        with open(options.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(f"[fuzz] seed={report.seed} pairs={report.pairs} "
          f"cases={len(report.cases)} deliveries={','.join(report.deliveries)}"
          f" divergences={len(report.divergences)}")
    for divergence in report.divergences:
        print(f"[fuzz] DIVERGENCE {divergence.scenario}"
              f"/{divergence.query} record={divergence.record} "
              f"{divergence.comparison}: {divergence.detail}")
        print(f"[fuzz]   repro: {divergence.repro}")
    return 0 if report.ok else 4


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
