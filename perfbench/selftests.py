"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/selftests.py``
(the file name keeps it out of the repository's own test collection).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import build

ROOT = Path(__file__).resolve().parent.parent
ACCEL = build.load_repro(ROOT, build.ensure_accel(ROOT))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times, summarise  # noqa: E402


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["child", 1.0, 3.0, 0],
        ["grandchild", 1.5, 2.0, 1],
        ["child", 2.5, 4.0, 0],      # overlaps the first child
        ["child", 9.0, 12.0, 0],     # runs past its parent's end
        ["other", 20.0, 21.0, -1],
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 1.5, 3.0, 1.0])
    summary = summarise(spans, [(0.0, 10.0)])
    assert summary["layers"]["child"]["self_s"] == pytest.approx(6.0)
    assert "other" not in summary["layers"]
    assert summary["coverage"] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_wrapped_callables():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Layer)["outer"]
    tracer = Tracer()
    with tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        assert Layer().outer() == 2
    assert [span[0] for span in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert vars(Layer)["outer"] is original
    assert list(tracer.iterate([1, 2], "read")) == [1, 2]
    assert [span[0] for span in tracer.spans[2:]] == ["read"] * 3


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(100))
    assert workloads.percentile(samples, 0.9) == 89
    assert workloads.percentile(samples, 0.5) == 49
    with pytest.raises(build.BenchmarkError):
        workloads.percentile(range(99), 0.9)
    with pytest.raises(build.BenchmarkError):
        workloads.percentile(samples, 0.99)


def test_citation_pool_composition_matches_the_oracle():
    from repro import Dtd
    from repro.projection import ReferenceProjector
    from repro.workloads.medline import MEDLINE_QUERIES
    from repro.workloads.medline.dtd import MEDLINE_DTD_TEXT

    dtd = Dtd.parse(MEDLINE_DTD_TEXT)
    specs = [MEDLINE_QUERIES[name] for name in ("M1", "M2", "M3", "M4", "M5")]
    pool = inputs.CitationPool(dtd, specs, seed=3, citations=200)
    order = pool.draw(random.Random(3), 300_000)
    document = pool.document(order).decode()
    for spec in specs:
        oracle = ReferenceProjector(
            spec.parsed_paths(), add_default_paths=False,
            alphabet=dtd.tag_names(),
        ).project_text(document).output.encode()
        assert pool.expected(spec.name, order) == oracle, spec.name


def test_shared_relevance_walk_matches_the_oracle_on_xmark():
    from repro import Dtd
    from repro.projection import ReferenceProjector
    from repro.workloads.xmark import XMARK_DTD_TEXT, XMARK_QUERIES

    dtd = Dtd.parse(XMARK_DTD_TEXT)
    specs = [XMARK_QUERIES[name] for name in workloads.XMARK_SHARED]
    document, expected = inputs.xmark_document(dtd, specs, seed=4, megabytes=0.3)
    for spec in specs:
        oracle = ReferenceProjector(
            spec.parsed_paths(), add_default_paths=False,
            alphabet=dtd.tag_names(),
        ).project_text(document.decode()).output.encode()
        assert expected[spec.name] == oracle, spec.name


class CorruptingSink(layers.DigestSink):
    """Flips one byte of the first fragment of every document."""

    def write(self, fragment) -> None:
        if self.writes == 0:
            fragment = bytes([fragment[0] ^ 0x20]) + fragment[1:]
        super().write(fragment)


@pytest.mark.parametrize("sink_type, fails", [
    (layers.DigestSink, False), (CorruptingSink, True),
])
def test_a_corrupt_byte_in_the_sink_is_an_error(sink_type, fails):
    result = workloads.medline_search(5, 1.0, False, megabytes=2,
                                      sink_type=sink_type)
    tally = result.tally
    assert tally.attempted > 0
    assert (tally.failed / tally.attempted > 0) is fails
    if fails:
        assert tally.failed == tally.attempted


def test_trace_coverage_on_medline_search_is_near_the_trial_wall():
    result = workloads.medline_search(6, 3.0, True, megabytes=8)
    assert result.tally.failed == 0
    assert 0.9 <= result.metrics["trace.coverage"][0] <= 1.1
    assert result.metrics["kernel.find_token_calls"][0] > 0
    assert result.metrics["kernel.step_events_calls"][0] == 0


def test_pickled_bytes_count_payloads_out_and_outputs_back():
    bench = workloads.CorpusBench(8)
    result = bench.run(2.0, True)
    assert result.tally.failed == 0
    pickled = result.metrics["parallel.pickled_bytes"][0]
    # Every record goes out once and its projections come back once; the
    # rest is framing, names and statistics.
    shipped = bench.input_bytes + bench.output_bytes
    assert shipped < pickled < shipped * 1.02
    assert result.metrics["parallel.retries"][0] == 0


def test_benchmark_json_names_every_metric_the_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == layers.PER_LAYER
    end_to_end = {m["name"] for m in config["end_to_end"]}
    result = workloads.medline_search(7, 1.0, False, megabytes=2)
    assert set(result.metrics) == end_to_end
    assert {w["name"] for w in config["workloads"]} == set(
        __import__("run").WORKLOADS
    )
