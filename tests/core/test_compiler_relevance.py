"""The compiler's relevance pass agrees with the oracle's Definition 3.

The static analysis decides relevance (Definition 5) and the C2 subtree
flag in its own incremental pass over the DTD-automaton; the reference
projector keeps the literal token-level :class:`RelevanceChecker`.  These
tests hold the two to the same answer on every occurrence pair, over the
paper's query sets, seeded random path sets and generated schemas, and pin
the compile-time structure: no call into the checker, one shared automaton
per schema object.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import api
from repro.core import StaticAnalyzer
from repro.core import static_analysis
from repro.dtd import Dtd
from repro.dtd import automaton as automaton_module
from repro.projection import relevance
from repro.projection.paths import Axis, PathStep, ProjectionPath
from repro.projection.relevance import RelevanceChecker
from repro.workloads.medline import MEDLINE_DTD_TEXT, MEDLINE_QUERIES
from repro.workloads.queries import generate_queries
from repro.workloads.schema import SchemaSpec, build_schema
from repro.workloads.xmark import XMARK_DTD_TEXT, XMARK_QUERIES

XMARK_SHARED16 = tuple(f"XM{n}" for n in (*range(1, 15), 17, 18))


def assert_matches_oracle(dtd: Dtd, paths, *, add_default_paths=True) -> None:
    """Compare the compiler with the checker on every occurrence pair."""
    analysis = StaticAnalyzer(
        dtd, paths, add_default_paths=add_default_paths
    ).analyse()
    checker = RelevanceChecker(analysis.paths, alphabet=dtd.tag_names())
    automaton = analysis.automaton
    initial = automaton.initial_state
    assert analysis.relevant[initial] is True
    assert analysis.keeps_subtree[initial] is False
    labels = [str(path) for path in analysis.paths]
    for pair in automaton.pairs:
        branch = automaton.branch_names(pair.open_state)
        expected = bool(checker.branch_relevant(branch))
        keeps = checker.keeps_subtree(branch)
        for state in pair.states():
            assert analysis.relevant[state] is expected, (labels, branch)
            assert analysis.keeps_subtree[state] is keeps, (labels, branch)


def random_paths(rng: random.Random, names: list[str]) -> list[ProjectionPath]:
    """A small path set over ``names`` with wildcards, ``//`` and ``#``."""
    paths = []
    for _ in range(rng.randint(1, 4)):
        steps = tuple(
            PathStep(
                axis=Axis.DESCENDANT if rng.random() < 0.4 else Axis.CHILD,
                name="*" if rng.random() < 0.25 else rng.choice(names),
            )
            for _ in range(rng.randint(1, 4))
        )
        paths.append(ProjectionPath(steps, keep_subtree=rng.random() < 0.3))
    return paths


@pytest.fixture(scope="module")
def xmark():
    return Dtd.parse(XMARK_DTD_TEXT)


@pytest.fixture(scope="module")
def medline():
    return Dtd.parse(MEDLINE_DTD_TEXT)


class TestPaperQuerySets:
    @pytest.mark.parametrize("name", sorted(XMARK_QUERIES))
    def test_xmark_query_alone(self, xmark, name):
        assert_matches_oracle(
            xmark, XMARK_QUERIES[name].parsed_paths(), add_default_paths=False
        )

    def test_xmark_union(self, xmark):
        union = [
            path for spec in XMARK_QUERIES.values()
            for path in spec.parsed_paths()
        ]
        assert_matches_oracle(xmark, union, add_default_paths=False)

    @pytest.mark.parametrize("name", sorted(MEDLINE_QUERIES))
    def test_medline_query_alone(self, medline, name):
        assert_matches_oracle(
            medline, MEDLINE_QUERIES[name].parsed_paths(), add_default_paths=False
        )

    def test_medline_union(self, medline):
        union = [
            path for spec in MEDLINE_QUERIES.values()
            for path in spec.parsed_paths()
        ]
        assert_matches_oracle(medline, union, add_default_paths=False)


class TestRandomPathSets:
    @pytest.mark.parametrize("fixture", ["paper_dtd", "site_dtd"])
    def test_small_schemas(self, request, fixture):
        dtd = request.getfixturevalue(fixture)
        names = sorted(dtd.tag_names())
        rng = random.Random(20261017)
        for round_ in range(100):
            assert_matches_oracle(
                dtd, random_paths(rng, names),
                add_default_paths=round_ % 2 == 0,
            )

    def test_xmark(self, xmark):
        names = sorted(xmark.tag_names())
        rng = random.Random(71)
        for _ in range(12):
            assert_matches_oracle(xmark, random_paths(rng, names))


class TestGeneratedSchemas:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_generated_queries(self, seed):
        schema = build_schema(SchemaSpec(
            seed=seed, depth=5, fanout=3, chain=2,
            alphabet=("plain", "overlap", "long")[seed % 3],
        ))
        dtd = schema.dtd
        queries = generate_queries(schema, seed=seed, count=12)
        union = []
        for query in queries:
            paths = query.spec().parsed_paths()
            union.extend(paths)
            assert_matches_oracle(dtd, paths, add_default_paths=False)
        assert_matches_oracle(dtd, union, add_default_paths=False)
        rng = random.Random(seed)
        names = sorted(dtd.tag_names())
        for _ in range(10):
            assert_matches_oracle(dtd, random_paths(rng, names))


class TestCompileStructure:
    def test_static_analysis_never_calls_the_checker(self, monkeypatch, xmark):
        def forbidden(*args, **kwargs):
            raise AssertionError("the compiler called RelevanceChecker")

        for name in ("__init__", "decide", "branch_relevant", "keeps_subtree"):
            monkeypatch.setattr(RelevanceChecker, name, forbidden)
        assert not hasattr(static_analysis, "RelevanceChecker")
        for name in XMARK_SHARED16:
            StaticAnalyzer(
                xmark, XMARK_QUERIES[name].parsed_paths(),
                add_default_paths=False,
            ).analyse()
        with pytest.raises(AssertionError):
            relevance.build_checker(["/a"])

    def test_one_automaton_per_schema_object(self, monkeypatch):
        built = []
        original = automaton_module.DtdAutomaton.__init__

        def counting(self, dtd):
            built.append(dtd)
            original(self, dtd)

        monkeypatch.setattr(automaton_module.DtdAutomaton, "__init__", counting)
        dtd = Dtd.parse(XMARK_DTD_TEXT)
        engine = api.Engine(
            [api.Query.from_spec(dtd, XMARK_QUERIES[name])
             for name in XMARK_SHARED16],
            mode="shared",
        )
        engine.open(binary=True).close()
        assert len(built) == 1 and built[0] is dtd
        automata = {id(plan.analysis.automaton) for plan in engine.plans}
        assert automata == {id(dtd.automaton())}
        # Identity, not content: a fresh parse pays its own automaton.
        Dtd.parse(XMARK_DTD_TEXT).automaton()
        assert len(built) == 2

    def test_automaton_stays_behind_when_a_schema_is_pickled(self):
        dtd = Dtd.parse(XMARK_DTD_TEXT)
        dtd.automaton()
        copy = pickle.loads(pickle.dumps(dtd))
        assert copy._automaton is None
        assert copy.automaton().state_count() == dtd.automaton().state_count()
