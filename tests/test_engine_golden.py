"""Golden traces of the walker engine on seeded random cases.

Every case is a random multi-predicate graph with a random grammar, in
both subsumption modes; the grammars include ``is``/``not`` attributes
and ``pathcount 2`` detours.  For each case the golden file pins the
records and every ``RunTrace`` field: per generation the frontier size,
the finished count, the emitted transitions and the rejections (triple,
direction, context, reason, walker id), plus the raw candidate count,
the distinct transitions examined and the walker ids.  A change to how
the engine steps walkers must leave all of it as it is.

The golden file was written by this module's ``main``::

    PYTHONPATH=src:tests python tests/test_engine_golden.py
"""

import json
import pathlib
import random

import pytest

from geograms.engine import PathRecord, RunMode, RunTrace, run
from geograms.errors import GrammarRuntimeError
from geograms.grammar import (
    ContextKind,
    Direction,
    EdgeSpec,
    Grammar,
    GrammarContext,
    Is,
    Not,
    NotEver,
    PathCount,
    Traverse,
    validate_grammar,
)
from geograms.store import RDF_TYPE, RDFS_RESOURCE, Graph, SubsumptionMode

from oracles import TEST_NS, enumerate_paths, random_grammar, random_multi_predicate_graph

GOLDEN = pathlib.Path(__file__).parent / "golden" / "engine_traces.json"
CASES = 24


def detour_grammar(rng: random.Random, graph: Graph) -> Grammar:
    """Leave along one edge, check a neighbour, come back (``is 2``) unrecorded (``pathcount 2``)."""
    vertices = sorted(graph.vertices(), key=lambda r: r.value)
    predicates = sorted(
        {x.predicate for x in graph.triples if x.predicate.value.startswith(TEST_NS)},
        key=lambda r: r.value,
    )
    classes = sorted({x.object for x in graph.triples if x.predicate == RDF_TYPE}, key=lambda r: r.value)
    while True:
        source, sink = rng.sample(vertices, 2)
        onward_dir, check_dir = (rng.choice(tuple(Direction)) for _ in range(2))
        back_dir = Direction.BACKWARD if check_dir is Direction.FORWARD else Direction.FORWARD
        onward_pred, check_pred = (rng.choice(predicates + [RDFS_RESOURCE]) for _ in range(2))
        onward = (EdgeSpec(onward_dir, onward_pred, "go"), EdgeSpec(onward_dir, onward_pred, "exit"))
        binding = rng.choice(classes + [RDFS_RESOURCE, RDFS_RESOURCE])
        peek_rules = (PathCount(1),) if rng.random() < 0.5 else ()
        contexts = [
            GrammarContext("entry", ContextKind.ENTRY, source, (PathCount(0), Traverse(onward)), frozenset()),
            GrammarContext(
                "go", ContextKind.INTERMEDIATE, binding,
                (Traverse((EdgeSpec(check_dir, check_pred, "peek"),)),), frozenset({NotEver()}),
            ),
            GrammarContext(
                "peek", ContextKind.INTERMEDIATE, RDFS_RESOURCE,
                peek_rules + (Traverse((EdgeSpec(back_dir, check_pred, "back"),)),), frozenset({Not(2)}),
            ),
            GrammarContext(
                "back", ContextKind.INTERMEDIATE, binding,
                (PathCount(2), Traverse(onward)), frozenset({Is(2)}),
            ),
            GrammarContext("exit", ContextKind.EXIT, sink, (PathCount(0),), frozenset()),
        ]
        grammar = Grammar({c.id: c for c in contexts}, "entry", "exit")
        if not validate_grammar(grammar):
            return grammar


def too_deep_grammar(graph: Graph) -> Grammar:
    """A grammar whose second context looks three steps back from position 1."""
    vertices = sorted(graph.vertices(), key=lambda r: r.value)
    edges = tuple(EdgeSpec(d, RDFS_RESOURCE, far) for far in ("deep", "exit") for d in Direction)
    contexts = [
        GrammarContext("entry", ContextKind.ENTRY, vertices[0], (PathCount(0), Traverse(edges)), frozenset()),
        GrammarContext(
            "deep", ContextKind.INTERMEDIATE, RDFS_RESOURCE, (PathCount(0), Traverse(edges)),
            frozenset({NotEver(), Is(3)}),
        ),
        GrammarContext("exit", ContextKind.EXIT, vertices[-1], (PathCount(0),), frozenset()),
    ]
    return Grammar({c.id: c for c in contexts}, "entry", "exit")


def cases():
    """(graph, grammar, mode) of every case, drawn from one seeded stream.

    A grammar is redrawn, a few times at most, until the brute-force
    enumerator finds a path for it, so that most cases pin records and
    not only rejections.
    """
    rng = random.Random(8)
    for index in range(CASES):
        n_vertices = rng.randint(6, 10)
        graph = random_multi_predicate_graph(rng, n_vertices, rng.randint(n_vertices, 3 * n_vertices))
        if index % 2:
            graph = Graph(graph.triples, subsumption=SubsumptionMode.SINGLE_HOP)
        if index == CASES - 1:
            grammar = too_deep_grammar(graph)
        else:
            draw = detour_grammar if index % 3 == 2 else random_grammar
            for _ in range(20):
                grammar = draw(rng, graph)
                if enumerate_paths(graph, grammar):
                    break
        mode = RunMode.SHORTEST_ONLY if index % 5 == 4 else RunMode.ALL_PATHS
        yield graph, grammar, mode


def _name(resource) -> str:
    return resource.value.rpartition("#")[2]


def _triple(triple) -> str:
    return " ".join(_name(term) for term in (triple.subject, triple.predicate, triple.object))


def observe(graph, grammar, mode) -> dict:
    """The records and the trace of one run, as sorted JSON-ready lists.

    Resources are written by their local names, which are unique in these
    graphs; a transition or rejection is one space-separated string.
    """
    trace = RunTrace()
    try:
        records = run(graph, grammar, mode, 300, trace=trace)
    except GrammarRuntimeError as error:
        return {"error": type(error).__name__, "context": error.context_id}
    generations = [
        {
            "frontier_size": g.frontier_size,
            "finished_count": g.finished_count,
            "emitted": sorted(f"{_triple(e.triple)} {e.direction.value} {e.next_context}" for e in g.emitted),
            "rejections": sorted(
                f"{_triple(r.triple)} {r.direction.value} {r.far_context} {r.reason} {r.walker_id}"
                for r in g.rejections
            ),
        }
        for g in trace.generations
    ]
    return {
        "mode": mode.value,
        "subsumption": graph.subsumption.value,
        "records": [r.to_text(_name) for r in sorted(records, key=PathRecord.key)],
        "generations": generations,
        "raw_candidates": trace.raw_candidates,
        "transitions_examined": trace.transitions_examined,
        "walker_ids": sorted(trace.walker_ids),
    }


def observe_all() -> list:
    return [observe(*case) for case in cases()]


@pytest.fixture(scope="module")
def golden() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def drawn() -> list:
    return list(cases())


@pytest.mark.parametrize("index", range(CASES))
def test_engine_trace_matches_golden(golden, drawn, index):
    assert observe(*drawn[index]) == golden[index]


def test_golden_cases_cover_the_attributes(golden):
    # the table exercises what it claims to: records in both subsumption
    # modes, every rejection reason, and the runtime error
    reasons = {
        rejection.split()[5]
        for case in golden
        for generation in case.get("generations", ())
        for rejection in generation["rejections"]
    }
    assert reasons == {"predicate", "type", "is", "not", "notever"}
    assert {case["subsumption"] for case in golden if case.get("records")} == {"closure", "single-hop"}
    assert any(case.get("error") == "GrammarRuntimeError" for case in golden)


def main():
    GOLDEN.write_text(json.dumps(observe_all(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
