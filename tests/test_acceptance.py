"""Acceptance suite: one test per criterion, each printing a pass line.

Budgets and tolerances are asserted exactly as stated; random suites use
fixed seeds so every run checks the same cases.
"""

import random
import time

import pytest

from geograms.encoding import (
    RWR_USES_GRAMMAR,
    decode_paths,
    encode_paths,
    min_segments,
    ms_shortest_paths,
    p_encoded_metric,
    query_X,
)
from geograms.engine import PathRecord, RunMode, RunTrace, run
from geograms.errors import TruncationError
from geograms.grammar import (
    Direction,
    parse_grammar_dsl,
    rebind_endpoints,
    unconstrained_grammar,
)
from geograms.metrics import (
    MetricKind,
    betweenness,
    closeness,
    diameter,
    eccentricity,
    project_to_unlabeled,
    radius,
    shortest_path,
    unlabeled_oracle_geodesics,
)
from geograms.store import Graph, Iri, Triple, load_ntriples

from conftest import lanl, read_fixture
from oracles import (
    bfs_distances,
    build_pair_store,
    enumerate_paths,
    oracle_betweenness,
    random_grammar,
    random_multi_predicate_graph,
    random_single_predicate_graph,
    t,
    undirected_adjacency,
)

HUMANS = [lanl(name) for name in ("johan", "marko", "jhw", "norman")]
SKELETON = unconstrained_grammar(t("a"), t("b"))


def pair_grammar(source, target):
    return rebind_endpoints(SKELETON, source, target)


def report(criterion: int, detail: str):
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_1_fixture_replay_researcher_paths(social_graph, researcher_grammar):
    started = time.perf_counter()
    records = run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50)
    elapsed = time.perf_counter() - started
    assert len(records) == 2
    assert sorted(r.edge_length for r in records) == [2, 3]
    result = shortest_path(social_graph, researcher_grammar)
    assert result.value == 2
    assert elapsed < 1.0
    report(1, f"|Q|=2, lengths {{2,3}}, shortest 2, {elapsed * 1000:.0f} ms")


def test_criterion_2_fixture_replay_unconstrained(social_graph, any_path_grammar):
    started = time.perf_counter()
    result = shortest_path(social_graph, any_path_grammar)
    elapsed = time.perf_counter() - started
    assert result.value == 1
    (witness,) = result.witness_paths
    assert witness.steps[1].predicate == lanl("contacted")
    assert witness.steps[1].direction is Direction.BACKWARD
    assert elapsed < 1.0
    report(2, f"shortest 1 via inverse contacted edge, {elapsed * 1000:.0f} ms")


def test_criterion_3_walkthrough_trace_pinning(social_graph, researcher_grammar):
    trace = RunTrace()
    run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50, trace=trace)
    generation = trace.generations[3]
    assert generation.frontier_size == 2

    back_edge = Triple(lanl("marko"), lanl("hasFriend"), lanl("johan"))
    assert back_edge in social_graph
    assert all(transition.triple != back_edge for transition in generation.emitted)
    assert any(
        rejection.triple == back_edge and rejection.reason == "notever"
        for rejection in generation.rejections
    )
    report(3, "cloning generation has 2 walkers; back-edge filtered by notever")


def test_criterion_4_oracle_equivalence_on_random_graphs():
    rng = random.Random(2010)
    started = time.perf_counter()
    sizes = (
        [(rng.randint(4, 12), rng.randint(4, 24)) for _ in range(150)]
        + [(rng.randint(13, 25), rng.randint(13, 35)) for _ in range(30)]
        + [(rng.randint(26, 40), rng.randint(26, 52)) for _ in range(12)]
        + [(rng.randint(41, 50), rng.randint(41, 63)) for _ in range(5)]
        + [(rng.randint(10, 14), 200) for _ in range(3)]
    )
    assert len(sizes) == 200
    mismatches = []
    pairs_checked = 0
    for n_vertices, n_edges in sizes:
        graph = random_single_predicate_graph(rng, n_vertices, n_edges)
        vertices = sorted(graph.vertices(), key=lambda r: r.value)
        adjacency = undirected_adjacency(graph.triples)
        for source in vertices:
            distances = bfs_distances(adjacency, source)
            for target in vertices:
                if source == target:
                    continue
                pairs_checked += 1
                result = shortest_path(graph, pair_grammar(source, target), 80)
                actual = result.value if result.defined else None
                if actual != distances.get(target):
                    mismatches.append((source, target, actual, distances.get(target)))
        # the public per-pair oracle agrees with the per-source sweep
        probe = rng.sample(vertices, 2)
        assert unlabeled_oracle_geodesics(graph, probe[0], probe[1]) == bfs_distances(
            adjacency, probe[0]
        ).get(probe[1])
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 60.0
    report(4, f"200 graphs, {pairs_checked} pairs, 0 mismatches, {elapsed:.1f} s")


def test_criterion_5_product_graph_brute_force_equivalence():
    rng = random.Random(844)
    started = time.perf_counter()
    mismatches = 0
    cases = nonempty = 0
    for index in range(100):
        if index < 85:
            n_vertices = rng.randint(4, 14)
        else:
            n_vertices = rng.randint(15, 30)
        graph = random_multi_predicate_graph(
            rng, n_vertices, rng.randint(n_vertices, 3 * n_vertices)
        )
        for _ in range(5):
            grammar = random_grammar(rng, graph)
            cases += 1
            engine_records = run(graph, grammar, RunMode.ALL_PATHS, 500)
            oracle_records = enumerate_paths(graph, grammar)
            if engine_records != oracle_records:
                mismatches += 1
            nonempty += bool(engine_records)
    elapsed = time.perf_counter() - started
    assert cases == 500
    assert mismatches == 0
    assert elapsed < 120.0
    report(5, f"500 grammar/graph cases ({nonempty} non-empty), 0 mismatches, {elapsed:.1f} s")


def _assert_store_matches_direct(graph, grammar, universe, grammar_id, store=None):
    if store is None:
        store = build_pair_store(graph, grammar, universe, grammar_id)
    ordered = sorted(universe, key=lambda r: r.value)
    source = ordered[0]
    targets = [v for v in ordered if v != source]
    target = targets[0]

    direct_sp = shortest_path(graph, rebind_endpoints(grammar, source, target))
    encoded_sp = p_encoded_metric(
        MetricKind.SHORTEST_PATH, store, grammar_id, ordered, source=source, target=target
    )
    assert (encoded_sp.value, encoded_sp.defined) == (direct_sp.value, direct_sp.defined)
    assert encoded_sp.witness_paths == direct_sp.witness_paths
    if direct_sp.defined:
        found = query_X(store, source, target, grammar_id)
        assert min_segments(found) - 1 == direct_sp.value

    comparisons = [
        (MetricKind.ECCENTRICITY, eccentricity(graph, grammar, source, ordered), dict(source=source)),
        (MetricKind.RADIUS, radius(graph, grammar, ordered), {}),
        (MetricKind.DIAMETER, diameter(graph, grammar, ordered), {}),
        (MetricKind.CLOSENESS, closeness(graph, grammar, source, ordered), dict(source=source)),
        (MetricKind.BETWEENNESS, betweenness(graph, grammar, source, ordered), dict(source=source)),
    ]
    for kind, direct, kwargs in comparisons:
        encoded = p_encoded_metric(kind, store, grammar_id, ordered, **kwargs)
        assert (encoded.value, encoded.defined) == (direct.value, direct.defined), kind
    return store


def test_criterion_6_p_encoding_round_trip(social_graph, researcher_grammar, any_path_grammar):
    # the membership arithmetic on the researcher grammar's own run
    records = run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50)
    grammar_id = Iri("http://example.org/t#g1")
    store = encode_paths(sorted(records, key=PathRecord.key), grammar_id, [0, 1])
    assert decode_paths(store, grammar_id) == records
    found = query_X(store, lanl("johan"), lanl("norman"), grammar_id)
    assert min_segments(found) == 3
    assert min_segments(found) - 1 == 2
    assert len(ms_shortest_paths(found)) == 1

    _assert_store_matches_direct(
        social_graph, researcher_grammar, HUMANS, Iri("http://example.org/t#g1all")
    )
    _assert_store_matches_direct(
        social_graph, any_path_grammar, HUMANS, Iri("http://example.org/t#g2all")
    )

    rng = random.Random(123)
    checked = 0
    while checked < 20:
        graph = random_multi_predicate_graph(rng, rng.randint(5, 10), rng.randint(5, 18))
        grammar = random_grammar(rng, graph)
        vertices = sorted(graph.vertices(), key=lambda r: r.value)
        universe = vertices[: min(5, len(vertices))]
        if len(universe) < 2:
            continue
        grammar_id = Iri(f"http://example.org/t#gr{checked}")
        store = build_pair_store(graph, grammar, universe, grammar_id)
        if not store.match((None, RWR_USES_GRAMMAR, grammar_id)):
            # no pair of this case yields any path; nothing to round-trip
            continue
        _assert_store_matches_direct(graph, grammar, universe, grammar_id, store)
        checked += 1
    report(6, "fixtures and 20 random cases: encoded metrics equal direct, min(X)-1 = 2 with min 3")


def test_criterion_7_metric_formula_suite():
    projection = project_to_unlabeled(load_ntriples(read_fixture("social.nt")))
    assert eccentricity(projection, SKELETON, lanl("johan"), HUMANS).value == 2
    assert radius(projection, SKELETON, HUMANS).value == 1
    assert diameter(projection, SKELETON, HUMANS).value == 2
    assert closeness(projection, SKELETON, lanl("johan"), HUMANS).value == 0.25
    universe = sorted(projection.vertices(), key=lambda r: r.value)
    expected_b = oracle_betweenness(projection.triples, lanl("marko"), universe)
    assert betweenness(projection, SKELETON, lanl("marko"), universe).value == expected_b == 4.0

    def link_graph(*pairs):
        return Graph(Triple(t(a), t("link"), t(b)) for a, b in pairs)

    path_abc = link_graph(("a", "b"), ("b", "c"))
    assert radius(path_abc, SKELETON, path_abc.vertices()).value == 1
    assert diameter(path_abc, SKELETON, path_abc.vertices()).value == 2
    assert betweenness(path_abc, SKELETON, t("b"), path_abc.vertices()).value == 2.0

    k4 = link_graph(("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))
    assert radius(k4, SKELETON, k4.vertices()).value == 1
    assert diameter(k4, SKELETON, k4.vertices()).value == 1
    assert all(betweenness(k4, SKELETON, v, k4.vertices()).value == 0.0 for v in k4.vertices())
    assert closeness(k4, SKELETON, t("a"), k4.vertices()).value == pytest.approx(1 / 3)

    star = link_graph(("hub", "l1"), ("hub", "l2"), ("hub", "l3"), ("hub", "l4"))
    assert eccentricity(star, SKELETON, t("hub"), star.vertices()).value == 1

    rng = random.Random(77)
    for _ in range(15):
        graph = random_single_predicate_graph(rng, rng.randint(3, 15), rng.randint(3, 28))
        r = radius(graph, SKELETON, graph.vertices())
        d = diameter(graph, SKELETON, graph.vertices())
        if r.defined and d.defined:
            assert r.value <= d.value
    report(7, "projection, path, K4, star hand values and radius<=diameter all hold")


def test_criterion_8_termination_guard():
    cyclic = Graph(
        [
            Triple(t("a"), t("p"), t("b")),
            Triple(t("b"), t("p"), t("c")),
            Triple(t("c"), t("p"), t("a")),
            Triple(t("x"), t("p"), t("y")),
        ]
    )
    hazardous = parse_grammar_dsl(
        "@prefix ex: <http://example.org/t#>\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
        "context e entry for ex:a {\n  pathcount 0\n"
        "  traverse out ex:p -> H, out ex:p -> sink\n}\n"
        "context H for rdfs:Resource {\n  pathcount 0\n"
        "  traverse out ex:p -> H, out ex:p -> sink\n}\n"
        "context sink exit for ex:x {\n  pathcount 0\n}\n"
    )
    started = time.perf_counter()
    for max_steps in (13, 29):
        with pytest.raises(TruncationError) as info:
            run(cyclic, hazardous, RunMode.ALL_PATHS, max_steps)
        assert info.value.max_steps == max_steps
        with pytest.raises(TruncationError):
            run(cyclic, hazardous, RunMode.SHORTEST_ONLY, max_steps)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(8, f"notever-free cycle truncates at the configured cap, {elapsed * 1000:.0f} ms")


def test_criterion_9_determinism_under_parallelism(social_graph, researcher_grammar):
    def render(records):
        return "\n".join(r.to_text() for r in sorted(records, key=PathRecord.key)).encode()

    fixture_outputs = {
        render(run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50, workers=n))
        for n in (1, 4, 8)
    }
    assert len(fixture_outputs) == 1

    rng = random.Random(4242)
    checked = 0
    for _ in range(12):
        graph = random_multi_predicate_graph(rng, rng.randint(5, 12), rng.randint(5, 24))
        grammar = random_grammar(rng, graph)
        outputs = {
            render(run(graph, grammar, RunMode.ALL_PATHS, 300, workers=n))
            for n in (1, 4, 8)
        }
        assert len(outputs) == 1
        checked += 1
    report(9, f"fixture and {checked} random cases byte-identical across 1/4/8 workers")
