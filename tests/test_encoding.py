import itertools
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from geograms.encoding import (
    RWR_HAS_DIRECTION,
    RWR_HAS_VERTEX,
    RWR_USES_GRAMMAR,
    StorePaths,
    decode_paths,
    encode_paths,
    min_segments,
    ms_shortest_paths,
    p_encoded_metric,
    query_X,
    query_Y,
)
from geograms.engine import PathRecord, PathStep, RunMode, run
from geograms.errors import IncompleteStoreError, ValidationError
from geograms.grammar import Direction, unconstrained_grammar
from geograms.metrics import (
    MetricKind,
    betweenness,
    closeness,
    diameter,
    eccentricity,
    project_to_unlabeled,
    radius,
    shortest_path,
    through_share,
)
from geograms.store import (
    RDF_NS,
    RESULT_NS,
    Graph,
    Iri,
    Literal,
    Triple,
    load_ntriples,
    membership,
    membership_index,
)

from conftest import lanl, read_fixture
from oracles import (
    TEST_NS,
    build_pair_store,
    provider_differences,
    random_grammar,
    random_multi_predicate_graph,
    t,
)

GRAMMAR_ID = Iri("http://example.org/t#grammar1")
FWD, BWD = Direction.FORWARD, Direction.BACKWARD

SHORT_RECORD = PathRecord(
    (
        PathStep(lanl("johan")),
        PathStep(lanl("marko"), lanl("hasFriend"), FWD),
        PathStep(lanl("norman"), lanl("hasFriend"), FWD),
    )
)
LONG_RECORD = PathRecord(
    (
        PathStep(lanl("johan")),
        PathStep(lanl("marko"), lanl("hasFriend"), FWD),
        PathStep(lanl("jhw"), lanl("hasFriend"), FWD),
        PathStep(lanl("norman"), lanl("hasFriend"), FWD),
    )
)


@pytest.fixture(scope="module")
def two_path_store():
    return encode_paths([SHORT_RECORD, LONG_RECORD], GRAMMAR_ID, [0, 1])


def test_encode_segments_and_largest_membership(two_path_store):
    # the two-edge record carries exactly rdf:_1 .. rdf:_3
    walkers = two_path_store.match((None, RWR_USES_GRAMMAR, GRAMMAR_ID))
    assert len(walkers) == 2
    memberships = {}
    for triple in two_path_store.triples:
        index = membership_index(triple.predicate)
        if index is not None:
            memberships.setdefault(triple.subject, set()).add(index)
    assert sorted(memberships.values(), key=len) == [{1, 2, 3}, {1, 2, 3, 4}]


def test_encode_single_vertex_record():
    record = PathRecord((PathStep(lanl("johan")),))
    store = encode_paths([record], GRAMMAR_ID, [7])
    assert record.edge_length == 0
    memberships = [
        membership_index(triple.predicate)
        for triple in store.triples
        if membership_index(triple.predicate) is not None
    ]
    assert memberships == [1]
    assert decode_paths(store) == {record}


def test_decode_inverts_encode(two_path_store):
    assert decode_paths(two_path_store, GRAMMAR_ID) == {SHORT_RECORD, LONG_RECORD}


def test_encode_requires_matching_id_count():
    with pytest.raises(ValueError):
        encode_paths([SHORT_RECORD], GRAMMAR_ID, [1, 2])


def test_decode_rejects_membership_gaps(two_path_store):
    # drop a middle segment; the container is no longer consecutive
    broken = Graph(
        (
            tr
            for tr in two_path_store.triples
            if membership_index(tr.predicate) != 2
        ),
        two_path_store.prefix_map,
    )
    with pytest.raises(ValidationError):
        decode_paths(broken)


@pytest.mark.parametrize(
    "drop, add, message",
    [
        (RWR_HAS_VERTEX, None, "must carry exactly one vertex"),
        (None, (RWR_HAS_VERTEX, lanl("jhw")), "must carry exactly one vertex"),
        (RWR_HAS_DIRECTION, None, "must carry one predicate and one direction"),
        (RWR_HAS_DIRECTION, (RWR_HAS_DIRECTION, Literal("?")), 'has unknown direction "?"'),
    ],
    ids=["no-vertex", "two-vertices", "predicate-without-direction", "unknown-direction"],
)
def test_decode_rejects_malformed_segments(two_path_store, drop, add, message):
    segment = Iri(RESULT_NS + "segment_0_2")
    triples = {tr for tr in two_path_store.triples if (tr.subject, tr.predicate) != (segment, drop)}
    if add is not None:
        triples.add(Triple(segment, *add))
    with pytest.raises(ValidationError, match=re.escape(f"segment {segment!r} {message}")):
        decode_paths(Graph(triples))


def test_a_typed_direction_literal_decodes_by_its_lexical_form(two_path_store):
    segment = Iri(RESULT_NS + "segment_0_2")
    triples = {tr for tr in two_path_store.triples if (tr.subject, tr.predicate) != (segment, RWR_HAS_DIRECTION)}
    triples.add(Triple(segment, RWR_HAS_DIRECTION, Literal("+", "urn:x")))
    assert decode_paths(Graph(triples)) == {SHORT_RECORD, LONG_RECORD}


def test_store_reads_reject_membership_gaps():
    # the last segment of a two-edge path moved from rdf:_3 to rdf:_5
    store = encode_paths([SHORT_RECORD], GRAMMAR_ID, [0])
    gapped = Graph(
        (
            Triple(tr.subject, membership(5), tr.object)
            if membership_index(tr.predicate) == 3
            else tr
            for tr in store.triples
        ),
        store.prefix_map,
    )
    with pytest.raises(ValidationError):
        query_X(gapped, lanl("johan"), lanl("norman"), GRAMMAR_ID)
    with pytest.raises(ValidationError):
        p_encoded_metric(
            MetricKind.ECCENTRICITY, gapped, GRAMMAR_ID, [lanl("johan"), lanl("norman")],
            source=lanl("johan"),
        )


def test_store_reads_reject_a_repeated_membership():
    # the last segment of a two-edge path moved from rdf:_3 onto rdf:_2,
    # which a middle segment already holds
    store = encode_paths([SHORT_RECORD], GRAMMAR_ID, [0])
    repeated = Graph(
        (
            Triple(tr.subject, membership(2), tr.object)
            if membership_index(tr.predicate) == 3
            else tr
            for tr in store.triples
        ),
        store.prefix_map,
    )
    message = re.escape(
        "sequence <http://www.lanl.gov/rwrx#path_0> must hold rdf:_1 ... rdf:_n once each, "
        "holds rdf:_k for k in [1, 2, 2]"
    )
    with pytest.raises(ValidationError, match=message):
        decode_paths(repeated)
    with pytest.raises(ValidationError, match=message):
        query_X(repeated, lanl("johan"), lanl("norman"), GRAMMAR_ID)
    with pytest.raises(ValidationError, match=message):
        p_encoded_metric(
            MetricKind.ECCENTRICITY, repeated, GRAMMAR_ID, [lanl("johan"), lanl("norman")],
            source=lanl("johan"),
        )


def test_round_trip_survives_serialization(two_path_store):
    again = load_ntriples(two_path_store.to_ntriples())
    assert decode_paths(again, GRAMMAR_ID) == {SHORT_RECORD, LONG_RECORD}


# -- queries -----------------------------------------------------------------------


def test_query_x_returns_paths_with_counts(two_path_store):
    found = query_X(two_path_store, lanl("johan"), lanl("norman"), GRAMMAR_ID)
    # sorted-record encoding puts the three-edge path first
    assert found == {
        (Iri("http://www.lanl.gov/rwrx#path_0"), 4),
        (Iri("http://www.lanl.gov/rwrx#path_1"), 3),
    }


def test_query_x_on_empty_store():
    empty = encode_paths([], GRAMMAR_ID, [])
    assert query_X(empty, lanl("johan"), lanl("norman"), GRAMMAR_ID) == frozenset()


def test_query_x_sink_never_reached(two_path_store):
    assert query_X(two_path_store, lanl("johan"), lanl("ghost"), GRAMMAR_ID) == frozenset()


def test_min_segments_paper_value(two_path_store):
    found = query_X(two_path_store, lanl("johan"), lanl("norman"), GRAMMAR_ID)
    assert min_segments(found) == 3


def test_min_segments_trivials():
    assert min_segments({(Iri("http://p#1"), 1)}) == 1
    assert min_segments({(Iri("http://p#1"), 1)}) - 1 == 0
    assert min_segments(frozenset()) is None


def test_ms_shortest_paths(two_path_store):
    found = query_X(two_path_store, lanl("johan"), lanl("norman"), GRAMMAR_ID)
    assert ms_shortest_paths(found) == {Iri("http://www.lanl.gov/rwrx#path_1")}
    tied = {(Iri("http://p#a"), 3), (Iri("http://p#b"), 3)}
    assert ms_shortest_paths(tied) == {Iri("http://p#a"), Iri("http://p#b")}
    assert ms_shortest_paths(frozenset()) == frozenset()


def test_query_y_interior_vertex():
    # store both records under ids chosen so either could win; marko is
    # interior to both, jhw interior only to the long one
    store = encode_paths([SHORT_RECORD, LONG_RECORD], GRAMMAR_ID, [0, 1])
    through_marko = query_Y(store, lanl("johan"), lanl("norman"), lanl("marko"), GRAMMAR_ID)
    assert through_marko == {Iri("http://www.lanl.gov/rwrx#path_1")}
    through_jhw = query_Y(store, lanl("johan"), lanl("norman"), lanl("jhw"), GRAMMAR_ID)
    assert through_jhw == frozenset()


def test_query_y_absent_vertex(two_path_store):
    assert query_Y(two_path_store, lanl("johan"), lanl("norman"), lanl("ghost"), GRAMMAR_ID) == frozenset()


def test_query_y_through_equal_to_source(two_path_store):
    # an endpoint is not strictly inside its own path
    found = query_Y(two_path_store, lanl("johan"), lanl("norman"), lanl("johan"), GRAMMAR_ID)
    assert found == frozenset()


def test_endpoint_index_is_built_by_the_first_read_and_kept(monkeypatch):
    import geograms.encoding as encoding

    scans = []
    real_scan = encoding._scan_endpoints
    monkeypatch.setattr(
        encoding, "_scan_endpoints", lambda store, grammar_id: scans.append(grammar_id) or real_scan(store, grammar_id)
    )
    store = encode_paths([SHORT_RECORD, LONG_RECORD], GRAMMAR_ID, [0, 1])
    johan, norman = lanl("johan"), lanl("norman")
    assert scans == []
    p_encoded_metric(MetricKind.ECCENTRICITY, store, GRAMMAR_ID, [johan, norman], source=johan)
    assert scans == [GRAMMAR_ID]
    index = encoding._endpoint_index(store, GRAMMAR_ID)
    # later reads look the pair up and make no match calls
    patterns = []
    real_match = Graph.match
    monkeypatch.setattr(Graph, "match", lambda graph, pattern: patterns.append(pattern) or real_match(graph, pattern))
    assert query_X(store, johan, norman, GRAMMAR_ID) == {
        (Iri("http://www.lanl.gov/rwrx#path_0"), 4),
        (Iri("http://www.lanl.gov/rwrx#path_1"), 3),
    }
    assert query_Y(store, johan, norman, lanl("marko"), GRAMMAR_ID) == {Iri("http://www.lanl.gov/rwrx#path_1")}
    paths = StorePaths(store, GRAMMAR_ID)
    assert paths.witnesses(johan, norman) == (SHORT_RECORD,)
    assert paths.distance(johan, norman) == 2
    assert paths.through(johan, norman, lanl("marko")) == (1, 1)
    p_encoded_metric(MetricKind.ECCENTRICITY, store, GRAMMAR_ID, [johan, norman], source=johan)
    assert patterns == []
    assert scans == [GRAMMAR_ID]
    assert encoding._endpoint_index(store, GRAMMAR_ID) is index


def test_through_counts_each_path_node_of_an_equal_record():
    store = encode_paths([SHORT_RECORD, SHORT_RECORD], GRAMMAR_ID, [0, 1])
    paths = StorePaths(store, GRAMMAR_ID)
    johan, norman = lanl("johan"), lanl("norman")
    assert paths.through(johan, norman, lanl("marko")) == (2, 2)
    assert paths.through(johan, norman, lanl("jhw")) == (0, 2)
    assert paths.witnesses(johan, norman) == (SHORT_RECORD, SHORT_RECORD)


def test_store_witnesses_need_a_pair():
    paths = StorePaths(encode_paths([SHORT_RECORD], GRAMMAR_ID, [0]), GRAMMAR_ID)
    with pytest.raises(ValueError, match="shortest-path needs source and target"):
        paths.witnesses()


# -- metrics from the store ------------------------------------------------------------


@pytest.fixture(scope="module")
def projection_store():
    graph = project_to_unlabeled(load_ntriples(read_fixture("social.nt")))
    grammar = unconstrained_grammar(lanl("johan"), lanl("norman"))
    universe = sorted(graph.vertices(), key=lambda r: r.value)
    store = build_pair_store(graph, grammar, universe, GRAMMAR_ID)
    return graph, grammar, universe, store


def test_p_encoded_shortest_path(projection_store):
    graph, grammar, universe, store = projection_store
    direct = shortest_path(graph, grammar)
    encoded = p_encoded_metric(
        MetricKind.SHORTEST_PATH, store, GRAMMAR_ID, universe,
        source=lanl("johan"), target=lanl("norman"),
    )
    assert encoded.value == direct.value == 1
    assert encoded.witness_paths == direct.witness_paths


def test_p_encoded_betweenness_matches_direct(projection_store):
    graph, grammar, universe, store = projection_store
    direct = betweenness(graph, grammar, lanl("marko"), universe)
    encoded = p_encoded_metric(
        MetricKind.BETWEENNESS, store, GRAMMAR_ID, universe, source=lanl("marko")
    )
    assert encoded.value == direct.value


def test_p_encoded_all_kinds_match_direct(projection_store):
    graph, grammar, universe, store = projection_store
    johan = lanl("johan")
    cases = [
        (MetricKind.ECCENTRICITY, eccentricity(graph, grammar, johan, universe), dict(source=johan)),
        (MetricKind.RADIUS, radius(graph, grammar, universe), {}),
        (MetricKind.DIAMETER, diameter(graph, grammar, universe), {}),
        (MetricKind.CLOSENESS, closeness(graph, grammar, johan, universe), dict(source=johan)),
    ]
    for kind, direct, kwargs in cases:
        encoded = p_encoded_metric(kind, store, GRAMMAR_ID, universe, **kwargs)
        assert (encoded.value, encoded.defined, encoded.skipped_targets) == (
            direct.value,
            direct.defined,
            direct.skipped_targets,
        )


def test_threads_reading_a_fresh_store_get_the_single_threaded_answers(projection_store):
    # the first read of a store fills its endpoint index; threads racing to
    # fill it must each still get the answer of a lone read
    import sys
    import threading

    _, _, universe, store = projection_store

    def read(graph, vertex):
        return p_encoded_metric(MetricKind.BETWEENNESS, graph, GRAMMAR_ID, universe, source=vertex)

    alone = {vertex: read(Graph(store.triples), vertex) for vertex in universe}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            shared = Graph(store.triples)
            found = {}
            start = threading.Barrier(len(universe), timeout=60)

            def worker(vertex):
                start.wait()
                found[vertex] = read(shared, vertex)

            threads = [threading.Thread(target=worker, args=(vertex,)) for vertex in universe]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert found == alone
    finally:
        sys.setswitchinterval(interval)


def test_empty_store_is_incomplete():
    empty = encode_paths([], GRAMMAR_ID, [])
    with pytest.raises(IncompleteStoreError):
        p_encoded_metric(
            MetricKind.SHORTEST_PATH, empty, GRAMMAR_ID, [lanl("johan")],
            source=lanl("johan"), target=lanl("norman"),
        )


def test_min_segments_consistent_with_edge_lengths():
    rng = random.Random(61)
    for _ in range(10):
        graph = random_multi_predicate_graph(rng, rng.randint(4, 9), rng.randint(4, 16))
        grammar = random_grammar(rng, graph)
        records = run(graph, grammar, RunMode.ALL_PATHS, 200)
        store = encode_paths(sorted(records, key=PathRecord.key), GRAMMAR_ID, list(range(len(records))))
        assert decode_paths(store, GRAMMAR_ID) == records
        if records:
            source = grammar.entry_context.for_resource
            sink = grammar.exit_context.for_resource
            found = query_X(store, source, sink, GRAMMAR_ID)
            assert min_segments(found) - 1 == min(r.edge_length for r in records)


def test_merged_store_answers_each_grammar_as_its_own_store():
    rng = random.Random(17)
    other_id = Iri("http://example.org/t#grammar2")
    graphs = {
        grammar_id: random_multi_predicate_graph(rng, 6, rng.randint(6, 10), with_schema=False)
        for grammar_id in (GRAMMAR_ID, other_id)
    }
    universe = sorted(graphs[GRAMMAR_ID].vertices() & graphs[other_id].vertices(), key=lambda r: r.value)
    grammar = unconstrained_grammar(universe[0], universe[1])
    own = {}
    first_id = 0
    for grammar_id, graph in graphs.items():
        own[grammar_id] = build_pair_store(graph, grammar, universe, grammar_id, first_id=first_id)
        first_id += len(decode_paths(own[grammar_id]))
    merged = own[GRAMMAR_ID].merge(own[other_id])
    answers = {}
    for grammar_id, store in own.items():
        for kind in MetricKind:
            for source in universe[:3]:
                ends = dict(source=source, target=universe[-1])
                expected = p_encoded_metric(kind, store, grammar_id, universe, **ends)
                found = p_encoded_metric(kind, merged, grammar_id, universe, **ends)
                assert found == expected, (grammar_id, kind, source)
                answers.setdefault(grammar_id, []).append(found)
    # the two grammars' stores disagree, so a read mixing them would show
    assert answers[GRAMMAR_ID] != answers[other_id]


# -- the store against the walker, answer by answer -------------------------------------


def _six_vertex_cases(seed: int, count: int, draw):
    """(graph, grammar, the graph's vertices outside its schema) of ``count`` six-vertex cases."""
    rng = random.Random(seed)
    for _ in range(count):
        graph = random_multi_predicate_graph(rng, 6, rng.randint(6, 14))
        universe = sorted(
            {end for x in graph.triples if x.predicate.value.startswith(TEST_NS) for end in (x.subject, x.object)},
            key=lambda r: r.value,
        )
        yield graph, draw(rng, graph), universe


def _all_pairs_store(graph, grammar, universe):
    return StorePaths(build_pair_store(graph, grammar, universe, GRAMMAR_ID), GRAMMAR_ID)


@pytest.mark.parametrize("draw, seed, count", [("random", 5, 15), ("detour", 8, 15)])
def test_query_y_selects_by_the_rule_of_through_share(draw, seed, count):
    from test_engine_golden import detour_grammar

    grammar_of = {"random": random_grammar, "detour": detour_grammar}[draw]
    for graph, grammar, universe in _six_vertex_cases(seed, count, grammar_of):
        paths = _all_pairs_store(graph, grammar, universe)
        # every (j, k, v), endpoints included; no witnesses, no share, no paths
        for j, k, v in itertools.product(universe, repeat=3):
            share = through_share(paths.witnesses(j, k), v)
            assert len(query_Y(paths.store, j, k, v, GRAMMAR_ID)) == (share[0] if share else 0), (j, k, v)


@pytest.mark.parametrize("draw, seed, count", [("random", 5, 60), ("detour", 8, 80)])
def test_store_paths_answer_as_the_walker_does(draw, seed, count):
    from test_engine_golden import detour_grammar

    grammar_of = {"random": random_grammar, "detour": detour_grammar}[draw]
    cases = _six_vertex_cases(seed, count, grammar_of)
    assert provider_differences(_all_pairs_store, cases) == []


def test_decode_paths_names_the_least_bad_path_of_a_walker_whatever_the_hash_seed():
    # one walker holding two paths that each lack rdf:_1; a set gives them in an order that varies with the seed
    store = (
        "@prefix rwr: <http://www.lanl.gov/rwr#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix x: <http://x.org/> .\n"
        "x:w rdf:type rwr:GeodesicWalker .\n"
        "x:w rwr:hasQPath x:pa .\nx:w rwr:hasQPath x:pb .\n"
        "x:pa rdf:_2 x:sa .\nx:pb rdf:_2 x:sb .\n"
    )
    script = (
        "import sys\n"
        "from geograms.encoding import decode_paths\n"
        "from geograms.store import load_ntriples\n"
        "try:\n"
        "    decode_paths(load_ntriples(sys.stdin.read()))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    messages = {
        subprocess.run(
            [sys.executable, "-c", script], input=store, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(4)
    }
    message = "sequence <http://x.org/pa> must hold rdf:_1 ... rdf:_n once each, holds rdf:_k for k in [2]"
    assert messages == {f"ValidationError {message}\n"}
