import random

import pytest

from geograms.grammar import rebind_endpoints, unconstrained_grammar
from geograms.metrics import (
    VERTEX_KINDS,
    MetricKind,
    WalkerPaths,
    betweenness,
    closeness,
    default_universe,
    degree,
    diameter,
    eccentricity,
    fold,
    project_to_unlabeled,
    radius,
    shortest_path,
    unlabeled_oracle_geodesics,
)
from geograms.store import RDFS_RESOURCE, Graph, Iri, Triple, load_ntriples

from conftest import lanl, read_fixture
from oracles import (
    oracle_betweenness,
    random_single_predicate_graph,
    t,
)

HUMANS = [lanl(name) for name in ("johan", "marko", "jhw", "norman")]

# the seven instance edges of the walkthrough, without the back-edge or types
ENUMERATED_EDGES = Graph(
    [
        Triple(lanl("johan"), lanl("hasFriend"), lanl("marko")),
        Triple(lanl("marko"), lanl("hasPosition"), lanl("Researcher")),
        Triple(lanl("marko"), lanl("hasFriend"), lanl("jhw")),
        Triple(lanl("marko"), lanl("hasFriend"), lanl("norman")),
        Triple(lanl("jhw"), lanl("hasPosition"), lanl("Researcher")),
        Triple(lanl("jhw"), lanl("hasFriend"), lanl("norman")),
        Triple(lanl("norman"), lanl("contacted"), lanl("johan")),
    ]
)


def link_graph(*pairs) -> Graph:
    return Graph(Triple(t(a), t("link"), t(b)) for a, b in pairs)


PATH_ABC = link_graph(("a", "b"), ("b", "c"))
K4 = link_graph(("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))
STAR = link_graph(("hub", "l1"), ("hub", "l2"), ("hub", "l3"), ("hub", "l4"))

G2_SHAPE = unconstrained_grammar(t("a"), t("b"))


def pair_grammar(i, j):
    return rebind_endpoints(G2_SHAPE, i, j)


@pytest.fixture(scope="module")
def projection():
    return project_to_unlabeled(load_ntriples(read_fixture("social.nt")))


# -- degree ---------------------------------------------------------------------


def test_degree_of_marko_on_enumerated_edges():
    assert degree(ENUMERATED_EDGES, lanl("marko")) == (1, 3)


def test_degree_of_absent_vertex():
    assert degree(ENUMERATED_EDGES, lanl("ghost")) == (0, 0)


def test_degree_counts_self_loop_on_both_sides():
    loop = Graph([Triple(t("a"), t("p"), t("a"))])
    assert degree(loop, t("a")) == (1, 1)


# -- shortest path -----------------------------------------------------------------


def test_shortest_path_researcher_constrained(social_graph, researcher_grammar):
    result = shortest_path(social_graph, researcher_grammar)
    assert result.defined and result.value == 2
    assert len(result.witness_paths) == 1
    assert result.witness_paths[0].vertices() == (lanl("johan"), lanl("marko"), lanl("norman"))


def test_shortest_path_unconstrained(social_graph, any_path_grammar):
    result = shortest_path(social_graph, any_path_grammar)
    assert result.value == 1


def test_shortest_path_undefined_when_unreachable(social_graph, researcher_grammar):
    rebound = rebind_endpoints(researcher_grammar, lanl("norman"), lanl("johan"))
    result = shortest_path(social_graph, rebound)
    assert not result.defined and result.value is None


def test_constraint_monotonicity(social_graph, researcher_grammar, any_path_grammar):
    constrained = shortest_path(social_graph, researcher_grammar)
    free = shortest_path(social_graph, any_path_grammar)
    assert constrained.value >= free.value


# -- eccentricity, radius, diameter ----------------------------------------------------


def test_eccentricity_of_johan_on_projection(projection):
    result = eccentricity(projection, G2_SHAPE, lanl("johan"), HUMANS)
    assert result.defined and result.value == 2


def test_eccentricity_with_no_other_targets(projection):
    result = eccentricity(projection, G2_SHAPE, lanl("johan"), {lanl("johan")})
    assert not result.defined


def test_eccentricity_of_star_center():
    result = eccentricity(STAR, G2_SHAPE, t("hub"), STAR.vertices())
    assert result.value == 1


def test_radius_and_diameter_on_projection(projection):
    assert radius(projection, G2_SHAPE, HUMANS).value == 1
    assert diameter(projection, G2_SHAPE, HUMANS).value == 2


def test_radius_and_diameter_on_path_graph():
    vertices = PATH_ABC.vertices()
    assert radius(PATH_ABC, G2_SHAPE, vertices).value == 1
    assert diameter(PATH_ABC, G2_SHAPE, vertices).value == 2


def test_radius_and_diameter_on_k4():
    vertices = K4.vertices()
    assert radius(K4, G2_SHAPE, vertices).value == 1
    assert diameter(K4, G2_SHAPE, vertices).value == 1


@pytest.mark.parametrize("kind", sorted(VERTEX_KINDS, key=lambda k: k.value), ids=lambda k: k.value)
def test_vertex_metric_needs_a_source(projection, kind):
    with pytest.raises(ValueError, match=f"{kind.value} needs a source vertex"):
        fold(kind, WalkerPaths(projection, G2_SHAPE), HUMANS)


def test_radius_requires_two_vertices():
    with pytest.raises(ValueError):
        radius(K4, G2_SHAPE, {t("a")})


def test_radius_never_exceeds_diameter_on_random_graphs():
    rng = random.Random(47)
    for _ in range(10):
        graph = random_single_predicate_graph(rng, rng.randint(3, 14), rng.randint(3, 25))
        vertices = graph.vertices()
        r = radius(graph, G2_SHAPE, vertices)
        d = diameter(graph, G2_SHAPE, vertices)
        if r.defined and d.defined:
            assert r.value <= d.value


# -- closeness --------------------------------------------------------------------------


def test_closeness_of_johan_on_projection(projection):
    result = closeness(projection, G2_SHAPE, lanl("johan"), HUMANS)
    assert result.value == 0.25


def test_closeness_on_k4():
    assert closeness(K4, G2_SHAPE, t("a"), K4.vertices()).value == pytest.approx(1 / 3)


def test_closeness_undefined_across_components():
    split = link_graph(("a", "b"), ("c", "d"))
    result = closeness(split, G2_SHAPE, t("a"), {t("c"), t("d")})
    assert not result.defined and result.skipped_targets == 2


def test_closeness_stays_in_unit_interval():
    rng = random.Random(53)
    for _ in range(5):
        graph = random_single_predicate_graph(rng, rng.randint(3, 10), rng.randint(3, 15))
        vertices = sorted(graph.vertices(), key=lambda r: r.value)
        result = closeness(graph, G2_SHAPE, vertices[0], vertices)
        if result.defined:
            assert 0 < result.value <= 1


# -- betweenness -------------------------------------------------------------------------


def test_betweenness_of_path_midpoint():
    result = betweenness(PATH_ABC, G2_SHAPE, t("b"), PATH_ABC.vertices())
    assert result.value == 2.0


def test_betweenness_zero_on_k4():
    for vertex in K4.vertices():
        assert betweenness(K4, G2_SHAPE, vertex, K4.vertices()).value == 0.0


def test_betweenness_of_marko_matches_enumeration_oracle(projection):
    universe = sorted(projection.vertices(), key=lambda r: r.value)
    expected = oracle_betweenness(projection.triples, lanl("marko"), universe)
    result = betweenness(projection, G2_SHAPE, lanl("marko"), universe)
    assert result.value == expected == 4.0
    humans_only = betweenness(projection, G2_SHAPE, lanl("marko"), HUMANS)
    assert humans_only.value == oracle_betweenness(projection.triples, lanl("marko"), sorted(HUMANS, key=lambda r: r.value)) == 1.0


def test_betweenness_zero_for_leaves():
    for leaf in (t("l1"), t("l2")):
        assert betweenness(STAR, G2_SHAPE, leaf, STAR.vertices()).value == 0.0
    assert betweenness(PATH_ABC, G2_SHAPE, t("a"), PATH_ABC.vertices()).value == 0.0


def test_pair_contributions_sum_to_interior_mass(projection):
    # for one endpoint pair, the contributions over all vertices equal the
    # average number of distinct interior vertices per tied-shortest path
    source, target = lanl("johan"), lanl("jhw")
    result = shortest_path(projection, pair_grammar(source, target))
    per_vertex = 0.0
    for vertex in projection.vertices():
        if vertex in (source, target):
            continue
        through = sum(1 for r in result.witness_paths if vertex in r.vertices()[1:-1])
        per_vertex += through / len(result.witness_paths)
    interior_mass = sum(
        len(set(r.vertices()[1:-1])) for r in result.witness_paths
    ) / len(result.witness_paths)
    assert per_vertex == pytest.approx(interior_mass)


# -- the BFS oracle and projection ---------------------------------------------------------


def test_oracle_distance_on_fixture(social_graph):
    assert unlabeled_oracle_geodesics(social_graph, lanl("johan"), lanl("norman")) == 1
    assert unlabeled_oracle_geodesics(social_graph, lanl("johan"), lanl("jhw")) == 2


def test_oracle_distance_reflexive(social_graph):
    assert unlabeled_oracle_geodesics(social_graph, lanl("johan"), lanl("johan")) == 0


def test_oracle_distance_disconnected():
    split = link_graph(("a", "b"), ("c", "d"))
    assert unlabeled_oracle_geodesics(split, t("a"), t("c")) is None


def test_projection_excludes_schema_triples(social_graph):
    projection = project_to_unlabeled(social_graph)
    assert len(projection) == 7
    assert lanl("Human") not in projection.vertices()


def test_grammar_matches_oracle_on_random_graphs():
    rng = random.Random(59)
    for _ in range(15):
        graph = random_single_predicate_graph(rng, rng.randint(3, 16), rng.randint(3, 30))
        projection = project_to_unlabeled(graph)
        vertices = sorted(graph.vertices(), key=lambda r: r.value)
        for source in vertices:
            for target in vertices:
                if source == target:
                    continue
                expected = unlabeled_oracle_geodesics(graph, source, target)
                result = shortest_path(projection, pair_grammar(source, target))
                actual = result.value if result.defined else None
                assert actual == expected


# -- universe -----------------------------------------------------------------------------


def test_default_universe_typed_by_entry(social_graph, researcher_grammar):
    # the entry binds a single concrete vertex, so the default collapses to it
    assert default_universe(social_graph, researcher_grammar) == {lanl("johan")}


def test_default_universe_for_wildcard_entry(social_graph):
    hub = unconstrained_grammar(RDFS_RESOURCE, RDFS_RESOURCE)
    assert default_universe(social_graph, hub) == social_graph.vertices()
