import dataclasses
import random

import pytest

from geograms.engine import (
    GraphIndex,
    PathRecord,
    PathStep,
    RunMode,
    RunTrace,
    Walker,
    expand,
    index_of,
    legal_edges,
    run,
)
from geograms.errors import (
    GrammarRuntimeError,
    TruncationError,
    UnresolvableEntryError,
)
from geograms.grammar import (
    Direction,
    load_grammar_from_triples,
    parse_grammar_dsl,
    rebind_endpoints,
)
from geograms.store import Graph, Iri, Triple, load_ntriples

from conftest import lanl, read_fixture
from oracles import random_grammar, random_multi_predicate_graph, random_single_predicate_graph, t

FWD, BWD = Direction.FORWARD, Direction.BACKWARD


def step(name, pred=None, direction=None):
    return PathStep(lanl(name), lanl(pred) if pred else None, direction)


@pytest.fixture
def detour_walker():
    # johan -hasFriend+-> marko -hasPosition+-> Researcher -hasPosition--> marko
    return Walker(
        0,
        "Human_3",
        (
            step("johan"),
            step("marko", "hasFriend", FWD),
            step("Researcher", "hasPosition", FWD),
            step("marko", "hasPosition", BWD),
        ),
        (step("johan"),),
    )


# -- attributes --------------------------------------------------------------------
#
# Each test below runs one generation of a walker whose context steps, over
# any predicate in either direction, into the context ``probed``, which
# carries the attributes under test.


PROBE_DSL = """
@prefix lanl: <http://www.lanl.gov#>
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
context start entry for lanl:johan {{
  pathcount 0
  traverse out rdfs:Resource -> {context}
}}
context {context} for rdfs:Resource {{
  traverse out rdfs:Resource -> probed, in rdfs:Resource -> probed
}}
context probed for rdfs:Resource {{
{attributes}
}}
context end exit for lanl:norman {{
  pathcount 0
}}
"""

# johan with a self-loop, so that a step may land back on the walker's vertex
LOOP_GRAPH = Graph(
    [Triple(lanl("johan"), lanl("knows"), lanl("johan")), Triple(lanl("johan"), lanl("knows"), lanl("marko"))]
)


def probe(graph, walker, *attributes):
    """(the vertices the walker's successors stand on, each rejected (vertex, reason))."""
    grammar = parse_grammar_dsl(PROBE_DSL.format(context=walker.context, attributes="\n".join(attributes)))
    trace = RunTrace()
    (frontier, _), _ = expand(graph, grammar, [walker], trace=trace)
    (generation,) = trace.generations
    rejected = {
        (r.triple.object if r.direction is FWD else r.triple.subject, r.reason) for r in generation.rejections
    }
    return {w.vertex for w in frontier}, rejected


def test_not_ever_set_singleton():
    walker = Walker(0, "johan_0", (step("johan"),))
    assert probe(LOOP_GRAPH, walker) == ({lanl("johan"), lanl("marko")}, set())
    assert probe(LOOP_GRAPH, walker, "notever") == ({lanl("marko")}, {(lanl("johan"), "notever")})


def test_not_ever_set_collects_vertices_only(social_graph, detour_walker):
    # marko also links to itself and to the trail's two predicates, as vertices
    extra = [Triple(lanl("marko"), lanl("knows"), lanl(name)) for name in ("marko", "hasFriend", "hasPosition")]
    graph = Graph([*social_graph.triples, *extra])
    admitted, rejected = probe(graph, detour_walker, "notever")
    assert admitted == {lanl("jhw"), lanl("norman"), lanl("Human"), lanl("hasFriend"), lanl("hasPosition")}
    assert rejected == {(lanl(name), "notever") for name in ("johan", "marko", "Researcher")}


def test_is_set_walkthrough_resolution(social_graph, researcher_grammar):
    # resolving position 3 with step 2 must land on the vertex at position 1
    walker = Walker(
        0,
        "Researcher_2",
        (step("johan"), step("marko", "hasFriend", FWD), step("Researcher", "hasPosition", FWD)),
    )
    trace = RunTrace()
    (frontier, _), _ = expand(social_graph, researcher_grammar, [walker], trace=trace)
    assert [(w.context, w.vertex) for w in frontier] == [("Human_3", lanl("marko"))]
    assert [(r.triple.subject, r.far_context, r.reason) for r in trace.generations[0].rejections] == [
        (lanl("jhw"), "Human_3", "is")
    ]


def test_is_set_empty_without_attributes(social_graph, detour_walker):
    # no attribute leaves every neighbor of marko open, even those on the trail
    admitted = {lanl(name) for name in ("johan", "jhw", "norman", "Researcher", "Human")}
    assert probe(social_graph, detour_walker) == (admitted, set())


def test_is_set_immediate_backtrack():
    walker = Walker(0, "c", (step("johan"),))
    assert probe(LOOP_GRAPH, walker, "is 1") == ({lanl("johan")}, {(lanl("marko"), "is")})


def test_is_set_step_past_start_raises():
    walker = Walker(0, "c", (step("johan"),))
    with pytest.raises(GrammarRuntimeError) as info:
        probe(LOOP_GRAPH, walker, "is 2")
    assert info.value.context_id == "probed"
    assert "probed" in str(info.value)
    assert "is step 2 reaches before the start of the path at position 1" in str(info.value)


@pytest.mark.parametrize("word", ["is", "not"])
def test_a_zero_is_or_not_step_names_no_trail_vertex(social_graph, word):
    # validation rejects it; an unvalidated grammar meets it at run time
    grammar = parse_grammar_dsl(read_fixture("researcher_path.pg").replace("is 2", f"{word} 0"), validate=False)
    with pytest.raises(GrammarRuntimeError, match=f"{word} step 0 reaches off the trail") as info:
        run(social_graph, grammar)
    assert info.value.context_id == "Human_3"


def test_a_negative_pathcount_step_names_no_trail_vertex(social_graph):
    text = read_fixture("researcher_path_grammar.nt").replace('pathcount_3 rwr:step "2"', 'pathcount_3 rwr:step "-1"')
    grammar = load_grammar_from_triples(load_ntriples(text), validate=False)
    with pytest.raises(GrammarRuntimeError, match="pathcount step -1 reaches off the trail at position 3") as info:
        run(social_graph, grammar)
    assert info.value.context_id == "Human_3"


def test_two_is_attributes_union_their_targets(social_graph):
    walker = Walker(
        0,
        "c",
        (step("johan"), step("marko", "hasFriend", FWD), step("jhw", "hasFriend", FWD)),
    )
    # jhw also links to itself and to johan
    extra = [Triple(lanl("jhw"), lanl("knows"), lanl(name)) for name in ("jhw", "johan")]
    admitted, rejected = probe(Graph([*social_graph.triples, *extra]), walker, "is 1", "is 3")
    assert admitted == {lanl("jhw"), lanl("johan")}
    assert rejected == {(lanl(name), "is") for name in ("marko", "norman", "Researcher", "Human")}


def test_not_set_blocks_coauthor_backtrack():
    # jbollen at position 1; resolving position 3 with step 2 forbids it
    walker = Walker(
        0,
        "Article",
        (step("marko"), step("jbollen", "authored", BWD), step("article", "authored", FWD)),
    )
    graph = Graph([Triple(lanl(name), lanl("authored"), lanl("article")) for name in ("marko", "jbollen")])
    assert probe(graph, walker, "not 2") == ({lanl("marko")}, {(lanl("jbollen"), "not")})


def test_not_set_trivials():
    walker = Walker(0, "c", (step("johan"),))
    assert probe(LOOP_GRAPH, walker) == ({lanl("johan"), lanl("marko")}, set())
    assert probe(LOOP_GRAPH, walker, "not 1") == ({lanl("marko")}, {(lanl("johan"), "not")})


def test_path_step_requires_predicate_and_direction_together():
    with pytest.raises(ValueError):
        PathStep(lanl("x"), lanl("p"), None)


def test_records_with_mixed_bare_steps_sort():
    # a pathcount rule can copy the bare start step into a later record
    # position; such records must still order against predicated ones
    bare = PathRecord((step("johan"), step("johan")))
    predicated = PathRecord((step("johan"), step("johan", "hasFriend", FWD)))
    ordered = sorted([predicated, bare], key=PathRecord.key)
    assert ordered == [bare, predicated]


# -- legal edges ----------------------------------------------------------------


def test_legal_edges_from_entry(social_graph, researcher_grammar):
    walker = Walker(0, "johan_0", (step("johan"),))
    rule = researcher_grammar.entry_context.traverse_rule
    found = legal_edges(social_graph, researcher_grammar, walker, rule)
    assert set(found) == {
        (Triple(lanl("johan"), lanl("hasFriend"), lanl("marko")), FWD, "Human_1")
    }


def test_legal_edges_cloning_point_excludes_back_edge(social_graph, researcher_grammar, detour_walker):
    rule = researcher_grammar.contexts["Human_3"].traverse_rule
    found = legal_edges(social_graph, researcher_grammar, detour_walker, rule)
    assert set(found) == {
        (Triple(lanl("marko"), lanl("hasFriend"), lanl("jhw")), FWD, "Human_1"),
        (Triple(lanl("marko"), lanl("hasFriend"), lanl("norman")), FWD, "norman_4"),
    }


def test_legal_edges_is_attribute_prevents_clone(social_graph, researcher_grammar):
    walker = Walker(
        0,
        "Researcher_2",
        (step("johan"), step("marko", "hasFriend", FWD), step("Researcher", "hasPosition", FWD)),
    )
    rule = researcher_grammar.contexts["Researcher_2"].traverse_rule
    found = legal_edges(social_graph, researcher_grammar, walker, rule)
    assert set(found) == {
        (Triple(lanl("marko"), lanl("hasPosition"), lanl("Researcher")), BWD, "Human_3")
    }


# -- path counting -----------------------------------------------------------------


def test_path_count_at_entry(social_graph, researcher_grammar):
    walker = Walker(0, "johan_0", (step("johan"),))
    (frontier, _), _ = expand(social_graph, researcher_grammar, [walker])
    assert [w.recorded for w in frontier] == [(step("johan"),)]


def test_path_count_reaches_back_through_detour(social_graph, researcher_grammar, detour_walker):
    # Human_3 records with pathcount 2, from marko back past the detour
    (frontier, _), _ = expand(social_graph, researcher_grammar, [detour_walker])
    assert len(frontier) == 2
    for successor in frontier:
        assert successor.recorded == (step("johan"), step("marko", "hasFriend", FWD))


def test_path_count_at_exit_completes_record(social_graph, researcher_grammar):
    walker = Walker(
        0,
        "norman_4",
        (
            step("johan"),
            step("marko", "hasFriend", FWD),
            step("Researcher", "hasPosition", FWD),
            step("marko", "hasPosition", BWD),
            step("norman", "hasFriend", FWD),
        ),
        (step("johan"), step("marko", "hasFriend", FWD)),
    )
    (frontier, finished), _ = expand(social_graph, researcher_grammar, [walker])
    assert frontier == ()
    (record,) = finished
    assert record.steps == (step("johan"), step("marko", "hasFriend", FWD), step("norman", "hasFriend", FWD))
    assert record.edge_length == 2
    assert record.flattened_length == 7


def test_path_count_past_start_raises(social_graph):
    grammar = parse_grammar_dsl(read_fixture("researcher_path.pg").replace("pathcount 0", "pathcount 1", 1))
    walker = Walker(0, "johan_0", (step("johan"),))
    with pytest.raises(GrammarRuntimeError) as info:
        expand(social_graph, grammar, [walker])
    assert info.value.context_id == "johan_0"
    # the same form as an is or not step's, naming the walker's own position
    assert "pathcount step 1 reaches before the start of the path at position 0" in str(info.value)


RAISES_IN_GENERATION_1_DSL = """
@prefix lanl: <http://www.lanl.gov#>
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
context start entry for lanl:johan {
  pathcount 0
  traverse out rdfs:Resource -> mid
}
context mid for rdfs:Resource {
  traverse out rdfs:Resource -> end, in rdfs:Resource -> deep
}
context deep for rdfs:Resource {
  is 3
}
context end exit for lanl:norman {
  pathcount 0
}
"""


def test_a_generation_that_raises_leaves_the_trace_at_the_generations_before_it(social_graph):
    # in generation 1 a mid walker counts and rejects the candidates of its
    # first edge spec, then "is 3" reaches before the path start
    grammar = parse_grammar_dsl(RAISES_IN_GENERATION_1_DSL, validate=False)
    trace = RunTrace()
    with pytest.raises(GrammarRuntimeError, match="is step 3 reaches before the start"):
        run(social_graph, grammar, trace=trace)
    first = RunTrace()
    (frontier, _), _ = expand(social_graph, grammar, [Walker(0, "start", (step("johan"),))], next_id=1, trace=first)
    assert frontier and trace.generations == first.generations
    (generation,) = trace.generations
    assert isinstance(generation.emitted, frozenset) and isinstance(generation.rejections, tuple)
    assert trace.raw_candidates == generation.raw_candidates
    assert trace.transitions_examined == len({(m.triple, m.direction) for m in (*generation.rejections, *generation.emitted)})
    assert trace.walker_ids == {0} | {w.id for w in frontier}


def test_an_unvalidated_exit_that_traverses_raises(social_graph):
    text = (
        "@prefix lanl: <http://www.lanl.gov#>\n"
        "context a entry for lanl:johan {\n  pathcount 0\n  traverse out lanl:hasFriend -> b\n}\n"
        "context b exit for lanl:marko {\n  pathcount 0\n  traverse out lanl:hasFriend -> b\n}\n"
    )
    with pytest.raises(GrammarRuntimeError, match="exit context must not traverse") as info:
        run(social_graph, parse_grammar_dsl(text, validate=False))
    assert info.value.context_id == "b"


@pytest.mark.parametrize("order", [("Human_1", "norman_4"), ("norman_4", "Human_1")], ids=["human-first", "norman-first"])
def test_an_unvalidated_second_traverse_rule_raises(social_graph, order):
    # the validator rejects such a context; following only one of its rules
    # would make the result hang on the rules' order
    entry_rule = "traverse out lanl:hasFriend -> Human_1, out lanl:hasFriend -> norman_4"
    text = read_fixture("researcher_path.pg")
    assert entry_rule in text
    rules = "\n  ".join(f"traverse out lanl:hasFriend -> {far}" for far in order)
    grammar = parse_grammar_dsl(text.replace(entry_rule, rules, 1), validate=False)
    with pytest.raises(GrammarRuntimeError, match="context carries more than one traverse rule") as info:
        run(social_graph, grammar)
    assert info.value.context_id == "johan_0"


# -- expand ---------------------------------------------------------------------


def test_expand_clones_at_branch(social_graph, researcher_grammar, detour_walker):
    (frontier, finished), next_id = expand(
        social_graph, researcher_grammar, [detour_walker], next_id=1
    )
    assert len(frontier) == 2 and finished == frozenset()
    assert {w.id for w in frontier} == {1, 2}
    for successor in frontier:
        assert successor.trail[:-1] == detour_walker.trail
        assert len(successor.trail) == len(detour_walker.trail) + 1


def test_walkers_the_engine_builds_compare_by_their_four_fields(
    social_graph, researcher_grammar, detour_walker
):
    (frontier, _), _ = expand(social_graph, researcher_grammar, [detour_walker], next_id=1)
    for successor in frontier:
        fresh = Walker(successor.id, successor.context, successor.trail, successor.recorded)
        assert successor == fresh and hash(successor) == hash(fresh)
        assert repr(successor) == repr(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            successor.trail = detour_walker.trail


def test_legal_edges_on_a_replaced_walker_follows_its_new_trail(
    social_graph, researcher_grammar, detour_walker
):
    (frontier, _), _ = expand(social_graph, researcher_grammar, [detour_walker], next_id=1)
    (at_jhw,) = [w for w in frontier if w.vertex == lanl("jhw")]
    # back at marko after the detour: the Human_3 rule leads on to jhw and
    # norman, and notever still blocks the friendship back to johan
    replaced = dataclasses.replace(at_jhw, context="Human_3", trail=detour_walker.trail)
    fresh = Walker(at_jhw.id, "Human_3", detour_walker.trail, at_jhw.recorded)
    rule = researcher_grammar.contexts["Human_3"].traverse_rule
    found = legal_edges(social_graph, researcher_grammar, replaced, rule)
    assert found == legal_edges(social_graph, researcher_grammar, fresh, rule)
    assert {t.triple.object for t in found} == {lanl("jhw"), lanl("norman")}


def test_expand_empty_frontier(social_graph, researcher_grammar):
    (frontier, finished), _ = expand(social_graph, researcher_grammar, [])
    assert frontier == () and finished == frozenset()


def test_expand_drops_walker_with_no_edges(social_graph, researcher_grammar):
    # johan has no incoming hasPosition edge, so this walker halts
    walker = Walker(0, "Researcher_2", (step("marko"), step("johan", "hasFriend", BWD)))
    (frontier, finished), _ = expand(social_graph, researcher_grammar, [walker])
    assert frontier == () and finished == frozenset()


def test_expand_emits_exit_walkers_to_finished(social_graph, researcher_grammar):
    walker = Walker(
        0,
        "norman_4",
        (step("johan"), step("marko", "hasFriend", FWD), step("norman", "hasFriend", FWD)),
        (step("johan"), step("marko", "hasFriend", FWD)),
    )
    (frontier, finished), _ = expand(social_graph, researcher_grammar, [walker])
    assert frontier == ()
    assert {r.edge_length for r in finished} == {2}


SELF_LOOP_DSL = """
@prefix lanl: <http://www.lanl.gov#>
context start entry for lanl:johan {
  pathcount 0
  traverse out lanl:knows -> ahead, in lanl:knows -> back
}
context back for lanl:johan {
  pathcount 0
  traverse out lanl:knows -> ahead
}
context ahead exit for lanl:johan {
  pathcount 0
}
"""


def test_a_self_loop_traversed_both_ways_gives_one_successor_per_direction():
    # johan knows johan is two moves from johan, one along the triple and one
    # against it; the random graphs of the golden traces never hold such a triple
    loop = Triple(lanl("johan"), lanl("knows"), lanl("johan"))
    graph = Graph([loop])
    grammar = parse_grammar_dsl(SELF_LOOP_DSL)
    walker = Walker(0, "start", (step("johan"),))
    found = legal_edges(graph, grammar, walker, grammar.contexts["start"].traverse_rule)
    assert [(t.triple, t.direction, t.next_context) for t in found] == [(loop, FWD, "ahead"), (loop, BWD, "back")]

    (frontier, finished), next_id = expand(graph, grammar, [walker], next_id=1)
    assert finished == frozenset() and next_id == 3
    assert [(w.id, w.context, w.vertex) for w in frontier] == [(1, "ahead", lanl("johan")), (2, "back", lanl("johan"))]
    assert [w.trail[-1] for w in frontier] == [step("johan", "knows", FWD), step("johan", "knows", BWD)]
    assert all(w.trail[:-1] == walker.trail for w in frontier)


# -- run ----------------------------------------------------------------------------


def test_run_researcher_grammar_all_paths(social_graph, researcher_grammar):
    records = run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50)
    assert len(records) == 2
    assert sorted(r.edge_length for r in records) == [2, 3]


def test_run_any_path_shortest(social_graph, any_path_grammar):
    records = run(social_graph, any_path_grammar, RunMode.SHORTEST_ONLY, 50)
    assert len(records) == 1
    (record,) = records
    assert record.steps == (step("johan"), step("norman", "contacted", BWD))


def test_run_reversed_endpoints_is_empty(social_graph, researcher_grammar):
    rebound = rebind_endpoints(researcher_grammar, lanl("norman"), lanl("johan"))
    assert run(social_graph, rebound, RunMode.ALL_PATHS, 50) == frozenset()


def test_run_rebound_marko_to_norman(social_graph, researcher_grammar):
    rebound = rebind_endpoints(researcher_grammar, lanl("marko"), lanl("norman"))
    records = run(social_graph, rebound, RunMode.SHORTEST_ONLY, 50)
    assert min(r.edge_length for r in records) == 1


def test_run_unresolvable_entry(social_graph, any_path_grammar):
    rebound = rebind_endpoints(any_path_grammar, lanl("ghost"), lanl("norman"))
    with pytest.raises(UnresolvableEntryError):
        run(social_graph, rebound, RunMode.ALL_PATHS, 50)


def test_walker_ids_unique_and_dense(social_graph, researcher_grammar):
    trace = RunTrace()
    run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50, trace=trace)
    assert len(trace.walker_ids) == max(trace.walker_ids) + 1


def test_shortest_only_subset_of_all_paths(social_graph, researcher_grammar, any_path_grammar):
    for grammar in (researcher_grammar, any_path_grammar):
        everything = run(social_graph, grammar, RunMode.ALL_PATHS, 50)
        shortest = run(social_graph, grammar, RunMode.SHORTEST_ONLY, 50)
        assert shortest <= everything
        best = min(r.edge_length for r in everything)
        assert all(r.edge_length == best for r in shortest)


def test_determinism_across_worker_counts(social_graph, researcher_grammar, any_path_grammar):
    for grammar in (researcher_grammar, any_path_grammar):
        runs = [
            run(social_graph, grammar, RunMode.ALL_PATHS, 50, workers=n)
            for n in (1, 4, 8)
        ]
        rendered = [
            "\n".join(r.to_text() for r in sorted(one, key=PathRecord.key)) for one in runs
        ]
        assert rendered[0] == rendered[1] == rendered[2]


# -- notever soundness, both exit conventions ------------------------------------------


REVISIT_GRAPH = Graph(
    [
        Triple(t("s"), t("p"), t("a")),
        Triple(t("a"), t("p"), t("b")),
        Triple(t("b"), t("p"), t("a")),
    ]
)

REVISIT_DSL = """
@prefix ex: <http://example.org/t#>
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
context e entry for ex:s {
  pathcount 0
  traverse out ex:p -> A
}
context A for rdfs:Resource {
  notever
  pathcount 0
  traverse out ex:p -> B
}
context B for rdfs:Resource {
  pathcount 0
  traverse out ex:p -> x
}
context x exit for ex:a {
  pathcount 0
}
"""


def test_exit_without_notever_allows_final_revisit():
    grammar = parse_grammar_dsl(REVISIT_DSL)
    records = run(REVISIT_GRAPH, grammar, RunMode.ALL_PATHS, 50)
    assert {tuple(r.vertices()) for r in records} == {
        (t("s"), t("a"), t("b"), t("a")),
    }


def test_exit_with_notever_forbids_final_revisit():
    grammar = parse_grammar_dsl(
        REVISIT_DSL.replace("context x exit for ex:a {", "context x exit for ex:a {\n  notever")
    )
    assert run(REVISIT_GRAPH, grammar, RunMode.ALL_PATHS, 50) == frozenset()


def test_all_notever_records_are_simple(social_graph, any_path_grammar):
    # every context of the hub grammar guards with notever except entry and
    # exit; adding notever to the exit makes every trail vertex-distinct
    text = (
        "@prefix lanl: <http://www.lanl.gov#>\n"
        + "\n".join(
            line if "exit for" not in line else line + "\n  notever"
            for line in read_fixture("any_path.pg").splitlines()
            if not line.startswith("#")
        )
    )
    grammar = parse_grammar_dsl(text)
    for record in run(social_graph, grammar, RunMode.ALL_PATHS, 50):
        vertices = record.vertices()
        assert len(set(vertices)) == len(vertices)


# -- termination and bounds --------------------------------------------------------


CYCLE_GRAPH = Graph(
    [
        Triple(t("a"), t("p"), t("b")),
        Triple(t("b"), t("p"), t("c")),
        Triple(t("c"), t("p"), t("a")),
        Triple(t("x"), t("p"), t("y")),
    ]
)

CYCLE_DSL = """
@prefix ex: <http://example.org/t#>
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
context e entry for ex:a {
  pathcount 0
  traverse out ex:p -> H, out ex:p -> sink
}
context H for rdfs:Resource {
  pathcount 0
  traverse out ex:p -> H, out ex:p -> sink
}
context sink exit for ex:x {
  pathcount 0
}
"""


def test_notever_free_cycle_truncates_at_max_steps():
    grammar = parse_grammar_dsl(CYCLE_DSL)
    with pytest.raises(TruncationError) as info:
        run(CYCLE_GRAPH, grammar, RunMode.ALL_PATHS, 17)
    assert info.value.max_steps == 17
    assert info.value.partial_records == frozenset()


def test_truncation_inside_eccentricity_names_the_pair():
    from geograms.metrics import eccentricity

    grammar = parse_grammar_dsl(CYCLE_DSL)
    with pytest.raises(TruncationError) as info:
        eccentricity(CYCLE_GRAPH, grammar, t("a"), [t("a"), t("b"), t("x")], max_steps=7)
    # b is reached in one generation; walkers bound for x circle until the cap
    assert info.value.pair == (t("a"), t("x"))
    assert info.value.max_steps == 7
    assert repr(t("x")) in str(info.value)


# s -> a is an instance of the class target C, so a step onto a resolves
# into the exit context and its record (s, a) finishes without reaching C;
# C itself is reached later, through b and through b, g
ABSORBING_GRAPH = load_ntriples(
    "<urn:s> <urn:p> <urn:a> .\n"
    "<urn:a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:C> .\n"
    "<urn:s> <urn:p> <urn:b> .\n"
    "<urn:b> <urn:p> <urn:C> .\n"
    "<urn:b> <urn:p> <urn:g> .\n"
    "<urn:g> <urn:p> <urn:C> .\n"
    "<urn:b> <urn:p> <urn:d> .\n"
    "<urn:d> <urn:p> <urn:e> .\n"
)


def _urn_path(*names):
    return tuple(Iri("urn:" + name) for name in names)


def test_a_record_absorbed_by_a_class_target_is_not_returned():
    from geograms.grammar import unconstrained_grammar

    grammar = unconstrained_grammar(Iri("urn:s"), Iri("urn:C"))
    trace = RunTrace()
    records = run(ABSORBING_GRAPH, grammar, RunMode.ALL_PATHS, 20, trace=trace)
    # the absorbed record is the only one finished in generation 1
    assert [g.finished_count for g in trace.generations][:3] == [0, 1, 1]
    assert {r.vertices() for r in records} == {_urn_path("s", "b", "C"), _urn_path("s", "b", "g", "C")}
    shortest = run(ABSORBING_GRAPH, grammar, RunMode.SHORTEST_ONLY, 20)
    assert {r.vertices() for r in shortest} == {_urn_path("s", "b", "C")}


def test_truncation_keeps_no_record_absorbed_by_a_class_target():
    from geograms.grammar import unconstrained_grammar

    grammar = unconstrained_grammar(Iri("urn:s"), Iri("urn:C"))
    with pytest.raises(TruncationError) as info:
        run(ABSORBING_GRAPH, grammar, RunMode.ALL_PATHS, 3)
    assert {r.vertices() for r in info.value.partial_records} == {_urn_path("s", "b", "C")}
    with pytest.raises(TruncationError) as info:
        run(ABSORBING_GRAPH, grammar, RunMode.ALL_PATHS, 2)
    assert info.value.partial_records == frozenset()


def test_visit_bound_on_unconstrained_shortest(social_graph, any_path_grammar):
    trace = RunTrace()
    run(social_graph, any_path_grammar, RunMode.SHORTEST_ONLY, 50, trace=trace)
    bound = len(social_graph.vertices()) + 2 * len(social_graph)
    assert trace.transitions_examined <= bound


def test_visit_bound_on_random_graphs():
    from geograms.grammar import unconstrained_grammar

    rng = random.Random(41)
    for _ in range(15):
        graph = random_single_predicate_graph(rng, rng.randint(4, 20), rng.randint(4, 40))
        vertices = sorted(graph.vertices(), key=lambda r: r.value)
        source, sink = rng.sample(vertices, 2)
        trace = RunTrace()
        run(graph, unconstrained_grammar(source, sink), RunMode.SHORTEST_ONLY, 100, trace=trace)
        assert trace.transitions_examined <= len(vertices) + 2 * len(graph)


def test_engine_matches_enumerator_on_fixture_grammars(
    social_graph, researcher_grammar, any_path_grammar
):
    from oracles import enumerate_paths

    for grammar in (researcher_grammar, any_path_grammar):
        assert run(social_graph, grammar, RunMode.ALL_PATHS, 100) == enumerate_paths(
            social_graph, grammar
        )


SUBSUMPTION_DATA = (
    "@prefix ex: <http://example.org/t#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "ex:knows rdfs:subPropertyOf ex:related .\n"
    "ex:related rdfs:subPropertyOf ex:linked .\n"
    "ex:a ex:knows ex:b .\n"
)

SUBSUMPTION_DSL = """
@prefix ex: <http://example.org/t#>
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#>
context e entry for ex:a {
  pathcount 0
  traverse out ex:linked -> sink
}
context sink exit for ex:b {
  pathcount 0
}
"""


def test_subsumption_mode_changes_traversal():
    # ex:knows reaches ex:linked only through the two-hop property chain
    from geograms.store import SubsumptionMode

    grammar = parse_grammar_dsl(SUBSUMPTION_DSL)
    closure_graph = load_ntriples(SUBSUMPTION_DATA)
    assert len(run(closure_graph, grammar, RunMode.ALL_PATHS, 10)) == 1
    single_hop = load_ntriples(SUBSUMPTION_DATA, subsumption=SubsumptionMode.SINGLE_HOP)
    assert run(single_hop, grammar, RunMode.ALL_PATHS, 10) == frozenset()


@pytest.mark.parametrize("max_steps", [0, -3])
def test_run_rejects_max_steps_below_one(social_graph, researcher_grammar, max_steps):
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        run(social_graph, researcher_grammar, RunMode.ALL_PATHS, max_steps)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_rejects_workers_below_one(social_graph, researcher_grammar, workers):
    with pytest.raises(ValueError):
        run(social_graph, researcher_grammar, RunMode.ALL_PATHS, 50, workers=workers)


def _count_index_builds(monkeypatch) -> list:
    """The graphs an engine index is built for from now on, one entry per build."""
    built = []
    real_init = GraphIndex.__init__

    def init(self, graph):
        built.append(graph)
        real_init(self, graph)

    monkeypatch.setattr(GraphIndex, "__init__", init)
    return built


def test_engine_index_is_built_by_the_first_run_and_kept(monkeypatch):
    # loading builds no index: graphs that are only matched never pay for one
    built = _count_index_builds(monkeypatch)
    graph = load_ntriples(SUBSUMPTION_DATA)
    grammar_graph = load_ntriples(read_fixture("researcher_path_grammar.nt"))
    load_grammar_from_triples(grammar_graph)
    assert built == []
    run(graph, parse_grammar_dsl(SUBSUMPTION_DSL), RunMode.ALL_PATHS, 10)
    assert len(built) == 1 and built[0] is graph
    index = index_of(graph)
    run(graph, parse_grammar_dsl(SUBSUMPTION_DSL), RunMode.SHORTEST_ONLY, 10)
    assert len(built) == 1
    assert index_of(graph) is index


def test_building_the_engine_index_reads_no_triple_set(monkeypatch):
    # vertex ids come from the graph's vertex set, and predicates are known
    # by their IRI text, so building the index makes no pass over the triples
    graph = Graph([Triple(lanl("johan"), lanl("knows"), lanl("marko"))])
    reads = []
    real = Graph.triples

    def counted(self):
        reads.append(self)
        return real.fget(self)

    monkeypatch.setattr(Graph, "triples", property(counted))
    index = GraphIndex(graph)
    assert reads == []
    assert index.vertex_id == {v: i for i, v in enumerate(graph.vertices())}


def test_legal_edges_from_a_vertex_outside_the_graph_is_empty(social_graph, researcher_grammar):
    walker = Walker(0, "johan_0", (step("ghost"),))
    rule = researcher_grammar.entry_context.traverse_rule
    assert legal_edges(social_graph, researcher_grammar, walker, rule) == ()


def test_a_run_builds_move_lists_only_for_the_vertices_it_reaches(monkeypatch):
    from geograms.grammar import unconstrained_grammar

    built = _count_index_builds(monkeypatch)
    graph = Graph(CYCLE_GRAPH.triples)
    run(graph, unconstrained_grammar(t("a"), t("c")), RunMode.ALL_PATHS, 10)
    index = index_of(graph)
    assert len(built) == 1 and built[0] is graph
    # walkers step from a and b; a step onto c resolves into the exit
    # context, which never traverses, and x and y are never reached
    assert {index.vertices[v] for v in index.moves if v != -1} == {t("a"), t("b")}


def _race_on_a_fresh_graph(rng, graph, bind):
    """Run 8 random pairs on one fresh graph from 8 threads at once; each must match a lone run."""
    import sys
    import threading

    edges = graph.triples
    vertices = sorted(graph.vertices(), key=lambda r: r.value)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(8)]
    alone = {pair: run(Graph(edges), bind(*pair), RunMode.ALL_PATHS, 50) for pair in pairs}

    shared = Graph(edges)
    found = {}

    def worker(pair):
        found[pair] = run(shared, bind(*pair), RunMode.ALL_PATHS, 50)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(pair,)) for pair in pairs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == alone


def test_threads_sharing_a_fresh_graph_get_the_single_threaded_answers():
    # the engine fills a graph's index, its move lists and its admission
    # memos on first use; threads that race to fill them must still each
    # get the answer of a lone run.  Random grammars over several
    # predicates and classes also race on the predicate and type memos.
    from functools import partial

    from geograms.grammar import unconstrained_grammar

    rng = random.Random(7)
    _race_on_a_fresh_graph(rng, random_single_predicate_graph(rng, 12, 24), unconstrained_grammar)
    # seeds whose grammars name predicates, and where several pairs have paths
    for seed, n_vertices, n_edges in ((6, 8, 24), (7, 8, 24), (3, 10, 30), (6, 10, 30)):
        rng = random.Random(seed)
        graph = random_multi_predicate_graph(rng, n_vertices, n_edges)
        _race_on_a_fresh_graph(rng, graph, partial(rebind_endpoints, random_grammar(rng, graph)))
