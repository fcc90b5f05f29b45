import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from geograms import load_ntriples
from geograms.errors import ParseError, ValidationError
from geograms.store import (
    RDF_NS,
    RDF_TYPE,
    RDFS_RESOURCE,
    XSD_NS,
    Blank,
    Graph,
    Iri,
    Literal,
    SubsumptionMode,
    Triple,
    _term_text,
    membership_index,
    triple_key,
)

from conftest import lanl
from oracles import random_multi_predicate_graph, t


def test_parse_single_triple():
    graph = load_ntriples(
        "@prefix lanl: <http://www.lanl.gov#> .\n"
        "<lanl:johan> <lanl:hasFriend> <lanl:marko> .\n"
    )
    assert len(graph) == 1
    assert Triple(lanl("johan"), lanl("hasFriend"), lanl("marko")) in graph


def test_parse_empty_text():
    assert len(load_ntriples("")) == 0


def test_duplicate_lines_collapse():
    line = "<http://a#x> <http://a#p> <http://a#y> ."
    graph = load_ntriples(line + "\n" + line + "\n")
    assert len(graph) == 1


def test_bare_prefixed_names_and_comments():
    graph = load_ntriples(
        "# a comment\n"
        "@prefix ex: <http://example.org/> .\n"
        "ex:a ex:p ex:b .\n"
    )
    assert Triple(Iri("http://example.org/a"), Iri("http://example.org/p"), Iri("http://example.org/b")) in graph


def test_unknown_bare_prefix_is_an_error():
    with pytest.raises(ParseError):
        load_ntriples("ex:a ex:p ex:b .\n")


def test_angle_bracketed_unknown_prefix_stays_verbatim():
    graph = load_ntriples("<x:a> <x:p> <x:b> .\n")
    assert Triple(Iri("x:a"), Iri("x:p"), Iri("x:b")) in graph


def test_literals_blank_nodes_and_escapes():
    graph = load_ntriples(
        '_:b0 <http://a#p> "he said \\"hi\\"\\n" .\n'
        '_:b0 <http://a#q> "42"^^<http://www.w3.org/2001/XMLSchema#int> .\n'
    )
    objects = {tr.object for tr in graph.triples}
    assert Literal('he said "hi"\n') in objects
    assert Literal("42", "http://www.w3.org/2001/XMLSchema#int") in objects
    assert all(tr.subject == Blank("b0") for tr in graph.triples)


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as info:
        load_ntriples("<http://a#x> <http://a#p> .\n")
    assert info.value.line == 1


def test_missing_final_dot_is_an_error():
    with pytest.raises(ParseError):
        load_ntriples("<http://a#x> <http://a#p> <http://a#y>\n")


def test_literal_subject_rejected():
    with pytest.raises(ValidationError) as info:
        load_ntriples('"oops" <http://a#p> <http://a#y> .\n')
    assert info.value.line == 1


def test_literal_predicate_rejected():
    with pytest.raises(ValidationError):
        load_ntriples('<http://a#x> "oops" <http://a#y> .\n')


def test_triple_type_invariants():
    with pytest.raises(ValidationError):
        Triple(Literal("x"), Iri("http://a#p"), Iri("http://a#y"))
    with pytest.raises(ValidationError):
        Triple(Iri("http://a#x"), Blank("b"), Iri("http://a#y"))
    with pytest.raises(ValidationError):
        Iri("")


# -- match -----------------------------------------------------------------------


def test_match_bound_subject_predicate(social_graph):
    found = social_graph.match((lanl("johan"), lanl("hasFriend"), None))
    assert {tr.object for tr in found} == {lanl("marko")}


def test_match_fully_unbound_returns_all(social_graph):
    assert social_graph.match((None, None, None)) == social_graph.triples


def test_match_no_outgoing_hasfriend_from_norman(social_graph):
    assert social_graph.match((lanl("norman"), lanl("hasFriend"), None)) == frozenset()


def test_fully_bound_match_has_at_most_one_result(social_graph):
    for tr in social_graph.triples:
        assert len(social_graph.match((tr.subject, tr.predicate, tr.object))) == 1
    absent = (lanl("norman"), lanl("hasFriend"), lanl("johan"))
    assert len(social_graph.match(absent)) == 0


def test_loaded_triples_all_reachable_by_unbound_match():
    graph = random_multi_predicate_graph(random.Random(3), 12, 30)
    assert graph.match((None, None, None)) == graph.triples


def test_match_via_indexes_equals_linear_scan():
    rng = random.Random(5)
    for _ in range(10):
        graph = random_multi_predicate_graph(rng, rng.randint(3, 20), rng.randint(3, 60))
        triples = list(graph.triples)
        resources = [tr.subject for tr in triples] + [tr.object for tr in triples]
        for _ in range(30):
            pattern = tuple(
                rng.choice(resources + [None])  # type: ignore[list-item]
                if position != 1
                else rng.choice([tr.predicate for tr in triples] + [None])
                for position in range(3)
            )
            scan = frozenset(
                tr
                for tr in triples
                if (pattern[0] is None or tr.subject == pattern[0])
                and (pattern[1] is None or tr.predicate == pattern[1])
                and (pattern[2] is None or tr.object == pattern[2])
            )
            assert graph.match(pattern) == scan


# -- subsumption -------------------------------------------------------------------


def test_subproperty_equality_branch():
    graph = Graph()
    assert graph.is_subproperty_or_equal(lanl("hasFriend"), lanl("hasFriend"))


def test_subproperty_single_hop():
    graph = load_ntriples(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "ex:knows rdfs:subPropertyOf ex:related .\n"
    )
    assert graph.is_subproperty_or_equal(Iri("http://example.org/knows"), Iri("http://example.org/related"))
    assert not graph.is_subproperty_or_equal(Iri("http://example.org/related"), Iri("http://example.org/knows"))


CHAIN = (
    "@prefix ex: <http://example.org/> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "ex:knows rdfs:subPropertyOf ex:related .\n"
    "ex:related rdfs:subPropertyOf ex:linked .\n"
)


def test_subproperty_transitive_closure_vs_single_hop_switch():
    knows, linked = Iri("http://example.org/knows"), Iri("http://example.org/linked")
    closure = load_ntriples(CHAIN)
    assert closure.is_subproperty_or_equal(knows, linked)
    single = load_ntriples(CHAIN, subsumption=SubsumptionMode.SINGLE_HOP)
    assert not single.is_subproperty_or_equal(knows, linked)


def test_subproperty_closure_matches_fixpoint_oracle():
    rng = random.Random(17)
    from geograms.store import RDFS_SUBPROPERTYOF

    props = [t(f"q{i}") for i in range(8)]
    for _ in range(20):
        triples = {
            Triple(rng.choice(props), RDFS_SUBPROPERTYOF, rng.choice(props))
            for _ in range(rng.randint(1, 20))
        }
        graph = Graph(triples)
        pairs = {(x.subject, x.object) for x in triples}
        changed = True
        while changed:
            changed = False
            for a, b in list(pairs):
                for c, d in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        for a in props:
            for b in props:
                expected = a == b or (a, b) in pairs
                assert graph.is_subproperty_or_equal(a, b) == expected


def test_has_type_direct(social_graph):
    assert social_graph.has_type_or_equal(lanl("marko"), lanl("Human"))
    assert not social_graph.has_type_or_equal(lanl("Researcher"), lanl("Human"))


def test_has_type_equality_branch(social_graph):
    assert social_graph.has_type_or_equal(lanl("Researcher"), lanl("Researcher"))


def test_has_type_subclass_chain():
    graph = load_ntriples(
        "@prefix lanl: <http://www.lanl.gov#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "lanl:fluffy rdf:type lanl:Dog .\n"
        "lanl:Dog rdfs:subClassOf lanl:Mammal .\n"
        "lanl:Mammal rdfs:subClassOf lanl:Animal .\n"
    )
    assert graph.has_type_or_equal(lanl("fluffy"), lanl("Mammal"))
    assert graph.has_type_or_equal(lanl("fluffy"), lanl("Animal"))
    single = load_ntriples(graph.to_ntriples(), subsumption=SubsumptionMode.SINGLE_HOP)
    assert not single.has_type_or_equal(lanl("fluffy"), lanl("Animal"))
    # a literal is never a triple's subject, so it has no type
    assert not single.has_type_or_equal(Literal("fluffy"), lanl("Dog"))


TYPED = (
    "@prefix lanl: <http://www.lanl.gov#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "lanl:fluffy rdf:type lanl:Dog .\n"
    "lanl:fluffy lanl:chases lanl:rex .\n"
    "lanl:rex rdf:type lanl:Dog .\n"
    "lanl:Dog rdfs:subClassOf lanl:Animal .\n"
    "lanl:chases rdfs:subPropertyOf lanl:meets .\n"
)


def test_closures_are_built_by_the_first_closure_check_and_never_under_single_hop(monkeypatch):
    from geograms import store
    from geograms.engine import RunMode, run
    from geograms.grammar import parse_grammar_dsl

    built = []
    real_closures = store._closures
    monkeypatch.setattr(store, "_closures", lambda graph: built.append(graph) or real_closures(graph))
    graph = load_ntriples(TYPED)
    assert built == []
    assert graph.has_type_or_equal(lanl("fluffy"), lanl("Animal"))
    assert graph.is_subproperty_or_equal(lanl("chases"), lanl("meets"))
    assert not graph.has_type_or_equal(lanl("Dog"), lanl("Animal"))
    assert len(built) == 1 and built[0] is graph

    # the engine checks types and predicates through the same two calls
    grammar = parse_grammar_dsl(
        "@prefix lanl: <http://www.lanl.gov#>\n"
        "context start entry for lanl:fluffy {\n  pathcount 0\n  traverse out lanl:meets -> stop\n}\n"
        "context stop exit for lanl:rex {\n  pathcount 0\n}\n"
    )
    single = load_ntriples(TYPED, subsumption=SubsumptionMode.SINGLE_HOP)
    assert not single.has_type_or_equal(lanl("fluffy"), lanl("Animal"))
    assert run(single, grammar, RunMode.ALL_PATHS, 5)
    assert len(built) == 1


def test_threads_racing_on_a_derived_key_all_get_the_first_value_stored():
    import sys
    import threading

    graph = Graph()
    n_threads = 8
    start = threading.Barrier(n_threads, timeout=60)
    # every thread misses the memo and builds before any of them stores
    inside = threading.Barrier(n_threads, timeout=60)
    builds = []
    found = [None] * n_threads

    def build(owner):
        assert owner is graph
        value = object()
        builds.append(value)
        inside.wait()
        return value

    def worker(i):
        start.wait()
        found[i] = graph.derived("slow", build)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == n_threads
    assert all(value is found[0] for value in found)
    assert found[0] in builds
    assert graph.derived("slow", build) is found[0] and len(builds) == n_threads


def test_sequence_orders_members_by_index_and_rejects_gaps_and_repeats():
    seq = Iri("http://e.org/seq")

    def member(name: str) -> Triple:
        return Triple(seq, Iri(RDF_NS + name), Iri("http://e.org/" + name))

    ten = [member(f"_{k}") for k in range(10, 0, -1)]
    graph = Graph(ten + [Triple(seq, RDF_TYPE, Iri(RDF_NS + "Seq"))])
    assert graph.sequence(seq) == [Iri(f"http://e.org/_{k}") for k in range(1, 11)]
    assert graph.sequence(Iri("http://e.org/none")) == []
    for broken, indexes in (
        ([member("_2")], [2]),
        ([member("_0"), member("_1")], [0, 1]),
        ([member("_1"), member("_01")], [1, 1]),
    ):
        with pytest.raises(ValidationError, match=re.escape(f"holds rdf:_k for k in {indexes}")):
            Graph(broken).sequence(seq)


@pytest.mark.parametrize("k", ["\u0661", "\uff11", "1\n"], ids=["arabic-indic-one", "fullwidth-one", "trailing-lf"])
def test_a_membership_index_is_read_from_ascii_digits_only(k):
    # rdf:_1 and a predicate whose k is some other spelling of 1: only the first is a member
    seq = Iri("http://e.org/seq")
    graph = Graph([
        Triple(seq, Iri(RDF_NS + "_1"), Iri("http://e.org/one")),
        Triple(seq, Iri(RDF_NS + "_" + k), Iri("http://e.org/other")),
    ])
    assert graph.sequence(seq) == [Iri("http://e.org/one")]


def test_rdfs_resource_matches_everything(social_graph):
    assert social_graph.has_type_or_equal(lanl("johan"), RDFS_RESOURCE)
    assert social_graph.has_type_or_equal(Literal("text"), RDFS_RESOURCE)
    assert social_graph.is_subproperty_or_equal(lanl("contacted"), RDFS_RESOURCE)


# -- serialization ------------------------------------------------------------------


def test_ntriples_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        graph = random_multi_predicate_graph(rng, rng.randint(2, 15), rng.randint(2, 40))
        again = load_ntriples(graph.to_ntriples())
        assert again.triples == graph.triples
        assert again == graph and hash(again) == hash(graph)
    assert graph != graph.triples


def test_round_trip_preserves_literals_and_blanks():
    graph = Graph(
        [
            Triple(Blank("n1"), Iri("http://a#p"), Literal('tricky "quote"\nline', "http://a#dt")),
            Triple(Iri("http://a#x"), RDF_TYPE, Iri("http://a#T")),
        ]
    )
    assert load_ntriples(graph.to_ntriples()).triples == graph.triples
    assert repr(Blank("n1")) == "_:n1"


def test_to_ntriples_writes_prefixes_then_triples_in_triple_key_order():
    e = "http://e.org/"
    graph = Graph(
        [
            Triple(Iri(e + "b"), Iri(e + "p"), Blank("z")),
            Triple(Blank("a1"), Iri(e + "p"), Literal("x")),
            Triple(Iri(e + "a"), Iri(e + "p"), Literal("5", XSD_NS + "int")),
            Triple(Iri(e + "a"), Iri(e + "p"), Literal("5")),
            Triple(Iri(e + "a"), Iri(e + "p"), Literal("10")),
            Triple(Iri(e + "a"), Iri(e + "p"), Iri(e + "b")),
            Triple(Iri(e + "a"), Iri(e + "q"), Blank("b")),
            Triple(Iri(e + "a"), RDF_TYPE, Iri(e + "T")),
            Triple(Iri(e + "a"), Iri(e + "p"), Literal('say "hi"\n\tbye\\')),
            Triple(Blank("a1"), Iri(e + "p"), Iri("http://a.org/x")),
            Triple(Blank("a"), Iri(e + "p"), Literal("x", "http://a.org/dt")),
        ],
        {"ex": e, "a": "http://a.org/"},
    )
    reference = [f"@prefix {name}: <{ns}> ." for name, ns in sorted(graph.prefix_map.items())]
    reference += [
        f"{_term_text(t.subject)} {_term_text(t.predicate)} {_term_text(t.object)} ."
        for t in sorted(graph.triples, key=triple_key)
    ]
    assert graph.to_ntriples() == "\n".join(reference) + "\n"
    assert graph.to_ntriples().splitlines()[:6] == [
        "@prefix a: <http://a.org/> .",
        "@prefix ex: <http://e.org/> .",
        "<http://e.org/a> <http://e.org/p> <http://e.org/b> .",
        '<http://e.org/a> <http://e.org/p> "10" .',
        '<http://e.org/a> <http://e.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#int> .',
        '<http://e.org/a> <http://e.org/p> "5" .',
    ]
    assert Graph().to_ntriples() == ""


# every character str.splitlines breaks a line at besides LF and CR; a
# literal may hold each one raw, and to_ntriples writes it raw
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_literal_holding_a_unicode_line_break_reads_from_a_file_and_round_trips(tmp_path, char):
    path = tmp_path / "graph.nt"
    path.write_text(f'@prefix ex: <http://e.org/> .\nex:a ex:p "x{char}y" .\nex:a ex:p ex:b .\n', encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        graph = load_ntriples(handle.read())
    e = "http://e.org/"
    assert graph.triples == {
        Triple(Iri(e + "a"), Iri(e + "p"), Literal(f"x{char}y")),
        Triple(Iri(e + "a"), Iri(e + "p"), Iri(e + "b")),
    }
    written = Graph([Triple(Blank("n"), Iri(e + "p"), Literal(f"{char}x{char}", e + "dt"))]).to_ntriples()
    assert char in written
    assert load_ntriples(written).triples == {Triple(Blank("n"), Iri(e + "p"), Literal(f"{char}x{char}", e + "dt"))}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lf_crlf_and_cr_each_end_a_line(end):
    with pytest.raises(ParseError) as info:
        load_ntriples(f"<s> <p> <o> .{end}<s> <p> <o2>")
    assert (info.value.line, info.value.column) == (2, 13)


@pytest.mark.parametrize(
    "term",
    [
        Iri("http://e.org/a<ex:b>"),
        Iri("http://e.org/a>"),
        Iri("http://e.org/a\nb"),
        Iri("http://e.org/a\rb"),
        Literal("5", "http://e.org/int>"),
        Literal("5", "http://e.org/in\nt"),
        Literal("5", ""),
        Blank(""),
        Blank("a.b"),
        Blank("x y"),
        Blank("a:b"),
    ],
    ids=["glued-iri", "closing-bracket", "lf", "cr", "datatype-bracket", "datatype-lf", "datatype-empty",
         "blank-empty", "blank-dot", "blank-space", "blank-colon"],
)
def test_to_ntriples_refuses_a_term_that_would_not_read_back(term):
    e = "http://e.org/"
    triple = Triple(Iri(e + "s"), Iri(e + "p"), term) if isinstance(term, Literal) else Triple(term, Iri(e + "p"), term)
    with pytest.raises(ValidationError, match=re.escape(repr(repr(term)))):
        Graph([triple, Triple(Iri(e + "s"), Iri(e + "p"), Iri(e + "o"))]).to_ntriples()


@pytest.mark.parametrize(
    "graph, term",
    [
        (load_ntriples("<ex:a> <http://e.org/p> <http://e.org/b> .\n@prefix ex: <http://e.org/> .\n"), Iri("ex:a")),
        (Graph([Triple(Iri("rdf:a"), Iri("http://e.org/p"), Iri("http://e.org/b"))], {"rdf": RDF_NS}), Iri("rdf:a")),
        (Graph([Triple(Iri("http://e.org/a"), Iri("http://e.org/p"), Literal("5", "ex:int"))], {"ex": "http://e.org/"}),
         Literal("5", "ex:int")),
    ],
    ids=["read-before-the-prefix", "built-in-code", "datatype"],
)
def test_to_ntriples_refuses_an_iri_a_declared_prefix_would_expand(graph, term):
    # the reader expands a declared prefix even inside brackets
    with pytest.raises(ValidationError, match=re.escape(f"cannot write term {repr(term)!r}: a declared prefix")):
        graph.to_ntriples()


@pytest.mark.parametrize(
    "name, namespace",
    [
        ("ex", "http://e>"),
        ("e x", "http://e.org/"),
        ("ex", "http://e.org/\n"),
        ("ex", "http://e.org/\r"),
        ("e\nx", "http://e.org/"),
    ],
    ids=["namespace-bracket", "name-space", "namespace-lf", "namespace-cr", "name-lf"],
)
def test_to_ntriples_refuses_a_prefix_line_that_would_not_read_back(name, namespace):
    graph = Graph([Triple(Iri("http://e.org/a"), Iri("http://e.org/p"), Iri("http://e.org/b"))], {name: namespace})
    with pytest.raises(ValidationError, match=re.escape(f"cannot write prefix {name!r} for {namespace!r}")):
        graph.to_ntriples()


def test_merge_unions_triples(social_graph):
    extra = Graph([Triple(lanl("norman"), lanl("hasFriend"), lanl("marko"))])
    merged = social_graph.merge(extra)
    assert len(merged) == len(social_graph) + 1
    assert social_graph.triples < merged.triples


def test_compact_uses_longest_prefix(social_graph):
    assert social_graph.compact(lanl("johan")) == "lanl:johan"
    assert social_graph.compact(Iri("http://elsewhere#z")) == "http://elsewhere#z"
    assert social_graph.compact(Blank("b")) == "_:b"
    assert social_graph.compact(Literal("x", "http://a#dt")) == '"x"'


def test_a_triple_built_in_code_refuses_a_literal_subject_and_a_non_iri_predicate_as_the_reader_does():
    with pytest.raises(ValidationError, match="^literal in subject position$"):
        Triple(Literal("x"), Iri("http://a#p"), Iri("http://a#y"))
    with pytest.raises(ValidationError, match="^predicate must be an IRI$"):
        Triple(Iri("http://a#x"), Blank("b"), Iri("http://a#y"))


def test_a_membership_index_has_at_most_4300_digits():
    seq = Iri("http://e.org/seq")
    assert membership_index(Iri(RDF_NS + "_" + "9" * 4300)) == int("9" * 4300)
    graph = Graph([Triple(seq, Iri(RDF_NS + "_" + "1" * 4301), Iri("http://e.org/one"))])
    with pytest.raises(ValidationError, match=re.escape("rdf:_k index has more than 4300 digits")):
        graph.sequence(seq)


def test_to_ntriples_names_the_least_refused_term_whatever_the_hash_seed():
    # two refused objects; the set of triples is walked in an order that varies with the seed
    script = (
        "from geograms.store import Graph, Iri, Triple\n"
        "e = 'http://e.org/'\n"
        "graph = Graph([Triple(Iri(e + 's'), Iri(e + 'p'), Iri(e + name)) for name in ('y>', 'x>')])\n"
        "try:\n"
        "    graph.to_ntriples()\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    messages = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(4)
    }
    message = "cannot write term '<http://e.org/x>>': an IRI that is empty or holds '>' or a line end does not read back\n"
    assert messages == {message}
