"""Seeded input generators for the benchmark.

Everything here produces text: graphs as N-Triples lines and grammars as
DSL text or as their triple encoding, so set-up goes through the public
parsers.  Nothing in this module imports the program; the same seed
always yields the same text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

NS = "http://example.org/bench#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
RWR = "http://www.lanl.gov/rwr#"
GNS = "http://example.org/bench-grammar#"

PREFIXES = {"b": NS, "rdf": RDF, "rdfs": RDFS, "xsd": XSD}


def iri(name: str) -> str:
    """Full IRI of a benchmark resource, as the parsers expand ``b:name``."""
    return NS + name


def _prefix_lines(names, terminator: str) -> list[str]:
    return [f"@prefix {name}: <{PREFIXES[name]}>{terminator}" for name in names]


@dataclass
class GraphInput:
    """One generated graph: its text plus what the oracles need to know."""

    name: str
    text: str
    vertices: list  # local names of the vertices a workload queries
    edges: list = field(default_factory=list)  # undirected (a, b) pairs, plain graphs only


def _graph_input(rng: random.Random, name: str, names: list, edges: set) -> GraphInput:
    """Orient each undirected edge at random and write the graph as N-Triples."""
    oriented = []
    for pair in sorted(edges, key=sorted):
        a, b = sorted(pair)
        oriented.append((a, b) if rng.random() < 0.5 else (b, a))
    lines = _prefix_lines(["b"], " .")
    lines += [f"b:{a} b:link b:{b} ." for a, b in oriented]
    return GraphInput(name, "\n".join(lines) + "\n", names, oriented)


def sparse_graph(rng: random.Random, name: str, n: int, m: int) -> GraphInput:
    """Connected single-predicate graph with ``m`` edges over ``n`` vertices.

    At most one triple joins any two vertices, in either direction, so every
    grammar path corresponds to exactly one vertex sequence of the
    undirected projection and the BFS oracles apply unchanged.
    """
    names = [f"{name}_v{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(frozenset((order[rng.randrange(i)], order[i])))
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        a, b = rng.sample(names, 2)
        edges.add(frozenset((a, b)))
    return _graph_input(rng, name, names, edges)


def balanced_graph(rng: random.Random, name: str, n: int, m: int) -> GraphInput:
    """Connected single-predicate graph whose vertex degrees differ by at most one.

    A random Hamiltonian cycle, then extra edges between random vertices of
    least degree.  Every source then starts about as many simple paths, so
    an ``ALL_PATHS`` run costs about the same from any vertex.
    """
    names = [f"{name}_v{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = {frozenset((order[i], order[(i + 1) % n])) for i in range(n)}
    degree = dict.fromkeys(names, 2)
    m = min(m, n * (n - 1) // 2)
    while len(edges) < m:
        least = min(degree.values())
        a = rng.choice([v for v in names if degree[v] == least])
        free = [v for v in names if v != a and frozenset((a, v)) not in edges]
        fewest = min(degree[v] for v in free)
        b = rng.choice([v for v in free if degree[v] == fewest])
        edges.add(frozenset((a, b)))
        degree[a] += 1
        degree[b] += 1
    return _graph_input(rng, name, names, edges)


def _adjacency(edges) -> dict:
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    return adjacency


def simple_path_total(edges) -> int:
    """Simple paths of one edge or more over the undirected graph, both directions counted.

    This is the number of walkers an unconstrained ``ALL_PATHS`` sweep over
    every source spawns, so it fixes the cost of such a sweep up to a
    constant.
    """
    adjacency = _adjacency(edges)
    total = 0
    for source in adjacency:
        stack = [(source, (source,))]
        while stack:
            here, path = stack.pop()
            for nxt in adjacency[here]:
                if nxt not in path:
                    total += 1
                    stack.append((nxt, path + (nxt,)))
    return total


def shortest_sweep_cost(edges) -> int:
    """Edge candidates of unconstrained ``SHORTEST_ONLY`` runs over every ordered pair, halved.

    A run from ``a`` to ``b`` expands every simple path from ``a`` of at
    most ``d(a, b)`` edges and looks at each end vertex's edges.  Summed
    over all pairs, a simple path of ``k`` edges ending at ``v`` therefore
    costs ``deg(v)`` once per target at distance ``k`` or more.  This
    tracks ``RunTrace.raw_candidates`` of the sweep to within 2%, at about
    half its value.
    """
    adjacency = _adjacency(edges)
    total = 0
    for source in adjacency:
        dist = {source: 0}
        queue = [source]
        for here in queue:
            for nxt in adjacency[here]:
                if nxt not in dist:
                    dist[nxt] = dist[here] + 1
                    queue.append(nxt)
        ecc = max(dist.values())
        at_least = [0] * (ecc + 2)  # at_least[k]: targets at distance k or more
        for d in dist.values():
            at_least[d] += 1
        at_least[0] -= 1  # the source is not a target
        for k in range(ecc - 1, -1, -1):
            at_least[k] += at_least[k + 1]
        stack = [(source, (source,))]
        while stack:
            here, path = stack.pop()
            k = len(path) - 1
            total += at_least[k] * len(adjacency[here])
            if k < ecc:
                stack.extend((nxt, path + (nxt,)) for nxt in adjacency[here] if nxt not in path)
    return total


def pinned(make, rng: random.Random, name: str, n: int, m: int, cost, target: int, tolerance: float) -> GraphInput:
    """The first ``make(rng, name, n, m)`` whose ``cost(edges)`` lies within ``tolerance`` of ``target``.

    Random graphs of one size differ in path count by 10-25%
    (coefficient of variation), which would make every figure depend on
    the seed more than on the code; drawing until the cost is near the
    median of that size keeps the structure random but the work per graph
    the same.  No draw is ever rejected for how the program answers on it.
    """
    while True:
        g = make(rng, name, n, m)
        if abs(cost(g.edges) - target) <= tolerance * target:
            return g


def social_network(rng: random.Random, name: str, people: int, documents: int) -> GraphInput:
    """Typed social network with a class and property schema and literals.

    ``hasFriend`` and ``hasColleague`` (and ``hasMentor`` below it) are
    sub-properties of ``knows``; a ``Student`` is a ``Human`` and a
    ``Human`` a ``Person`` through ``subClassOf``.  Every person has a name
    and an age literal and a position.  Documents with literal titles
    inflate the candidate lists of the people who wrote them without adding
    grammar paths.
    """
    persons = [f"{name}_p{i}" for i in range(people)]
    lines = _prefix_lines(["b", "rdf", "rdfs", "xsd"], " .")
    lines += [
        "b:Human rdfs:subClassOf b:Person .",
        "b:Student rdfs:subClassOf b:Human .",
        "b:Researcher rdfs:subClassOf b:Position .",
        "b:Engineer rdfs:subClassOf b:Position .",
        "b:hasFriend rdfs:subPropertyOf b:knows .",
        "b:hasColleague rdfs:subPropertyOf b:knows .",
        "b:hasMentor rdfs:subPropertyOf b:hasColleague .",
    ]
    for i, p in enumerate(persons):
        lines.append(f"b:{p} rdf:type b:{'Student' if rng.random() < 0.3 else 'Human'} .")
        lines.append(f'b:{p} b:name "Person {i}" .')
        lines.append(f'b:{p} b:age "{rng.randint(20, 70)}"^^xsd:int .')
        lines.append(f"b:{p} b:hasPosition b:{'Researcher' if rng.random() < 0.6 else 'Engineer'} .")
    # a friendship ring keeps every person reachable, then random extras
    ring = persons[:]
    rng.shuffle(ring)
    ties = {(ring[i], ring[(i + 1) % people], "hasFriend") for i in range(people)}
    while len(ties) < 3 * people:
        a, b = rng.sample(persons, 2)
        ties.add((a, b, rng.choice(("hasFriend", "hasFriend", "hasColleague", "hasMentor", "contacted"))))
    lines += [f"b:{a} b:{p} b:{b} ." for a, b, p in sorted(ties)]
    for d in range(documents):
        doc = f"{name}_doc{d}"
        lines.append(f"b:{doc} rdf:type b:Document .")
        lines.append(f'b:{doc} b:title "Report {d} of {name}" .')
        for author in rng.sample(persons, rng.randint(1, 3)):
            lines.append(f"b:{author} b:wrote b:{doc} .")
    return GraphInput(name, "\n".join(lines) + "\n", persons)


# -- grammars -----------------------------------------------------------------
#
# A grammar spec is a list of contexts:
#   (id, kind, for_token, attributes, rules)
# kind is "entry", "exit" or None; attributes are DSL words ("notever",
# "is 2"); rules are ("pathcount", n) or ("traverse", [(dir, pred, far), ...]).
# Entry and exit are bound to placeholder vertices; every request rebinds
# them with ``rebind_endpoints``.


def unconstrained_spec(source: str, sink: str) -> list:
    edges = [(d, "rdfs:Resource", far) for far in ("hop", "sink") for d in ("out", "in")]
    return [
        ("source", "entry", f"b:{source}", [], [("pathcount", 0), ("traverse", edges)]),
        ("hop", None, "rdfs:Resource", ["notever"], [("pathcount", 0), ("traverse", edges)]),
        ("sink", "exit", f"b:{sink}", [], [("pathcount", 0)]),
    ]


def detour_spec(source: str, sink: str) -> list:
    """Friends-of-friends where every intermediate friend is a researcher.

    The position check is walked but not recorded (``pathcount 2``), and
    ``is 2`` returns the walker to the friend it left.
    """
    onward = [("out", "b:hasFriend", "friend"), ("out", "b:hasFriend", "target")]
    return [
        ("origin", "entry", f"b:{source}", [], [("pathcount", 0), ("traverse", onward)]),
        ("friend", None, "b:Human", ["notever"],
         [("traverse", [("out", "b:hasPosition", "role")])]),
        ("role", None, "b:Researcher", [], [("traverse", [("in", "b:hasPosition", "back")])]),
        ("back", None, "b:Human", ["is 2"], [("pathcount", 2), ("traverse", onward)]),
        ("target", "exit", f"b:{sink}", [], [("pathcount", 0)]),
    ]


def knows_spec(source: str, sink: str) -> list:
    """Directed ``knows`` chains; every hop relies on sub-property closure."""
    onward = [("out", "b:knows", "acquaintance"), ("out", "b:knows", "goal")]
    return [
        ("start", "entry", f"b:{source}", [], [("pathcount", 0), ("traverse", onward)]),
        ("acquaintance", None, "b:Person", ["notever"], [("pathcount", 0), ("traverse", onward)]),
        ("goal", "exit", f"b:{sink}", [], [("pathcount", 0)]),
    ]


def grammar_dsl(spec: list) -> str:
    lines = _prefix_lines(["b", "rdfs"], "")
    for ctx_id, kind, for_token, attrs, rules in spec:
        head = f"context {ctx_id} {kind} for {for_token} {{" if kind else f"context {ctx_id} for {for_token} {{"
        lines.append(head)
        lines += [f"  {a}" for a in attrs]
        for rule in rules:
            if rule[0] == "pathcount":
                lines.append(f"  pathcount {rule[1]}")
            else:
                lines.append("  traverse " + ", ".join(f"{d} {p} -> {f}" for d, p, f in rule[1]))
        lines.append("}")
    return "\n".join(lines) + "\n"


def grammar_triples(spec: list) -> str:
    """The same grammar in the rwr triple encoding (N-Triples)."""
    lines = _prefix_lines(["b", "rdf", "rdfs", "xsd"], " .")
    lines += [f"@prefix rwr: <{RWR}> .", f"@prefix g: <{GNS}> ."]
    types = {"entry": "rwr:EntryContext", "exit": "rwr:ExitContext", None: "rwr:Context"}
    for ctx_id, kind, for_token, attrs, rules in spec:
        node = f"g:{ctx_id}"
        lines.append(f"{node} rdf:type {types[kind]} .")
        lines.append(f"{node} rwr:forResource {for_token} .")
        if attrs:
            lines.append(f"{node} rwr:hasAttributes g:{ctx_id}_attrs .")
            for k, attr in enumerate(attrs):
                word, _, step = attr.partition(" ")
                anode = f"g:{ctx_id}_attr{k}"
                lines.append(f"g:{ctx_id}_attrs rwr:hasAttribute {anode} .")
                lines.append(f"{anode} rdf:type rwr:{ {'notever': 'NotEver', 'is': 'Is', 'not': 'Not'}[word]} .")
                if step:
                    lines.append(f'{anode} rwr:step "{step}"^^xsd:int .')
        lines.append(f"{node} rwr:hasRules g:{ctx_id}_rules .")
        lines.append(f"g:{ctx_id}_rules rdf:type rdf:Seq .")
        for position, rule in enumerate(rules, start=1):
            rnode = f"g:{ctx_id}_rule{position}"
            lines.append(f"g:{ctx_id}_rules rdf:_{position} {rnode} .")
            if rule[0] == "pathcount":
                lines.append(f"{rnode} rdf:type rwr:PathCount .")
                lines.append(f'{rnode} rwr:step "{rule[1]}"^^xsd:int .')
                continue
            lines.append(f"{rnode} rdf:type rwr:Traverse .")
            for e, (d, pred, far) in enumerate(rule[1]):
                enode = f"g:{ctx_id}_rule{position}_edge{e}"
                lines.append(f"{rnode} rwr:hasEdge {enode} .")
                lines.append(f"{enode} rdf:type rwr:{'OutEdge' if d == 'out' else 'InEdge'} .")
                lines.append(f"{enode} rwr:hasPredicate {pred} .")
                lines.append(f"{enode} rwr:{'hasObject' if d == 'out' else 'hasSubject'} g:{far} .")
    return "\n".join(lines) + "\n"
