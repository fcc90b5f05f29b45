"""Independent reference implementations and random-case generators.

The enumerator here recomputes grammar path sets by exhaustive recursion
over raw triple lists: linear scans instead of indexes, a fixpoint loop
instead of precomputed closures, a call stack instead of a walker
frontier.  It shares only the model semantics with the engine, which is
the point: agreement between the two is evidence the engine's machinery
(indexes, cloning, generations, deduplication) adds nothing and loses
nothing.
"""

from __future__ import annotations

import random
from collections import deque

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
from geograms.engine import PathRecord, PathStep
from geograms.store import (
    RDF_TYPE,
    RDFS_RESOURCE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Graph,
    Iri,
    SubsumptionMode,
    Triple,
)

TEST_NS = "http://example.org/t#"


def t(name: str) -> Iri:
    return Iri(TEST_NS + name)


# -- naive subsumption (fixpoint, no reuse of the store's closures) -------------


def _fixpoint_pairs(triples, predicate) -> set:
    pairs = {
        (x.subject, x.object) for x in triples if x.predicate == predicate
    }
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


class NaiveSemantics:
    """Subsumption checks recomputed from scratch off the raw triple list."""

    def __init__(self, graph: Graph):
        self.triples = list(graph.triples)
        self.mode = graph.subsumption
        self.subprop = _fixpoint_pairs(self.triples, RDFS_SUBPROPERTYOF)
        self.subclass = _fixpoint_pairs(self.triples, RDFS_SUBCLASSOF)

    def is_subproperty_or_equal(self, predicate, wanted) -> bool:
        if predicate == wanted or wanted == RDFS_RESOURCE:
            return True
        if self.mode is SubsumptionMode.SINGLE_HOP:
            return any(
                x.predicate == RDFS_SUBPROPERTYOF
                and x.subject == predicate
                and x.object == wanted
                for x in self.triples
            )
        return (predicate, wanted) in self.subprop

    def has_type_or_equal(self, resource, wanted) -> bool:
        if resource == wanted or wanted == RDFS_RESOURCE:
            return True
        for x in self.triples:
            if x.predicate == RDF_TYPE and x.subject == resource:
                if x.object == wanted:
                    return True
                if self.mode is SubsumptionMode.CLOSURE and (x.object, wanted) in self.subclass:
                    return True
        return False


# -- exhaustive path enumeration --------------------------------------------------


def enumerate_paths(graph: Graph, grammar: Grammar, max_depth: int = 400) -> frozenset:
    """All accepted path records, by plain recursion over the triple list."""
    semantics = NaiveSemantics(graph)
    triples = semantics.triples
    entry = grammar.entry_context
    exit_ctx = grammar.exit_context
    vertices = {x.subject for x in triples} | {x.object for x in triples}
    if entry.for_resource not in vertices:
        return frozenset()

    results = set()

    def specificity(destination, wanted) -> int:
        if destination == wanted:
            return 0
        if wanted == RDFS_RESOURCE:
            return 2
        return 1

    def attr_targets(trail, attrs, wanted_type):
        targets = set()
        for attr in attrs:
            if isinstance(attr, wanted_type):
                position = len(trail) - attr.step
                if position < 0:
                    raise RuntimeError("attribute step reaches before the path start")
                targets.add(trail[position][0])
        return targets

    def visit(context_id: str, trail: list, recorded: list):
        if len(trail) > max_depth:
            raise RuntimeError("enumeration exceeded the depth bound")
        context = grammar.contexts[context_id]
        recorded = list(recorded)
        for rule in context.rules:
            if isinstance(rule, PathCount):
                position = len(trail) - 1 - rule.step
                if position < 0:
                    raise RuntimeError("pathcount step reaches before the path start")
                recorded.append(trail[position])
        if context.kind is ContextKind.EXIT:
            results.add(tuple(recorded))
            return
        rule = context.traverse_rule
        if rule is None:
            return
        here = trail[-1][0]
        chosen: dict = {}
        for spec_index, spec in enumerate(rule.edges):
            far = grammar.contexts[spec.far_context]
            required = attr_targets(trail, far.attributes, Is)
            excluded = attr_targets(trail, far.attributes, Not)
            blocked = {step[0] for step in trail} if far.has_not_ever else set()
            for triple in triples:
                if spec.direction is Direction.FORWARD:
                    if triple.subject != here:
                        continue
                    destination = triple.object
                else:
                    if triple.object != here:
                        continue
                    destination = triple.subject
                if not semantics.is_subproperty_or_equal(triple.predicate, spec.predicate):
                    continue
                if not semantics.has_type_or_equal(destination, far.for_resource):
                    continue
                if required and destination not in required:
                    continue
                if destination in excluded or destination in blocked:
                    continue
                rank = (specificity(destination, far.for_resource), spec_index)
                key = (triple, spec.direction)
                if key not in chosen or rank < chosen[key][0]:
                    chosen[key] = (rank, destination, spec.far_context)
        for (triple, direction), (_, destination, far_id) in chosen.items():
            visit(far_id, trail + [(destination, triple.predicate, direction)], recorded)

    visit(grammar.entry, [(entry.for_resource, None, None)], [])

    records = set()
    for raw in results:
        if not raw:
            continue
        if raw[0][0] != entry.for_resource or raw[-1][0] != exit_ctx.for_resource:
            continue
        records.add(PathRecord(tuple(PathStep(v, p, d) for v, p, d in raw)))
    return frozenset(records)


# -- single-relational metric oracles ----------------------------------------------


def undirected_adjacency(triples) -> dict:
    adjacency: dict = {}
    for x in triples:
        adjacency.setdefault(x.subject, set()).add(x.object)
        adjacency.setdefault(x.object, set()).add(x.subject)
    return adjacency


def bfs_distances(adjacency: dict, source) -> dict:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency.get(vertex, ()):
            if neighbor not in distances:
                distances[neighbor] = distances[vertex] + 1
                queue.append(neighbor)
    return distances


def shortest_vertex_paths(adjacency: dict, source, target) -> list:
    """Every minimum-length simple vertex sequence from source to target."""
    if source == target:
        return [[source]]
    distances = bfs_distances(adjacency, source)
    if target not in distances:
        return []
    limit = distances[target]
    paths = []

    def walk(vertex, path):
        if len(path) - 1 == limit:
            if vertex == target:
                paths.append(list(path))
            return
        for neighbor in adjacency.get(vertex, ()):
            # only steps that stay on some shortest route
            if distances.get(neighbor, -1) == len(path) and neighbor not in path:
                path.append(neighbor)
                walk(neighbor, path)
                path.pop()

    walk(source, [source])
    return paths


def oracle_betweenness(triples, vertex, universe) -> float:
    adjacency = undirected_adjacency(triples)
    total = 0.0
    for j in universe:
        for k in universe:
            if j == k or vertex in (j, k):
                continue
            paths = shortest_vertex_paths(adjacency, j, k)
            if not paths:
                continue
            through = sum(1 for p in paths if vertex in p[1:-1])
            total += through / len(paths)
    return total


# -- random case generation ----------------------------------------------------------


def random_single_predicate_graph(
    rng: random.Random, n_vertices: int, n_edges: int, connected: bool = True
) -> Graph:
    predicate = t("link")
    names = [t(f"v{i}") for i in range(n_vertices)]
    n_edges = min(n_edges, n_vertices * (n_vertices - 1) // 2)
    edges = set()
    if connected and n_vertices > 1:
        order = names[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            a, b = order[rng.randrange(i)], order[i]
            edges.add((a, b))
    while len(edges) < n_edges:
        a, b = rng.choice(names), rng.choice(names)
        if a != b:
            edges.add((a, b))
    return Graph(Triple(a, predicate, b) for a, b in edges)


def random_multi_predicate_graph(
    rng: random.Random,
    n_vertices: int,
    n_edges: int,
    n_predicates: int = 3,
    with_schema: bool = True,
) -> Graph:
    names = [t(f"v{i}") for i in range(n_vertices)]
    predicates = [t(f"p{i}") for i in range(n_predicates)]
    classes = [t("ClassA"), t("ClassB")]
    n_edges = min(n_edges, n_vertices * (n_vertices - 1))
    triples = set()
    if with_schema:
        # property hierarchy p1 -> p0 and a two-level class hierarchy
        triples.add(Triple(predicates[-1], RDFS_SUBPROPERTYOF, predicates[0]))
        triples.add(Triple(classes[0], RDFS_SUBCLASSOF, classes[1]))
        for name in names:
            if rng.random() < 0.6:
                triples.add(Triple(name, RDF_TYPE, rng.choice(classes)))
    while sum(1 for x in triples if x.predicate not in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF)) < n_edges:
        a, b = rng.choice(names), rng.choice(names)
        if a != b:
            triples.add(Triple(a, rng.choice(predicates), b))
    return Graph(triples)


def build_pair_store(graph, grammar, universe, grammar_id, max_steps=200, first_id=0):
    """Encode the full path sets of every ordered endpoint pair into one store.

    Walker ids count up from ``first_id``; stores to be merged need disjoint ids.
    """
    from geograms.encoding import encode_paths
    from geograms.engine import PathRecord, RunMode, run
    from geograms.grammar import rebind_endpoints
    from geograms.store import resource_key

    ordered = sorted(set(universe), key=resource_key)
    records = set()
    for source in ordered:
        for target in ordered:
            if source != target:
                records.update(
                    run(graph, rebind_endpoints(grammar, source, target),
                        RunMode.ALL_PATHS, max_steps)
                )
    unique = sorted(records, key=PathRecord.key)
    return encode_paths(unique, grammar_id, list(range(first_id, first_id + len(unique))))


def random_grammar(rng: random.Random, graph: Graph, max_intermediates: int = 3) -> Grammar:
    """A random terminating grammar whose endpoints exist in ``graph``.

    Every context records its step (pathcount 0); cycles are only generated
    through notever-guarded contexts, so runs always terminate.  Regenerates
    until the validator reports neither errors nor hazard warnings.
    """
    vertices = sorted(graph.vertices(), key=lambda r: r.value)
    predicates = sorted({x.predicate for x in graph.triples if x.predicate.value.startswith(TEST_NS)}, key=lambda r: r.value)
    classes = sorted(
        {x.object for x in graph.triples if x.predicate == RDF_TYPE},
        key=lambda r: r.value,
    )
    while True:
        source, sink = rng.sample(vertices, 2)
        n_mid = rng.randint(0, max_intermediates)
        mid_ids = [f"C{i}" for i in range(1, n_mid + 1)]
        order = ["entry", *mid_ids, "exit"]

        def random_binding():
            roll = rng.random()
            if roll < 0.7 or not classes:
                return RDFS_RESOURCE
            if roll < 0.9:
                return rng.choice(classes)
            return rng.choice(vertices)

        def random_predicate():
            if not predicates or rng.random() < 0.45:
                return RDFS_RESOURCE
            return rng.choice(predicates)

        # chain edges plus occasional skips and back edges
        targets: dict = {cid: [] for cid in order[:-1]}
        for idx, cid in enumerate(order[:-1]):
            targets[cid].append(order[idx + 1])
            if rng.random() < 0.4:
                targets[cid].append(rng.choice(order[idx + 1 :]))
            if idx >= 1 and rng.random() < 0.3:
                targets[cid].append(order[rng.randint(1, idx)])

        # earliest position each context can be resolved at; attribute steps
        # must never reach past the path start from there
        earliest = {"entry": 0}
        queue = deque(["entry"])
        while queue:
            cid = queue.popleft()
            for far in targets.get(cid, ()):
                if far not in earliest:
                    earliest[far] = earliest[cid] + 1
                    queue.append(far)

        contexts = []
        for idx, cid in enumerate(order):
            kind = (
                ContextKind.ENTRY
                if cid == "entry"
                else ContextKind.EXIT
                if cid == "exit"
                else ContextKind.INTERMEDIATE
            )
            binding = source if kind is ContextKind.ENTRY else sink if kind is ContextKind.EXIT else random_binding()
            attributes = set()
            if kind is ContextKind.INTERMEDIATE:
                attributes.add(NotEver())
                safe_step = min(2, earliest.get(cid, 0))
                if safe_step >= 1 and rng.random() < 0.3:
                    # a not-attribute is compatible with notever; an is-attribute
                    # would contradict it, so only place not here
                    attributes.add(Not(rng.randint(1, safe_step)))
            rules: list = [PathCount(0)]
            if kind is not ContextKind.EXIT:
                edges = tuple(
                    EdgeSpec(
                        rng.choice((Direction.FORWARD, Direction.BACKWARD)),
                        random_predicate(),
                        far,
                    )
                    for far in targets[cid]
                )
                rules.append(Traverse(edges))
            contexts.append(
                GrammarContext(cid, kind, binding, tuple(rules), frozenset(attributes))
            )
        grammar = Grammar({c.id: c for c in contexts}, "entry", "exit")
        if not validate_grammar(grammar):
            return grammar


# -- differential check of path providers ----------------------------------------------


def provider_differences(make_provider, cases, max_steps: int = 200) -> list:
    """Every answer on which a path provider differs from ``WalkerPaths``.

    ``cases`` yields ``(graph, grammar, universe)``, and
    ``make_provider(graph, grammar, universe)`` builds the provider under
    test for one case.  For every ordered pair (j, k) of distinct universe
    vertices, both providers answer ``witnesses(j, k)``, ``distance(j, k)``
    and ``through(j, k, v)`` for every ``v`` of the universe, endpoints
    included; an answer is the value returned or the class of the error
    raised.  Returns one (case number, call, arguments, walker answer,
    provider answer) tuple per difference.
    """
    from geograms.metrics import WalkerPaths

    differences = []
    for number, (graph, grammar, universe) in enumerate(cases):
        provider, reference = make_provider(graph, grammar, universe), WalkerPaths(graph, grammar, max_steps)
        for j in universe:
            for k in universe:
                if j == k:
                    continue
                calls = [("witnesses", (j, k)), ("distance", (j, k))]
                calls += [("through", (j, k, v)) for v in universe]
                for name, args in calls:
                    expected = _answer(getattr(reference, name), args)
                    found = _answer(getattr(provider, name), args)
                    if found != expected:
                        differences.append((number, name, args, expected, found))
    return differences


def _answer(method, args):
    """What ``method(*args)`` returns, or the class of the error it raises."""
    try:
        return method(*args)
    except Exception as error:
        return type(error)
