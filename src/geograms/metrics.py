"""Geodesic metrics folded over a path provider, plus the classic BFS oracle.

Every metric here reduces to the grammar-constrained shortest path, and
``fold`` builds all six from a provider of shortest paths: ``WalkerPaths``
rebinds the grammar's endpoints to each pair and runs the walker engine
in shortest-only mode; ``encoding.StorePaths`` answers from the path
store.  Unreachable targets are skipped rather than poisoning an
aggregate; the number skipped is reported on the result.

``unlabeled_oracle_geodesics`` is an independent reference: plain BFS on
``project_to_unlabeled``, the graph's undirected, unlabeled projection
without schema (rdf/rdfs) triples.  It never touches the walker engine,
which is what makes it usable as an oracle against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .engine import DEFAULT_MAX_STEPS, PathRecord, RunMode, run
from .grammar import Grammar, rebind_endpoints
from .store import (
    RDF_NS,
    RDFS_NS,
    RESULT_NS,
    Graph,
    Iri,
    Resource,
    Triple,
    resource_key,
)

# the namespaces of schema predicates, whose triples the projection leaves out
DEFAULT_SCHEMA_NAMESPACES = (RDF_NS, RDFS_NS)

PROJECTION_PREDICATE = Iri(RESULT_NS + "adjacentTo")


class Degree(NamedTuple):
    in_degree: int
    out_degree: int


def degree(graph: Graph, vertex: Resource) -> Degree:
    """In- and out-degree over all triples, regardless of predicate."""
    return Degree(len(graph.incoming(vertex)), len(graph.outgoing(vertex)))


class MetricKind(Enum):
    SHORTEST_PATH = "shortest-path"
    ECCENTRICITY = "eccentricity"
    RADIUS = "radius"
    DIAMETER = "diameter"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"


# metrics measured at one vertex: they need a source
VERTEX_KINDS = frozenset({MetricKind.ECCENTRICITY, MetricKind.CLOSENESS, MetricKind.BETWEENNESS})


@dataclass(frozen=True)
class MetricResult:
    kind: MetricKind
    value: Optional[float]
    defined: bool
    witness_paths: tuple = ()
    skipped_targets: int = 0


@dataclass(frozen=True)
class WalkerPaths:
    """Path provider backed by one shortest-only walker run per pair."""

    graph: Graph
    grammar: Grammar
    max_steps: int = DEFAULT_MAX_STEPS

    def witnesses(self, source=None, target=None) -> tuple:
        """Tied-shortest records in key order; without a pair, the grammar's own."""
        grammar = self.grammar if source is None else rebind_endpoints(self.grammar, source, target)
        records = run(self.graph, grammar, RunMode.SHORTEST_ONLY, self.max_steps)
        if not records:
            return ()
        best = min(r.edge_length for r in records)
        return tuple(sorted((r for r in records if r.edge_length == best), key=PathRecord.key))

    def distance(self, source: Resource, target: Resource) -> Optional[int]:
        found = self.witnesses(source, target)
        return found[0].edge_length if found else None

    def through(self, source: Resource, target: Resource, vertex: Resource) -> Optional[tuple]:
        return through_share(self.witnesses(source, target), vertex)


def through_share(witnesses: tuple, vertex: Resource) -> Optional[tuple]:
    """(tied-shortest paths with ``vertex`` strictly inside, all of them); None if none.

    The one rule by which every path provider's ``through`` counts.
    """
    if not witnesses:
        return None
    return sum(1 for r in witnesses if vertex in r.vertices()[1:-1]), len(witnesses)


def ordered_pairs(universe: list) -> list:
    """Every (source, target) pair of distinct universe vertices, sources in universe order."""
    return [(source, target) for source in universe for target in universe if source != target]


def _distances(paths, source: Resource, universe: list) -> tuple[list, int]:
    """Distances from ``source`` to every reachable other vertex, and how many were not."""
    distances = [paths.distance(source, t) for t in universe if t != source]
    reached = [d for d in distances if d is not None]
    return reached, len(distances) - len(reached)


def fold(
    kind: MetricKind,
    paths,
    vertices: Iterable = (),
    source: Optional[Resource] = None,
    target: Optional[Resource] = None,
) -> MetricResult:
    """One metric from a provider answering ``witnesses(source, target)``,
    ``distance(i, j)`` and ``through(j, k, v)``; pairs go in resource-key order.

    ``source`` is the measured vertex, and shortest path also takes ``target``.
    """
    if kind in VERTEX_KINDS and source is None:
        raise ValueError(f"{kind.value} needs a source vertex")
    if kind is MetricKind.SHORTEST_PATH:
        found = paths.witnesses(source, target)
        if not found:
            return MetricResult(kind, None, False)
        return MetricResult(kind, found[0].edge_length, True, found)
    universe = sorted(set(vertices), key=resource_key)
    if kind is MetricKind.BETWEENNESS:
        total = 0.0
        for j, k in ordered_pairs(universe):
            if source not in (j, k):
                share = paths.through(j, k, source)
                if share is not None:
                    total += share[0] / share[1]
        return MetricResult(kind, total, True)
    if kind in (MetricKind.RADIUS, MetricKind.DIAMETER):
        if len(universe) < 2:
            raise ValueError(f"{kind.value} needs at least two vertices")
        eccentricities = [max(_distances(paths, v, universe)[0], default=None) for v in universe]
        values = [e for e in eccentricities if e is not None]
        skipped = len(eccentricities) - len(values)
    else:
        values, skipped = _distances(paths, source, universe)
    if not values:
        return MetricResult(kind, None, False, (), skipped)
    if kind is MetricKind.CLOSENESS:
        return MetricResult(kind, 1.0 / sum(values), True, (), skipped)
    pick = min if kind is MetricKind.RADIUS else max
    return MetricResult(kind, pick(values), True, (), skipped)


def shortest_path(
    graph: Graph, grammar: Grammar, max_steps: int = DEFAULT_MAX_STEPS
) -> MetricResult:
    """Shortest grammar-constrained path between the grammar's endpoints.

    The witnesses are every tied-shortest record; the value is their edge
    length.  Undefined when the sink is unreachable under the grammar.
    """
    return fold(MetricKind.SHORTEST_PATH, WalkerPaths(graph, grammar, max_steps))


def eccentricity(
    graph: Graph,
    grammar: Grammar,
    source: Resource,
    targets: Iterable,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MetricResult:
    """Largest shortest path from ``source`` to any reachable target."""
    return fold(MetricKind.ECCENTRICITY, WalkerPaths(graph, grammar, max_steps), targets, source)


def radius(graph, grammar, vertices, max_steps=DEFAULT_MAX_STEPS) -> MetricResult:
    """Minimum eccentricity over the vertex universe."""
    return fold(MetricKind.RADIUS, WalkerPaths(graph, grammar, max_steps), vertices)


def diameter(graph, grammar, vertices, max_steps=DEFAULT_MAX_STEPS) -> MetricResult:
    """Maximum eccentricity over the vertex universe."""
    return fold(MetricKind.DIAMETER, WalkerPaths(graph, grammar, max_steps), vertices)


def closeness(
    graph: Graph,
    grammar: Grammar,
    source: Resource,
    targets: Iterable,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MetricResult:
    """Reciprocal of the summed shortest paths to every reachable target."""
    return fold(MetricKind.CLOSENESS, WalkerPaths(graph, grammar, max_steps), targets, source)


def betweenness(
    graph: Graph,
    grammar: Grammar,
    vertex: Resource,
    vertices: Iterable,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MetricResult:
    """Fraction of tied-shortest paths passing through ``vertex``, summed
    over every ordered endpoint pair not involving it.

    A path counts when the vertex appears strictly between its endpoints.
    Pairs with no path contribute nothing.
    """
    return fold(MetricKind.BETWEENNESS, WalkerPaths(graph, grammar, max_steps), vertices, vertex)


# -- universe helpers -----------------------------------------------------------


def default_universe(graph: Graph, grammar: Grammar) -> frozenset:
    """Vertices whose type matches the entry context's bound resource."""
    wanted = grammar.entry_context.for_resource
    return frozenset(
        v for v in graph.vertices() if graph.has_type_or_equal(v, wanted)
    )


# -- undirected unlabeled projection and its BFS oracle ---------------------------


def projection_edges(graph: Graph) -> set:
    """Unordered vertex pairs from every non-schema triple."""
    edges = set()
    for t in graph.triples:
        if t.predicate.value.startswith(DEFAULT_SCHEMA_NAMESPACES):
            continue
        a, b = sorted((t.subject, t.object), key=resource_key)
        edges.add((a, b))
    return edges


def project_to_unlabeled(graph: Graph) -> Graph:
    """The undirected, unlabeled view as a single-predicate graph, derived once per graph.

    Parallel and inverse edges collapse, so path multiplicities on the
    projection match what classic single-relational metrics would count.
    """

    def build(graph: Graph) -> Graph:
        triples = [Triple(a, PROJECTION_PREDICATE, b) for a, b in projection_edges(graph)]
        return Graph(triples, graph.prefix_map, graph.subsumption)

    return graph.derived(project_to_unlabeled, build)


def unlabeled_oracle_geodesics(graph: Graph, source: Resource, target: Resource) -> Optional[int]:
    """Classic BFS distance on the undirected unlabeled projection.

    Reference implementation independent of the walker engine: the
    projection's indexes and a queue, nothing else.  None when unreachable.
    """
    if source == target:
        return 0
    projection = project_to_unlabeled(graph)
    if source not in projection.vertices() or target not in projection.vertices():
        return None
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        vertex, dist = queue.popleft()
        for t in projection.outgoing(vertex) | projection.incoming(vertex):
            neighbor = t.object if t.subject == vertex else t.subject
            if neighbor == target:
                return dist + 1
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, dist + 1))
    return None
