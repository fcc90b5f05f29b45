"""Persisting walker results as triples and recomputing metrics by query.

Each recorded path becomes a walker node, a path node, and one segment
node per step.  Segments are attached to their path through the numbered
container membership properties (``rdf:_1``, ``rdf:_2``, ...), so the
number of segments, and therefore the path length, is recoverable with a
single scan.  Once a store holds the paths for every endpoint pair of
interest, every geodesic metric can be answered from queries alone,
without ever running a walker again.

The encoding's IRIs are module constants in the ``RWR_*`` style of the
grammar encoding, which owns the one term both share, ``rwr:hasPredicate``;
``store.membership`` writes each ``rdf:_k``.  ``_decode_record`` is the
only reader of a stored path: it takes the segments in order from
``Graph.sequence``, which rejects memberships that do not run ``rdf:_1``
... ``rdf:_n`` once each, and checks every segment.

A store may hold the results of many endpoint pairs under one or more
grammar identifiers.  The first read for a grammar decodes each of its
paths once into an endpoint index, (first vertex, last vertex) -> {path
node: decoded record}, which the store keeps (``Graph.derived``); every
later read for that grammar is a lookup in it and makes no ``Graph.match``
call.  Two named queries read the index: ``query_X`` selects a pair's
stored paths, and ``query_Y`` the shortest of them that hold a vertex
strictly inside, the rule by which ``metrics.through_share`` counts.
``StorePaths`` answers through ``query_X``, taking its witness records from
the index, and counts ``through`` by ``through_share``, as ``WalkerPaths``
does; ``decode_paths`` returns every stored record without the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import PathRecord, PathStep
from .errors import IncompleteStoreError, ValidationError
from .grammar import RWR_HAS_PREDICATE, RWR_NS, Direction
from .metrics import MetricKind, MetricResult, fold, through_share
from .store import (
    RDF_NS,
    RDF_TYPE,
    RESULT_NS,
    Graph,
    Iri,
    Literal,
    Resource,
    Triple,
    membership,
    resource_key,
)


# Vocabulary of the path encoding, beside the grammar encoding's own
# ``RWR_*`` terms; a segment's predicate is ``grammar.RWR_HAS_PREDICATE``.
RWR_GEODESIC_WALKER = Iri(RWR_NS + "GeodesicWalker")
RWR_USES_GRAMMAR = Iri(RWR_NS + "usesGrammar")
RWR_HAS_QPATH = Iri(RWR_NS + "hasQPath")
RWR_PATH = Iri(RWR_NS + "Path")
RWR_SEGMENT = Iri(RWR_NS + "Segment")
RWR_HAS_VERTEX = Iri(RWR_NS + "hasVertex")
RWR_HAS_DIRECTION = Iri(RWR_NS + "hasDirection")

# a direction is stored as a literal whose lexical form is the direction's value
_DIRECTION_LITERALS = {direction: Literal(direction.value) for direction in Direction}
_LITERAL_DIRECTIONS = {direction.value: direction for direction in Direction}
_NO_PATHS: dict = {}


def encode_paths(records: Iterable, grammar_id: Resource, walker_ids: Sequence[int]) -> Graph:
    """Encode path records as triples, one walker/path node pair per record.

    Records are paired with ``walker_ids`` in sorted record order, so node
    names are deterministic.  Segment 1 carries only its vertex; every
    later segment also carries the predicate and direction used to reach it.
    """
    ordered = sorted(records, key=PathRecord.key)
    if len(ordered) != len(walker_ids):
        raise ValueError(
            f"need exactly one walker id per record ({len(ordered)} records, "
            f"{len(walker_ids)} ids)"
        )
    # rdf:_1 ... rdf:_n for the longest record, built once per call
    members = [membership(k) for k in range(1, max((len(r.steps) for r in ordered), default=0) + 1)]
    triples = []
    for record, wid in zip(ordered, walker_ids):
        walker_node = Iri(f"{RESULT_NS}walker_{wid}")
        path_node = Iri(f"{RESULT_NS}path_{wid}")
        triples.append(Triple(walker_node, RDF_TYPE, RWR_GEODESIC_WALKER))
        triples.append(Triple(walker_node, RWR_USES_GRAMMAR, grammar_id))
        triples.append(Triple(walker_node, RWR_HAS_QPATH, path_node))
        triples.append(Triple(path_node, RDF_TYPE, RWR_PATH))
        for index, (step, member) in enumerate(zip(record.steps, members), start=1):
            segment = Iri(f"{RESULT_NS}segment_{wid}_{index}")
            triples.append(Triple(path_node, member, segment))
            triples.append(Triple(segment, RDF_TYPE, RWR_SEGMENT))
            triples.append(Triple(segment, RWR_HAS_VERTEX, step.vertex))
            if step.predicate is not None:
                triples.append(Triple(segment, RWR_HAS_PREDICATE, step.predicate))
                triples.append(
                    Triple(segment, RWR_HAS_DIRECTION, _DIRECTION_LITERALS[step.direction])
                )
    prefixes = {"rwr": RWR_NS, "rwrx": RESULT_NS, "rdf": RDF_NS}
    return Graph(triples, prefixes)


def _decode_record(store: Graph, path_node: Resource) -> PathRecord:
    """The record stored under ``path_node``; the only reader of a stored path's segments."""
    steps = []
    for segment in store.sequence(path_node):
        found = {RWR_HAS_VERTEX: [], RWR_HAS_PREDICATE: [], RWR_HAS_DIRECTION: []}
        for t in store.outgoing(segment):
            if t.predicate in found:
                found[t.predicate].append(t.object)
        vertices, predicates, directions = found.values()
        if len(vertices) != 1:
            raise ValidationError(f"segment {segment!r} must carry exactly one vertex")
        if not predicates and not directions:
            steps.append(PathStep(vertices[0]))
            continue
        if len(predicates) != 1 or len(directions) != 1:
            raise ValidationError(f"segment {segment!r} must carry one predicate and one direction")
        literal = directions[0]
        if not isinstance(literal, Literal) or literal.lexical not in _LITERAL_DIRECTIONS:
            raise ValidationError(f"segment {segment!r} has unknown direction {literal!r}")
        steps.append(PathStep(vertices[0], predicates[0], _LITERAL_DIRECTIONS[literal.lexical]))
    return PathRecord(tuple(steps))


def _paths_for_grammar(store: Graph, grammar_id: Optional[Resource]):
    for t in sorted(store.match((None, RDF_TYPE, RWR_GEODESIC_WALKER)), key=lambda x: resource_key(x.subject)):
        walker = t.subject
        if grammar_id is not None and not store.match((walker, RWR_USES_GRAMMAR, grammar_id)):
            continue
        yield from sorted((qp.object for qp in store.match((walker, RWR_HAS_QPATH, None))), key=resource_key)


def decode_paths(store: Graph, grammar_id: Optional[Resource] = None) -> frozenset:
    """All path records in the store, optionally limited to one grammar."""
    return frozenset(
        _decode_record(store, path_node)
        for path_node in _paths_for_grammar(store, grammar_id)
    )


# -- queries -------------------------------------------------------------------


def _scan_endpoints(store: Graph, grammar_id: Resource) -> dict:
    """(first vertex, last vertex) -> {path node: decoded record}.

    One pass over the grammar's stored paths, each decoded once; a path
    without segments has no endpoints and is left out.
    """
    found: dict = {}
    for path_node in _paths_for_grammar(store, grammar_id):
        record = _decode_record(store, path_node)
        if record.steps:
            ends = (record.steps[0].vertex, record.steps[-1].vertex)
            found.setdefault(ends, {})[path_node] = record
    return found


def _endpoint_index(store: Graph, grammar_id: Resource) -> dict:
    """The grammar's endpoint index, scanned by the first read of it and kept on the store."""
    return store.derived((_scan_endpoints, grammar_id), lambda graph: _scan_endpoints(graph, grammar_id))


def query_X(store: Graph, source: Resource, sink: Resource, grammar_id: Resource) -> frozenset:
    """(path, segment count) for every stored path from source to sink.

    A path qualifies when its first segment holds the source vertex and its
    final segment holds the sink vertex.  Requiring the sink at the final
    position (rather than anywhere) keeps one store usable for many
    endpoint pairs: a path that merely passes through the sink on its way
    elsewhere belongs to a different pair.
    """
    paths = _endpoint_index(store, grammar_id).get((source, sink), _NO_PATHS)
    return frozenset((path, len(record.steps)) for path, record in paths.items())


def min_segments(pairs: Iterable) -> Optional[int]:
    """Smallest segment count in a query_X result; None when empty."""
    positions = [position for _, position in pairs]
    return min(positions) if positions else None


def ms_shortest_paths(pairs: Iterable) -> frozenset:
    """Path identifiers holding the minimum segment count."""
    pairs = list(pairs)
    best = min_segments(pairs)
    return frozenset(path for path, position in pairs if position == best)


def _shortest_records(store: Graph, source: Resource, sink: Resource, grammar_id: Resource) -> dict:
    """{path node: decoded record} of the tied-shortest stored source-to-sink paths, selected by ``query_X``."""
    records = _endpoint_index(store, grammar_id).get((source, sink), _NO_PATHS)
    return {path: records[path] for path in ms_shortest_paths(query_X(store, source, sink, grammar_id))}


def query_Y(
    store: Graph,
    source: Resource,
    sink: Resource,
    through: Resource,
    grammar_id: Resource,
) -> frozenset:
    """Shortest stored source-to-sink paths holding ``through`` strictly inside, as ``through_share`` counts."""
    shortest = _shortest_records(store, source, sink, grammar_id)
    return frozenset(path for path, record in shortest.items() if through in record.vertices()[1:-1])


# -- metrics from the store ------------------------------------------------------


@dataclass(frozen=True)
class StorePaths:
    """Path provider answering from an encoded store through ``query_X``."""

    store: Graph
    grammar_id: Resource

    def witnesses(self, source=None, target=None) -> tuple:
        """Decoded tied-shortest records from source to target in key order."""
        if source is None or target is None:
            raise ValueError("shortest-path needs source and target")
        shortest = _shortest_records(self.store, source, target, self.grammar_id)
        return tuple(sorted(shortest.values(), key=PathRecord.key))

    def distance(self, source: Resource, target: Resource) -> Optional[int]:
        found = min_segments(query_X(self.store, source, target, self.grammar_id))
        return None if found is None else found - 1

    def through(self, source: Resource, target: Resource, vertex: Resource) -> Optional[tuple]:
        return through_share(self.witnesses(source, target), vertex)


def p_encoded_metric(
    kind: MetricKind,
    store: Graph,
    grammar_id: Resource,
    vertices: Iterable,
    source: Optional[Resource] = None,
    target: Optional[Resource] = None,
) -> MetricResult:
    """Compute a geodesic metric purely from the encoded store.

    The store answers distances and tied-shortest counts (``StorePaths``),
    and ``metrics.fold``, the same function behind the walker metrics,
    aggregates them; so results compare equal to the directly computed
    ones.  ``source`` is the measured vertex, and shortest path also needs
    ``target``.
    """
    # stops at the first walker of the grammar, where a match would collect them all
    if not any(t.predicate == RWR_USES_GRAMMAR for t in store.incoming(grammar_id)):
        raise IncompleteStoreError(
            f"store holds no paths for grammar {grammar_id!r}",
            missing_pairs=[(source, target)] if source or target else [],
        )
    return fold(kind, StorePaths(store, grammar_id), vertices, source, target)
