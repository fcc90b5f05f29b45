"""Persisting walker results as triples and recomputing metrics by query.

Each recorded path becomes a walker node, a path node, and one segment
node per step.  Segments are attached to their path through the numbered
container membership properties (``rdf:_1``, ``rdf:_2``, ...), so the
number of segments, and therefore the path length, is recoverable with a
single scan.  Once a store holds the paths for every endpoint pair of
interest, every geodesic metric can be answered from queries alone,
without ever running a walker again.

A store may hold the results of many endpoint pairs under one grammar
identifier; queries separate them by their endpoint vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import PathRecord, PathStep
from .errors import IncompleteStoreError, ValidationError
from .grammar import RWR_NS, Direction, membership_index
from .metrics import MetricKind, MetricResult, fold
from .store import (
    RDF_NS,
    RDF_TYPE,
    RESULT_NS,
    Graph,
    Iri,
    Literal,
    Resource,
    Triple,
    resource_key,
)


@dataclass(frozen=True)
class PathVocabulary:
    """The IRIs used by the path encoding; replaceable in one place."""

    geodesic_walker: Iri = Iri(RWR_NS + "GeodesicWalker")
    uses_grammar: Iri = Iri(RWR_NS + "usesGrammar")
    has_qpath: Iri = Iri(RWR_NS + "hasQPath")
    path_type: Iri = Iri(RWR_NS + "Path")
    segment_type: Iri = Iri(RWR_NS + "Segment")
    has_vertex: Iri = Iri(RWR_NS + "hasVertex")
    has_predicate: Iri = Iri(RWR_NS + "hasPredicate")
    has_direction: Iri = Iri(RWR_NS + "hasDirection")

    def membership(self, index: int) -> Iri:
        return Iri(f"{RDF_NS}_{index}")


VOCAB = PathVocabulary()

_DIRECTION_LITERALS = {Direction.FORWARD: Literal("+"), Direction.BACKWARD: Literal("-")}
_LITERAL_DIRECTIONS = {"+": Direction.FORWARD, "-": Direction.BACKWARD}


def encode_paths(
    records: Iterable,
    grammar_id: Resource,
    walker_ids: Sequence[int],
    namespace: str = RESULT_NS,
    vocab: PathVocabulary = VOCAB,
) -> Graph:
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
    triples = []
    for record, wid in zip(ordered, walker_ids):
        walker_node = Iri(f"{namespace}walker_{wid}")
        path_node = Iri(f"{namespace}path_{wid}")
        triples.append(Triple(walker_node, RDF_TYPE, vocab.geodesic_walker))
        triples.append(Triple(walker_node, vocab.uses_grammar, grammar_id))
        triples.append(Triple(walker_node, vocab.has_qpath, path_node))
        triples.append(Triple(path_node, RDF_TYPE, vocab.path_type))
        for index, step in enumerate(record.steps, start=1):
            segment = Iri(f"{namespace}segment_{wid}_{index}")
            triples.append(Triple(path_node, vocab.membership(index), segment))
            triples.append(Triple(segment, RDF_TYPE, vocab.segment_type))
            triples.append(Triple(segment, vocab.has_vertex, step.vertex))
            if step.predicate is not None:
                triples.append(Triple(segment, vocab.has_predicate, step.predicate))
                triples.append(
                    Triple(segment, vocab.has_direction, _DIRECTION_LITERALS[step.direction])
                )
    prefixes = {"rwr": RWR_NS, "rwrx": namespace, "rdf": RDF_NS}
    return Graph(triples, prefixes)


def _segments_by_index(store: Graph, path_node: Resource, vocab: PathVocabulary) -> dict:
    segments = {}
    for t in store.match((path_node, None, None)):
        index = membership_index(t.predicate)
        if index is not None:
            segments[index] = t.object
    return segments


def _segment_vertex(store: Graph, segment: Resource, vocab: PathVocabulary) -> Resource:
    found = store.match((segment, vocab.has_vertex, None))
    if len(found) != 1:
        raise ValidationError(f"segment {segment!r} must carry exactly one vertex")
    return next(iter(found)).object


def _decode_record(store: Graph, path_node: Resource, vocab: PathVocabulary) -> PathRecord:
    segments = _segments_by_index(store, path_node, vocab)
    if sorted(segments) != list(range(1, len(segments) + 1)):
        raise ValidationError(
            f"path {path_node!r} memberships must be consecutive from rdf:_1"
        )
    steps = []
    for index in range(1, len(segments) + 1):
        segment = segments[index]
        vertex = _segment_vertex(store, segment, vocab)
        predicates = store.match((segment, vocab.has_predicate, None))
        directions = store.match((segment, vocab.has_direction, None))
        if predicates:
            if len(predicates) != 1 or len(directions) != 1:
                raise ValidationError(
                    f"segment {segment!r} must carry one predicate and one direction"
                )
            literal = next(iter(directions)).object
            if not isinstance(literal, Literal) or literal.lexical not in _LITERAL_DIRECTIONS:
                raise ValidationError(f"segment {segment!r} has unknown direction {literal!r}")
            steps.append(
                PathStep(
                    vertex,
                    next(iter(predicates)).object,
                    _LITERAL_DIRECTIONS[literal.lexical],
                )
            )
        else:
            steps.append(PathStep(vertex))
    return PathRecord(tuple(steps))


def _paths_for_grammar(store: Graph, grammar_id: Optional[Resource], vocab: PathVocabulary):
    for t in sorted(store.match((None, RDF_TYPE, vocab.geodesic_walker)), key=lambda x: resource_key(x.subject)):
        walker = t.subject
        if grammar_id is not None and not store.match((walker, vocab.uses_grammar, grammar_id)):
            continue
        for qp in store.match((walker, vocab.has_qpath, None)):
            yield qp.object


def decode_paths(
    store: Graph,
    grammar_id: Optional[Resource] = None,
    vocab: PathVocabulary = VOCAB,
) -> frozenset:
    """All path records in the store, optionally limited to one grammar."""
    return frozenset(
        _decode_record(store, path_node, vocab)
        for path_node in _paths_for_grammar(store, grammar_id, vocab)
    )


# -- queries -------------------------------------------------------------------


def query_X(
    store: Graph,
    source: Resource,
    sink: Resource,
    grammar_id: Resource,
    vocab: PathVocabulary = VOCAB,
) -> frozenset:
    """(path, segment count) for every stored path from source to sink.

    A path qualifies when its first segment holds the source vertex and its
    final segment holds the sink vertex.  Requiring the sink at the final
    position (rather than anywhere) keeps one store usable for many
    endpoint pairs: a path that merely passes through the sink on its way
    elsewhere belongs to a different pair.
    """
    results = set()
    for path_node in _paths_for_grammar(store, grammar_id, vocab):
        segments = _segments_by_index(store, path_node, vocab)
        if not segments or 1 not in segments:
            continue
        last = max(segments)
        if _segment_vertex(store, segments[1], vocab) != source:
            continue
        if _segment_vertex(store, segments[last], vocab) == sink:
            results.add((path_node, last))
    return frozenset(results)


def min_segments(pairs: Iterable) -> Optional[int]:
    """Smallest segment count in a query_X result; None when empty."""
    positions = [position for _, position in pairs]
    return min(positions) if positions else None


def ms_shortest_paths(pairs: Iterable) -> frozenset:
    """Path identifiers holding the minimum segment count."""
    pairs = list(pairs)
    best = min_segments(pairs)
    return frozenset(path for path, position in pairs if position == best)


def query_Y(
    store: Graph,
    source: Resource,
    sink: Resource,
    through: Resource,
    grammar_id: Resource,
    vocab: PathVocabulary = VOCAB,
) -> frozenset:
    """Shortest stored source-to-sink paths containing ``through`` before the sink."""
    shortest = ms_shortest_paths(query_X(store, source, sink, grammar_id, vocab))
    results = set()
    for path_node in shortest:
        segments = _segments_by_index(store, path_node, vocab)
        through_positions = []
        sink_positions = []
        for index, segment in segments.items():
            vertex = _segment_vertex(store, segment, vocab)
            if vertex == through:
                through_positions.append(index)
            if vertex == sink:
                sink_positions.append(index)
        if any(s > t for t in through_positions for s in sink_positions):
            results.add(path_node)
    return frozenset(results)


# -- metrics from the store ------------------------------------------------------


@dataclass(frozen=True)
class StorePaths:
    """Path provider answering from an encoded store by query alone."""

    store: Graph
    grammar_id: Resource
    vocab: PathVocabulary = VOCAB

    def _query_x(self, source: Resource, target: Resource) -> frozenset:
        return query_X(self.store, source, target, self.grammar_id, self.vocab)

    def witnesses(self, source=None, target=None) -> tuple:
        """Decoded tied-shortest records from source to target in key order."""
        if source is None or target is None:
            raise ValueError("shortest-path needs source and target")
        shortest = ms_shortest_paths(self._query_x(source, target))
        decoded = (_decode_record(self.store, path, self.vocab) for path in shortest)
        return tuple(sorted(decoded, key=PathRecord.key))

    def distance(self, source: Resource, target: Resource) -> Optional[int]:
        found = min_segments(self._query_x(source, target))
        return None if found is None else found - 1

    def through(self, source: Resource, target: Resource, vertex: Resource) -> Optional[tuple]:
        """(tied-shortest paths through ``vertex``, all of them); None if none."""
        shortest = ms_shortest_paths(self._query_x(source, target))
        if not shortest:
            return None
        through = query_Y(self.store, source, target, vertex, self.grammar_id, self.vocab)
        return len(through), len(shortest)


def p_encoded_metric(
    kind: MetricKind,
    store: Graph,
    grammar_id: Resource,
    vertices: Iterable,
    source: Optional[Resource] = None,
    target: Optional[Resource] = None,
    vocab: PathVocabulary = VOCAB,
) -> MetricResult:
    """Compute a geodesic metric purely from the encoded store.

    The store answers distances and tied-shortest counts (``StorePaths``),
    and ``metrics.fold``, the same function behind the walker metrics,
    aggregates them; so results compare equal to the directly computed
    ones.  ``source`` is the measured vertex, and shortest path also needs
    ``target``.
    """
    if not store.match((None, vocab.uses_grammar, grammar_id)):
        raise IncompleteStoreError(
            f"store holds no paths for grammar {grammar_id!r}",
            missing_pairs=[(source, target)] if source or target else [],
        )
    return fold(kind, StorePaths(store, grammar_id, vocab), vertices, source, target)
