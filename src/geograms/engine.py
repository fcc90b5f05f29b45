"""Breadth-first walker execution of a grammar over a graph.

A walker carries two histories: its full trail (every vertex it touched,
with the predicate and direction used to get there) and its recorded path
(the subsequence selected by pathcount rules, which becomes the returned
path).  Each generation, every frontier walker executes its context's
rules in order; a traverse rule with several legal transitions clones the
walker, one clone per transition.  Walkers reaching the exit context run
its rules and retire their recorded path, which the run keeps only when
it runs from the source to the sink.

Walkers step on integer ids, and each rule has one implementation, on
them: ``legal_edges`` applies is, not and notever, and ``expand``
pathcount, each turning a step into a trail position by grammar's
``_reach_back``, the one runtime check of a step.  The first run over a
graph derives its ``GraphIndex`` (``Graph.derived``), which numbers its
vertices and is shared by every later run.  A vertex's moves, read from
the graph's own subject and object indexes and put in ``triple_key``
order, are built when a walker first stands on it, so a run pays only for
the part of the graph it explores; each move carries its triple and the
``PathStep`` it appends, and one table per vertex finds a transition's
move by its triple.  A walker the engine builds keeps its trail's vertex
ids, so each check per candidate edge is a dict or set lookup on a vertex
id or on the edge's predicate IRI text, and ``_admission`` alone ranks
how tightly a context admits a vertex.  ``Triple``s, ``Transition``s and
``PathRecord``s are built only for what a step returns, what a run
returns, and what a trace records: a ``RunTrace`` holds one
``GenerationTrace`` per generation and reads its totals from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import GrammarRuntimeError, TruncationError, UnresolvableEntryError
from .grammar import (
    ContextKind,
    Direction,
    Grammar,
    Is,
    Not,
    PathCount,
    Traverse,
    _reach_back,
)
from .store import RDFS_RESOURCE, Graph, Iri, Resource, Triple, resource_key, triple_key

DEFAULT_MAX_STEPS = 1000


@dataclass(frozen=True, slots=True)
class PathStep:
    """One time-step of a path: the vertex reached, and how it was reached.

    ``predicate`` and ``direction`` are both None exactly at position 0,
    where the walker was placed rather than moved.
    """

    vertex: Resource
    predicate: Optional[Iri] = None
    direction: Optional[Direction] = None
    # computed once, so that hashing a record costs one call per step
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.predicate is None) != (self.direction is None):
            raise ValueError("predicate and direction must be both present or both absent")
        object.__setattr__(self, "_hash", hash((self.vertex, self.predicate, self.direction)))

    def __hash__(self):
        return self._hash

    def key(self) -> tuple:
        return (
            resource_key(self.vertex),
            resource_key(self.predicate) if self.predicate else (-1, "", ""),
            self.direction.value if self.direction else "",
        )


@dataclass(frozen=True, slots=True)
class PathRecord:
    """A returned path: the steps a walker chose to record."""

    steps: tuple[PathStep, ...]

    @property
    def edge_length(self) -> int:
        return len(self.steps) - 1

    @property
    def flattened_length(self) -> int:
        """Length of the path written out as vertex/predicate/direction atoms."""
        return sum(1 if s.predicate is None else 3 for s in self.steps)

    def key(self) -> tuple:
        return tuple(s.key() for s in self.steps)

    def vertices(self) -> tuple[Resource, ...]:
        return tuple(s.vertex for s in self.steps)

    def to_text(self, compact: Callable[[Resource], str] = repr) -> str:
        parts = []
        for step in self.steps:
            if step.predicate is not None:
                parts.append(f" -[{compact(step.predicate)},{step.direction.value}]-> ")
            parts.append(f"({compact(step.vertex)})")
        return "".join(parts)


@dataclass(frozen=True, slots=True)
class Walker:
    id: int
    context: str
    trail: tuple[PathStep, ...]
    recorded: tuple[PathStep, ...] = ()
    # (GraphIndex, the trail's vertex ids on it), set by the engine on the
    # walkers it builds; derived from ``trail``, so it takes no part in
    # equality, and ``dataclasses.replace`` leaves it empty
    _bound: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def time_index(self) -> int:
        return len(self.trail) - 1

    @property
    def vertex(self) -> Resource:
        return self.trail[-1].vertex


# sets the ``_bound`` field of a walker the engine has just built
_set = object.__setattr__


class Transition(NamedTuple):
    triple: Triple
    direction: Direction
    next_context: str


class RunMode(Enum):
    SHORTEST_ONLY = "shortest"
    ALL_PATHS = "all"


# a direction by the low bit of a move: 0 follows the triple, 1 opposes it
_DIRECTIONS = (Direction.FORWARD, Direction.BACKWARD)


# -- the integer index of a graph --------------------------------------------------


class GraphIndex:
    """Integer ids for one graph's vertices, and each vertex's moves.

    The ids are fixed when the index is built, in the graph's own set
    order rather than in ``resource_key`` order; every ordering the engine
    promises comes from ``triple_key`` instead.

    ``moves[v]``, built on the first visit to vertex id ``v``, is a tuple
    ``(out, into, by_triple)``.  A move is a tuple ``(move, far vertex id,
    predicate IRI text, the PathStep the move appends, triple)``; ``move``
    is ``2 * rank + d``, where rank is the triple's place among the
    vertex's triples in ``triple_key`` order and d is 0 along the triple, 1
    against it, so moves sort in (triple, direction) order, forward first.
    ``out`` holds the moves along the triples leaving the vertex, ``into``
    those against the triples entering it, both in move order, and
    ``by_triple`` maps each triple to its (forward move or None, backward
    move or None); a self-loop has both.  Id -1 names a vertex the graph
    does not have, which has no moves.

    The index also keeps, per wanted predicate, which predicate IRIs it
    admits, and per wanted resource, the rank ``_admission`` gives each
    vertex id; both go through ``Graph.is_subproperty_or_equal`` and
    ``Graph.has_type_or_equal``, so every subsumption mode stays exact.
    Every table fills on demand and is shared by every grammar run on the
    graph.  Filling the same entry twice gives equal values, so threads
    may share one index.
    """

    __slots__ = ("graph", "vertices", "vertex_id", "moves", "_admissible", "_admitted", "_rules")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.vertices = list(graph.vertices())
        self.vertex_id = {v: i for i, v in enumerate(self.vertices)}
        self.moves = _Memo(self._visit)
        self.moves[-1] = ([], [], {})
        below, vertices = graph.is_subproperty_or_equal, self.vertices
        # wanted predicate -> (IRI text -> whether that predicate is the wanted one or below it);
        # keyed by the text, whose hash is cached, rather than by the Iri
        self._admissible = _Memo(lambda wanted: _Memo(lambda name: below(Iri(name), wanted)))
        # wanted resource -> (vertex id -> the vertex's admission rank for it)
        self._admitted = _Memo(lambda wanted: _Memo(lambda vid: _admission(graph, vertices[vid], wanted)))
        self._rules = (None, {})

    def _visit(self, vid: int) -> tuple:
        """The moves from vertex id ``vid``; ``moves`` calls this on the vertex's first visit."""
        vertex, graph, vertex_id = self.vertices[vid], self.graph, self.vertex_id
        out, into, by_triple = [], [], {}
        for rank, t in enumerate(sorted(graph.outgoing(vertex) | graph.incoming(vertex), key=triple_key)):
            forward = backward = None
            if t.subject == vertex:
                step = PathStep(t.object, t.predicate, Direction.FORWARD)
                forward = (2 * rank, vertex_id[t.object], t.predicate.value, step, t)
                out.append(forward)
            if t.object == vertex:
                step = PathStep(t.subject, t.predicate, Direction.BACKWARD)
                backward = (2 * rank + 1, vertex_id[t.subject], t.predicate.value, step, t)
                into.append(backward)
            by_triple[t] = (forward, backward)
        return out, into, by_triple

    def vertex_ids(self, walker: Walker) -> tuple:
        """The ids of ``walker``'s trail vertices, -1 for one the graph does not have."""
        bound = walker._bound
        if bound and bound[0] is self:
            return bound[1]
        get = self.vertex_id.get
        return tuple(get(step.vertex, -1) for step in walker.trail)

    def resolve(self, grammar: Grammar, rule: Traverse) -> tuple:
        """The resolved form (``_resolve_spec``) of every edge spec of ``rule``.

        Cached for the last grammar seen, so a run resolves each rule once.
        """
        seen, rules = self._rules
        if seen is not grammar:
            rules = {}
            self._rules = (grammar, rules)
        entry = rules.get(id(rule))
        if entry is None or entry[0] is not rule:
            entry = rules[id(rule)] = (rule, tuple(self._resolve_spec(grammar, spec) for spec in rule.edges))
        return entry[1]

    def _resolve_spec(self, grammar: Grammar, spec) -> tuple:
        """``spec``'s checks on this index, in the order ``legal_edges`` unpacks: backward, admissible (by IRI
        text; None under the wildcard, which admits all), admitted, is steps, not steps, notever, far context."""
        far = grammar.contexts[spec.far_context]
        return (
            spec.direction is Direction.BACKWARD,
            None if spec.predicate == RDFS_RESOURCE else self._admissible[spec.predicate],
            self._admitted[far.for_resource],
            tuple(a.step for a in far.attributes if isinstance(a, Is)),
            tuple(a.step for a in far.attributes if isinstance(a, Not)),
            far.has_not_ever,
            spec.far_context,
        )


class _Memo(dict):
    """Key -> what ``check`` answers for it, computed on first lookup."""

    __slots__ = ("check",)

    def __init__(self, check: Callable):
        self.check = check

    def __missing__(self, key):
        self[key] = found = self.check(key)
        return found


def index_of(graph: Graph) -> GraphIndex:
    """The graph's engine index, one per graph, built on first use."""
    return graph.derived(GraphIndex, GraphIndex)


# -- legal edge computation ------------------------------------------------------


class Rejection(NamedTuple):
    triple: Triple
    direction: Direction
    far_context: str
    reason: str
    walker_id: int


def _admission(graph: Graph, vertex: Resource, wanted: Resource) -> int | None:
    """How tightly a context bound to ``wanted`` admits ``vertex``; lower is tighter.

    0 for the bound vertex itself, 1 for a vertex typed by it, 2 for any
    vertex under the ``rdfs:Resource`` wildcard, None where not admitted.
    """
    if vertex == wanted:
        return 0
    if wanted == RDFS_RESOURCE:
        return 2
    return 1 if graph.has_type_or_equal(vertex, wanted) else None


def legal_edges(
    graph: Graph,
    grammar: Grammar,
    walker: Walker,
    rule: Traverse,
    collector: "GenerationTrace | None" = None,
) -> tuple:
    """Every transition the walker may take under ``rule``; one per edge.

    For an outgoing edge spec, candidate triples leave the walker's vertex;
    for an incoming one they point at it.  A candidate survives an edge
    spec when its label is subsumed by that spec's predicate, the far
    vertex satisfies the destination context's type, and the destination's
    is/not/notever attribute sets admit it.

    A traversed edge yields exactly one successor: when several specs of
    the rule admit the same (triple, direction), the walker resolves into
    the most specific matching context (vertex equality over type match
    over the any-resource wildcard, then rule order).  Transitions come in
    (triple, direction) order, forward first.  An empty result halts the
    walker.
    """
    index = index_of(graph)
    vids = index.vertex_ids(walker)
    out, into, _ = index.moves[vids[-1]]
    best: dict = {}  # move -> (admission rank, far context, triple), the first spec at the best rank
    visited = None  # the vertex ids of the trail, built for the first notever spec
    for spec in index.resolve(grammar, rule):
        backward, admissible, admitted, is_steps, not_steps, notever, far_context = spec
        required = {vids[_reach_back(len(vids), s, Is, far_context)] for s in is_steps} if is_steps else ()
        excluded = {vids[_reach_back(len(vids), s, Not, far_context)] for s in not_steps} if not_steps else ()
        if notever and visited is None:
            visited = set(vids)
        blocked = visited if notever else ()
        candidates = into if backward else out
        if collector is not None:
            collector.raw_candidates += len(candidates)
        for move, far, name, _, triple in candidates:
            if admissible is not None and not admissible[name]:
                reason = "predicate"
            elif (rank := admitted[far]) is None:
                reason = "type"
            elif required and far not in required:
                reason = "is"
            elif far in excluded:
                reason = "not"
            elif far in blocked:
                reason = "notever"
            else:
                if move not in best or rank < best[move][0]:
                    best[move] = (rank, far_context, triple)
                continue
            if collector is not None:
                collector.rejections.append(Rejection(triple, _DIRECTIONS[backward], far_context, reason, walker.id))
    return tuple(
        [Transition(triple, _DIRECTIONS[move & 1], context) for move, (_, context, triple) in sorted(best.items())]
    )


# -- tracing ----------------------------------------------------------------------


@dataclass
class GenerationTrace:
    """One generation of a traced run, which ``legal_edges`` and ``expand`` fill;
    ``expand`` appends it, frozen, to ``RunTrace.generations`` when the generation ends."""

    frontier_size: int = 0
    finished_count: int = 0
    emitted: frozenset = field(default_factory=set)
    rejections: tuple = field(default_factory=list)
    raw_candidates: int = 0


@dataclass
class RunTrace:
    """A run's ``GenerationTrace``s and walker ids; the two totals are read from the generations."""

    generations: list = field(default_factory=list)
    walker_ids: set = field(default_factory=set)

    @property
    def raw_candidates(self) -> int:
        return sum(g.raw_candidates for g in self.generations)

    @property
    def transitions_examined(self) -> int:
        """Distinct (triple, direction) pairs rejected or emitted across the whole run."""
        return len({(m.triple, m.direction) for g in self.generations for m in (*g.rejections, *g.emitted)})


# -- frontier expansion ------------------------------------------------------------


def expand(
    graph: Graph,
    grammar: Grammar,
    frontier: Iterable,
    *,
    next_id: int = 0,
    trace: RunTrace | None = None,
) -> tuple[tuple[tuple, frozenset], int]:
    """One synchronous generation step over every walker in the frontier.

    Each walker in id order runs its context's rules.  Returns the pair
    ((the new frontier, the records finished this generation), the next
    free walker id).  Successors are created in walker order and then in the
    order ``legal_edges`` returns transitions, so ids, and therefore every
    downstream artifact, do not depend on set iteration order.
    """
    index = index_of(graph)
    record = GenerationTrace() if trace is not None else None
    successors = []
    finished = set()
    for walker in sorted(frontier, key=_walker_id):
        context = grammar.contexts[walker.context]
        recorded = walker.recorded
        transitions = None
        for rule in context.rules:
            if isinstance(rule, PathCount):
                # only the successors see the recorded path, so the walker
                # itself stays as it is for the traverse rule
                position = _reach_back(walker.time_index, rule.step, PathCount, walker.context)
                recorded += (walker.trail[position],)
            elif context.kind is ContextKind.EXIT:
                raise GrammarRuntimeError("exit context must not traverse", context_id=walker.context)
            elif transitions is not None:
                raise GrammarRuntimeError("context carries more than one traverse rule", context_id=walker.context)
            else:
                transitions = legal_edges(graph, grammar, walker, rule, collector=record)
        if context.kind is ContextKind.EXIT:
            finished.add(recorded)
        if record is not None and transitions:
            record.emitted.update(transitions)
        if not transitions:
            continue
        trail, vids = walker.trail, index.vertex_ids(walker)
        by_triple = index.moves[vids[-1]][2]
        for triple, direction, next_context in transitions:
            _, far, _, step, _ = by_triple[triple][direction is Direction.BACKWARD]
            successor = Walker(next_id, next_context, trail + (step,), recorded)
            _set(successor, "_bound", (index, vids + (far,)))
            successors.append(successor)
            next_id += 1
    records = frozenset(map(PathRecord, finished))
    if record is not None:
        record.frontier_size, record.finished_count = len(successors), len(records)
        record.emitted, record.rejections = frozenset(record.emitted), tuple(record.rejections)
        trace.walker_ids.update(walker.id for walker in successors)
        trace.generations.append(record)
    return (tuple(successors), records), next_id


_walker_id = attrgetter("id")


# -- the path function --------------------------------------------------------------


def run(
    graph: Graph,
    grammar: Grammar,
    mode: RunMode = RunMode.ALL_PATHS,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    workers: int = 1,
    trace: RunTrace | None = None,
) -> frozenset:
    """Execute the grammar over the graph and return the set of path records.

    Only a record that runs from the source to the sink is kept; one that
    a walker retires elsewhere, say on an instance of a class sink, is not.
    In SHORTEST_ONLY mode the run stops at the first generation that keeps
    any record; that generation's records are the tied-shortest set.  In
    ALL_PATHS mode the run continues until no walkers remain.  If
    ``max_steps`` generations elapse with walkers still alive, the run
    aborts with a truncation error naming the endpoint pair and carrying
    every record kept so far.  Runs are single-threaded; ``workers`` is
    checked and otherwise ignored, so every worker count gives the same
    output.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    entry = grammar.entry_context
    source = entry.for_resource
    if source not in graph.vertices():
        raise UnresolvableEntryError(
            f"entry vertex {source!r} does not occur in the graph"
        )
    ends = (source, grammar.exit_context.for_resource)
    seed = Walker(0, grammar.entry, (PathStep(source),))
    if trace is not None:
        trace.walker_ids.add(seed.id)
    frontier: tuple = (seed,)
    next_id = 1
    results: set = set()
    for _ in range(max_steps):
        (frontier, finished), next_id = expand(graph, grammar, frontier, next_id=next_id, trace=trace)
        # a difference keeps the hashes the kept records were stored with
        found = finished - {r for r in finished if not r.steps or (r.steps[0].vertex, r.steps[-1].vertex) != ends}
        if found and mode is RunMode.SHORTEST_ONLY:
            return found
        results.update(found)
        if not frontier:
            return frozenset(results)
    raise TruncationError(max_steps, frozenset(results), ends)
