"""Breadth-first walker execution of a grammar over a graph.

A walker carries two histories: its full trail (every vertex it touched,
with the predicate and direction used to get there) and its recorded path
(the subsequence selected by pathcount rules, which becomes the returned
path).  Each generation, every frontier walker executes its context's
rules in order; a traverse rule with several legal transitions clones the
walker, one clone per transition.  Walkers reaching the exit context run
its rules and retire their recorded path into the result set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
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

    def __post_init__(self):
        if (self.predicate is None) != (self.direction is None):
            raise ValueError("predicate and direction must be both present or both absent")

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

    @property
    def time_index(self) -> int:
        return len(self.trail) - 1

    @property
    def vertex(self) -> Resource:
        return self.trail[-1].vertex


class Transition(NamedTuple):
    triple: Triple
    direction: Direction
    next_context: str

    def sort_key(self) -> tuple:
        return (triple_key(self.triple), self.direction.value, self.next_context)


class RunMode(Enum):
    SHORTEST_ONLY = "shortest"
    ALL_PATHS = "all"


# -- attribute sets ------------------------------------------------------------


def not_ever_set(walker: Walker) -> frozenset:
    """All vertices the walker has ever stood on (never predicates)."""
    return frozenset(step.vertex for step in walker.trail)


def _attribute_targets(walker: Walker, attrs: Iterable, wanted_type, context_id: str) -> frozenset:
    resolved_position = len(walker.trail)
    targets = set()
    for attr in attrs:
        if isinstance(attr, wanted_type):
            position = resolved_position - attr.step
            if position < 0:
                raise GrammarRuntimeError(
                    f"{wanted_type.__name__.lower()} step {attr.step} reaches before the "
                    f"start of the path at position {resolved_position}",
                    context_id=context_id,
                )
            targets.add(walker.trail[position].vertex)
    return frozenset(targets)


def is_set(walker: Walker, attrs: Iterable, context_id: str = "?") -> frozenset:
    """Vertices the next context must resolve to; empty means unconstrained."""
    return _attribute_targets(walker, attrs, Is, context_id)


def not_set(walker: Walker, attrs: Iterable, context_id: str = "?") -> frozenset:
    """Vertices the next context must not resolve to."""
    return _attribute_targets(walker, attrs, Not, context_id)


# -- legal edge computation ------------------------------------------------------


class _TraceSink:
    """Trace data collected by ``legal_edges`` over one generation."""

    __slots__ = ("examined", "rejections", "raw_candidates")

    def __init__(self):
        self.examined = []
        self.rejections = []
        self.raw_candidates = 0


class Rejection(NamedTuple):
    triple: Triple
    direction: Direction
    far_context: str
    reason: str
    walker_id: int


def _specificity(destination: Resource, wanted: Resource) -> int:
    """How tightly a context binding matches: equality, then type, then wildcard."""
    if destination == wanted:
        return 0
    if wanted == RDFS_RESOURCE:
        return 2
    return 1


def legal_edges(
    graph: Graph,
    grammar: Grammar,
    walker: Walker,
    rule: Traverse,
    collector: _TraceSink | None = None,
) -> frozenset:
    """Every transition the walker may take under ``rule``; one per edge.

    For an outgoing edge spec, candidate triples leave the walker's vertex;
    for an incoming one they point at it.  A candidate survives an edge
    spec when its label is subsumed by that spec's predicate, the far
    vertex satisfies the destination context's type, and the destination's
    is/not/notever attribute sets admit it.

    A traversed edge yields exactly one successor: when several specs of
    the rule admit the same (triple, direction), the walker resolves into
    the most specific matching context (vertex equality over type match
    over the any-resource wildcard, then rule order).  An empty result
    halts the walker.
    """
    here = walker.vertex
    best: dict = {}
    blocked_cache: frozenset | None = None
    for spec_index, spec in enumerate(rule.edges):
        far = grammar.contexts[spec.far_context]
        required = is_set(walker, far.attributes, far.id)
        excluded = not_set(walker, far.attributes, far.id)
        if far.has_not_ever:
            if blocked_cache is None:
                blocked_cache = not_ever_set(walker)
            blocked = blocked_cache
        else:
            blocked = frozenset()

        if spec.direction is Direction.FORWARD:
            candidates = graph.outgoing(here)
        else:
            candidates = graph.incoming(here)
        for triple in candidates:
            destination = triple.object if spec.direction is Direction.FORWARD else triple.subject
            if collector is not None:
                collector.raw_candidates += 1
                collector.examined.append((triple, spec.direction))
            reason = None
            if not graph.is_subproperty_or_equal(triple.predicate, spec.predicate):
                reason = "predicate"
            elif not graph.has_type_or_equal(destination, far.for_resource):
                reason = "type"
            elif required and destination not in required:
                reason = "is"
            elif destination in excluded:
                reason = "not"
            elif destination in blocked:
                reason = "notever"
            if reason is None:
                rank = (_specificity(destination, far.for_resource), spec_index)
                key = (triple, spec.direction)
                if key not in best or rank < best[key][0]:
                    best[key] = (rank, spec.far_context)
            elif collector is not None:
                collector.rejections.append(
                    Rejection(triple, spec.direction, spec.far_context, reason, walker.id)
                )
    return frozenset(
        Transition(triple, direction, context)
        for (triple, direction), (_, context) in best.items()
    )


# -- path counting ---------------------------------------------------------------


def apply_path_count(walker: Walker, step: int) -> Walker:
    """Append the trail segment ``step`` time-steps back to the recorded path."""
    position = walker.time_index - step
    if position < 0:
        raise GrammarRuntimeError(
            f"pathcount step {step} reaches before the start of the path at "
            f"time {walker.time_index}",
            context_id=walker.context,
        )
    return replace(walker, recorded=walker.recorded + (walker.trail[position],))


# -- tracing ----------------------------------------------------------------------


@dataclass
class GenerationTrace:
    index: int
    frontier_size: int
    finished_count: int
    emitted: frozenset
    rejections: tuple


@dataclass
class RunTrace:
    """Instrumentation of one run, for diagnostics and complexity checks."""

    generations: list = field(default_factory=list)
    vertices_visited: set = field(default_factory=set)
    edges_examined: set = field(default_factory=set)
    raw_candidates: int = 0
    walker_ids: set = field(default_factory=set)

    @property
    def transitions_examined(self) -> int:
        """Distinct (triple, direction) pairs examined across the whole run."""
        return len(self.edges_examined)


# -- frontier expansion ------------------------------------------------------------


class ExpandResult(NamedTuple):
    frontier: tuple
    finished: frozenset


def expand(
    graph: Graph,
    grammar: Grammar,
    frontier: Iterable,
    *,
    next_id: int = 0,
    trace: RunTrace | None = None,
) -> tuple[ExpandResult, int]:
    """One synchronous generation step over every walker in the frontier.

    Each walker in id order runs its context's rules.  Returns the new
    frontier, the records finished this generation, and the next free
    walker id.  Successors are created in a fixed order, so ids, and
    therefore every downstream artifact, do not depend on set iteration
    order.
    """
    sink = _TraceSink() if trace is not None else None
    successors = []
    finished = set()
    emitted = set()
    for walker in sorted(frontier, key=lambda w: w.id):
        context = grammar.contexts[walker.context]
        transitions: tuple = ()
        for rule in context.rules:
            if isinstance(rule, PathCount):
                walker = apply_path_count(walker, rule.step)
            elif context.kind is ContextKind.EXIT:
                raise GrammarRuntimeError(
                    "exit context must not traverse", context_id=context.id
                )
            else:
                found = legal_edges(graph, grammar, walker, rule, collector=sink)
                transitions = tuple(sorted(found, key=Transition.sort_key))
        if context.kind is ContextKind.EXIT:
            finished.add(PathRecord(walker.recorded))
        emitted.update(transitions)
        for transition in transitions:
            forward = transition.direction is Direction.FORWARD
            destination = transition.triple.object if forward else transition.triple.subject
            step = PathStep(destination, transition.triple.predicate, transition.direction)
            successors.append(
                Walker(next_id, transition.next_context, walker.trail + (step,), walker.recorded)
            )
            next_id += 1
    if trace is not None:
        trace.raw_candidates += sink.raw_candidates
        trace.edges_examined.update(sink.examined)
        for walker in successors:
            trace.vertices_visited.add(walker.vertex)
            trace.walker_ids.add(walker.id)
        trace.generations.append(
            GenerationTrace(
                index=len(trace.generations),
                frontier_size=len(successors),
                finished_count=len(finished),
                emitted=frozenset(emitted),
                rejections=tuple(sink.rejections),
            )
        )
    return ExpandResult(tuple(successors), frozenset(finished)), next_id


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

    In SHORTEST_ONLY mode the run stops at the first generation that
    completes any path; that generation's records are the tied-shortest
    set.  In ALL_PATHS mode the run continues until no walkers remain.  If
    ``max_steps`` generations elapse with walkers still alive, the run
    aborts with a truncation error naming the endpoint pair and carrying
    all paths completed so far.  Runs are single-threaded; ``workers`` is
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
    sink_vertex = grammar.exit_context.for_resource

    def accepted(record: PathRecord) -> bool:
        return (
            len(record.steps) > 0
            and record.steps[0].vertex == source
            and record.steps[-1].vertex == sink_vertex
        )

    seed = Walker(0, grammar.entry, (PathStep(source),))
    if trace is not None:
        trace.vertices_visited.add(source)
        trace.walker_ids.add(seed.id)
    frontier: tuple = (seed,)
    next_id = 1
    results: set = set()
    generation = 0
    while frontier:
        if generation >= max_steps:
            raise TruncationError(
                max_steps,
                frozenset(r for r in results if accepted(r)),
                (source, sink_vertex),
            )
        (frontier, newly), next_id = expand(graph, grammar, frontier, next_id=next_id, trace=trace)
        results.update(newly)
        if mode is RunMode.SHORTEST_ONLY:
            found = frozenset(r for r in newly if accepted(r))
            if found:
                return found
        generation += 1
    return frozenset(r for r in results if accepted(r))
