"""The benchmark workloads: inputs, set-up, store write, requests, oracles.

Every workload runs the same pipeline on its own inputs:

1. set-up: parse the generated N-Triples and grammar text into ``Graph``s
   and ``Grammar``s through the public loaders;
2. write: build the ``ALL_PATHS`` sets of every ordered pair of the store
   graphs, ``encode_paths`` them, serialise with ``to_ntriples`` and reload
   the text with ``load_ntriples``;
3. round trip: answer all six metric kinds from the reloaded store for four
   vertices of the first store graph and compare each with the directly
   computed metric;
4. requests: a seeded, endless stream of requests, sent one after the
   other by ``measure.py``.

Every answer is checked against an oracle that shares no machinery with
the walker engine: BFS/DFS over the undirected projection for the
unconstrained grammar, the brute-force enumerator of ``tests/oracles.py``
for constrained grammars, and the direct metric for store reads.  The
program is always called through module attributes (``metrics.closeness``
rather than an imported name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import geograms.encoding as encoding
import geograms.engine as engine
import geograms.grammar as grammar
import geograms.metrics as metrics
import geograms.store as store
from geograms.engine import RunMode
from geograms.metrics import MetricKind
from geograms.store import Iri

import inputs
import oracles  # tests/oracles.py, used read-only

GRAMMAR_ID = Iri(inputs.GNS + "bench")

SP, ECC, RAD, DIA, CLO, BTW = (
    MetricKind.SHORTEST_PATH,
    MetricKind.ECCENTRICITY,
    MetricKind.RADIUS,
    MetricKind.DIAMETER,
    MetricKind.CLOSENESS,
    MetricKind.BETWEENNESS,
)


def vertex(name: str) -> Iri:
    return Iri(inputs.iri(name))


# -- oracles -----------------------------------------------------------------------


def _cycle(rng: random.Random, items: list):
    """Endless seeded shuffles of ``items``, each item once per round.

    Requests are drawn this way rather than independently, so a run's mix
    of graphs and metric kinds is the same for every seed and only the
    endpoints are left to chance.
    """
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class _Edge(NamedTuple):
    subject: Iri
    object: Iri


class ProjectionOracle:
    """BFS and DFS over the undirected, unlabeled projection of a plain graph."""

    def __init__(self, graph_input: inputs.GraphInput):
        edges = [_Edge(vertex(a), vertex(b)) for a, b in graph_input.edges]
        self.adjacency = oracles.undirected_adjacency(edges)
        self._bfs = {}
        self._witnesses = {}

    def dist(self, a, b):
        if a not in self._bfs:
            self._bfs[a] = oracles.bfs_distances(self.adjacency, a)
        return self._bfs[a].get(b)

    def witnesses(self, a, b) -> list:
        if (a, b) not in self._witnesses:
            self._witnesses[(a, b)] = [
                tuple(p) for p in oracles.shortest_vertex_paths(self.adjacency, a, b)
            ]
        return self._witnesses[(a, b)]

    def all_paths_agree(self, records, a, b) -> bool:
        found = []

        def walk(path):
            for neighbor in self.adjacency.get(path[-1], ()):
                if neighbor == b:
                    found.append(tuple(path) + (b,))
                elif neighbor not in path:
                    path.append(neighbor)
                    walk(path)
                    path.pop()

        walk([a])
        return Counter(r.vertices() for r in records) == Counter(found)


class EnumerationOracle:
    """Brute-force path sets of one constrained grammar, memoised per pair."""

    def __init__(self, graph, grammar_obj):
        self.graph = graph
        self.grammar = grammar_obj
        self._records = {}

    def records(self, a, b) -> frozenset:
        if (a, b) not in self._records:
            bound = grammar.rebind_endpoints(self.grammar, a, b)
            self._records[(a, b)] = oracles.enumerate_paths(self.graph, bound)
        return self._records[(a, b)]

    def dist(self, a, b):
        lengths = [r.edge_length for r in self.records(a, b)]
        return min(lengths) if lengths else None

    def witnesses(self, a, b) -> list:
        best = self.dist(a, b)
        return [r.vertices() for r in self.records(a, b) if r.edge_length == best]

    def all_paths_agree(self, records, a, b) -> bool:
        return records == self.records(a, b)


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _oracle_eccentricity(oracle, source, universe):
    distances = [oracle.dist(source, t) for t in universe if t != source]
    reached = [d for d in distances if d is not None]
    return reached, len(distances) - len(reached)


def oracle_agrees(result, kind, oracle, universe, source=None, target=None) -> bool:
    """Whether a ``MetricResult`` matches the metric recomputed from an oracle."""
    if kind is SP:
        d = oracle.dist(source, target)
        if d is None:
            return not result.defined
        return (
            result.defined
            and result.value == d
            and Counter(r.vertices() for r in result.witness_paths)
            == Counter(oracle.witnesses(source, target))
        )
    if kind in (ECC, CLO):
        reached, skipped = _oracle_eccentricity(oracle, source, universe)
        value = (max(reached) if kind is ECC else 1.0 / sum(reached)) if reached else None
    elif kind in (RAD, DIA):
        eccs = [_oracle_eccentricity(oracle, v, universe)[0] for v in universe]
        defined = [max(r) for r in eccs if r]
        skipped = len(eccs) - len(defined)
        value = (min(defined) if kind is RAD else max(defined)) if defined else None
    else:
        value, skipped = 0.0, 0
        for j in universe:
            for k in universe:
                if j == k or source in (j, k):
                    continue
                paths = oracle.witnesses(j, k)
                if paths:
                    value += sum(1 for p in paths if source in p[1:-1]) / len(paths)
    if value is None:
        return not result.defined and result.skipped_targets == skipped
    return result.defined and result.skipped_targets == skipped and _close(result.value, value)


def results_agree(a, b) -> bool:
    """Whether two ``MetricResult``s agree in value, definedness, skips and witnesses."""
    if (a.defined, a.skipped_targets, a.witness_paths) != (b.defined, b.skipped_targets, b.witness_paths):
        return False
    return not a.defined or _close(a.value, b.value)


# -- the calls a request makes -------------------------------------------------------


def direct_metric(kind, graph, grammar_obj, universe, source=None, target=None):
    """One metric computed by the walker engine, as a library user calls it."""
    if kind is SP:
        return metrics.shortest_path(graph, grammar.rebind_endpoints(grammar_obj, source, target))
    if kind is ECC:
        return metrics.eccentricity(graph, grammar_obj, source, universe)
    if kind is RAD:
        return metrics.radius(graph, grammar_obj, universe)
    if kind is DIA:
        return metrics.diameter(graph, grammar_obj, universe)
    if kind is CLO:
        return metrics.closeness(graph, grammar_obj, source, universe)
    return metrics.betweenness(graph, grammar_obj, source, universe)


def pairs_answered(kind, universe_size: int) -> int:
    """Ordered endpoint pairs a metric answers; independent of the implementation."""
    if kind is SP:
        return 1
    if kind in (ECC, CLO):
        return universe_size - 1
    if kind in (RAD, DIA):
        return universe_size * (universe_size - 1)
    return (universe_size - 1) * (universe_size - 2)


def returned_paths(answer) -> int:
    """Path records a request hands back to its caller."""
    if isinstance(answer, frozenset):
        return len(answer)
    return len(answer.witness_paths)


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    pairs: int
    check: Callable[[object], bool]
    returns_paths: bool  # shortest-path and ALL_PATHS requests hand back path records


@dataclass
class State:
    graphs: dict
    grammars: dict


# -- the workloads ----------------------------------------------------------------------


class Workload:
    """Seeded inputs plus the pipeline every workload shares.

    Every workload also writes a store: the ``ALL_PATHS`` sets of every
    ordered pair of its store graphs under the unconstrained grammar.
    Store graphs have a pinned path count, so the store has nearly the same
    size for every seed.  Every random graph but the social network is
    pinned the same way (``inputs.pinned``), each by the count that sets its
    cost.
    """

    name = ""
    TRACED_REQUESTS = 0  # requests in the fixed pass of a traced run
    ROUND_S = 0.0  # wall time an untraced run spends per round of its batch
    STORE_SHAPE = (8, 11, 430)  # vertices, edges, target simple_path_total
    STORE_GRAPHS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.graph_inputs: dict = {}
        self.grammar_texts: dict = {}  # name -> ("dsl" | "triples", text)
        self.store_graphs = []
        for i in range(self.STORE_GRAPHS):
            n, m, target = self.STORE_SHAPE
            g = inputs.pinned(inputs.sparse_graph, self.rng, f"store{i}", n, m, inputs.simple_path_total, target, 0.05)
            self.graph_inputs[g.name] = g
            self.store_graphs.append(g.name)

    def add_grammar(self, name: str, spec: list, fmt: str = "dsl"):
        text = inputs.grammar_dsl(spec) if fmt == "dsl" else inputs.grammar_triples(spec)
        self.grammar_texts[name] = (fmt, text)

    def setup(self) -> State:
        graphs = {name: store.load_ntriples(g.text) for name, g in self.graph_inputs.items()}
        grammars = {}
        for name, (fmt, text) in self.grammar_texts.items():
            if fmt == "dsl":
                grammars[name] = grammar.parse_grammar_dsl(text)
            else:
                grammars[name] = grammar.load_grammar_from_triples(store.load_ntriples(text))
        return State(graphs, grammars)

    def write(self, state: State):
        """Build, encode, serialise and reload the store of the store graphs."""
        records = set()
        grammar_obj = state.grammars["any"]
        for name in self.store_graphs:
            graph = state.graphs[name]
            ends = [vertex(v) for v in self.graph_inputs[name].vertices]
            for a in ends:
                for b in ends:
                    if a != b:
                        bound = grammar.rebind_endpoints(grammar_obj, a, b)
                        records.update(engine.run(graph, bound, RunMode.ALL_PATHS))
        encoded = encoding.encode_paths(records, GRAMMAR_ID, range(len(records)))
        return store.load_ntriples(encoded.to_ntriples())

    def round_trip(self, state: State, reloaded) -> list:
        """All six metric kinds from the store next to the direct metric."""
        name = self.store_graphs[0]
        graph, grammar_obj = state.graphs[name], state.grammars["any"]
        universe = [vertex(v) for v in self.graph_inputs[name].vertices[:4]]
        ends = dict(source=universe[0], target=universe[1])
        return [
            (
                encoding.p_encoded_metric(kind, reloaded, GRAMMAR_ID, universe, **ends),
                direct_metric(kind, graph, grammar_obj, universe, **ends),
            )
            for kind in MetricKind
        ]

    def pools(self) -> list:
        """Every (graph, grammar, vertex names) whose pairs the requests draw from."""
        raise NotImplementedError

    def round_size(self) -> int:
        """Requests in one round of the request stream."""
        raise NotImplementedError

    def batch_size(self, seconds: float) -> int:
        """Requests in the batch of an untraced run: whole rounds, about ``ROUND_S`` of run each."""
        return self.round_size() * max(1, round(seconds / self.ROUND_S))

    def requests(self, state: State, reloaded):
        raise NotImplementedError

    def oracle(self, state: State, graph_name: str, grammar_name: str):
        if grammar_name == "any":
            return ProjectionOracle(self.graph_inputs[graph_name])
        return EnumerationOracle(state.graphs[graph_name], state.grammars[grammar_name])

    def properties(self, state: State, sample: int = 30) -> dict:
        """Input properties a later optimisation may depend on.

        The share of defined pairs is estimated from ``sample`` seeded pairs
        of every pool, answered by the engine.
        """
        shapes = [_grammar_shape(g) for g in state.grammars.values()]
        rng = random.Random(f"{self.name}/properties/{self.seed}")
        pools = self.pools()
        probed = defined = 0
        for graph_name, grammar_name, names in pools:
            graph, grammar_obj = state.graphs[graph_name], state.grammars[grammar_name]
            for _ in range(sample):
                a, b = map(vertex, rng.sample(names, 2))
                probed += 1
                defined += direct_metric(SP, graph, grammar_obj, None, a, b).defined
        return {
            "graphs": len(state.graphs),
            "vertices": sum(len(g.vertices()) for g in state.graphs.values()),
            "triples": sum(len(g) for g in state.graphs.values()),
            "pool_pairs": sum(len(names) * (len(names) - 1) for _, _, names in pools),
            "defined_pair_share": defined / probed,
            "grammars": len(shapes),
            "notever_free_share": sum(s[0] for s in shapes) / len(shapes),
            "pathcount0_only_share": sum(s[1] for s in shapes) / len(shapes),
            "unconstrained_share": sum(s[2] for s in shapes) / len(shapes),
        }


def _grammar_shape(g) -> tuple:
    """(no notever anywhere, every pathcount is 0, shaped like unconstrained_grammar)."""
    contexts = list(g.contexts.values())
    notever_free = not any(c.has_not_ever for c in contexts)
    rules = [r for c in contexts for r in c.rules]
    pathcount0 = all(r.step == 0 for r in rules if isinstance(r, grammar.PathCount))
    probe = grammar.unconstrained_grammar(g.entry_context.for_resource, g.exit_context.for_resource)
    unconstrained = sorted(map(_context_shape, contexts)) == sorted(
        map(_context_shape, probe.contexts.values())
    )
    return notever_free, pathcount0, unconstrained


def _context_shape(c) -> tuple:
    """A context with its id and edge targets erased, for structural comparison."""
    rules = []
    for r in c.rules:
        if isinstance(r, grammar.PathCount):
            rules.append(("pathcount", r.step))
        else:
            edges = sorted((e.direction.value, e.predicate.value) for e in r.edges)
            rules.append(("traverse", tuple(edges)))
    binding = repr(c.for_resource) if c.kind is grammar.ContextKind.INTERMEDIATE else ""
    return c.kind.value, binding, tuple(rules), tuple(sorted(map(repr, c.attributes)))


class PairSweep(Workload):
    """Many short SHORTEST_ONLY runs behind all six metric kinds."""

    name = "pair-sweep"
    TRACED_REQUESTS = 60
    ROUND_S = 28.0
    # twelve graphs rather than a few, so that no single graph's structure
    # sets the figures of a seed; (vertices, edges, target
    # shortest_sweep_cost), the target being the median of each size
    SPARSE = [
        (20, 26, 27291),
        (22, 29, 38866),
        (24, 31, 48822),
        (26, 34, 63195),
        (28, 36, 80773),
        (30, 39, 108953),
        (32, 42, 132947),
        (34, 44, 150720),
        (36, 47, 192590),
        (38, 49, 225237),
        (40, 52, 275359),
        (30, 39, 108953),
    ]
    # shortest-path requests take about 2 ms and aggregates 20-200 ms; with
    # 6 of 7 requests single-pair, the median falls well inside the dense
    # group of single-pair runs, and enough of them are sampled that the
    # spread of their endpoints' distances does not move it
    KINDS = [SP] * 30 + [ECC, CLO, RAD, DIA, BTW]
    UNIVERSE = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sparse = []
        for i, (n, m, target) in enumerate(self.SPARSE):
            g = inputs.pinned(inputs.sparse_graph, self.rng, f"s{i}", n, m, inputs.shortest_sweep_cost, target, 0.03)
            self.graph_inputs[g.name] = g
            self.sparse.append(g.name)
        net = inputs.social_network(self.rng, "net", 12, 60)
        self.graph_inputs["net"] = net
        self.people = tuple(self.rng.sample(net.vertices, 5))
        first = self.graph_inputs["s0"].vertices
        self.add_grammar("any", inputs.unconstrained_spec(first[0], first[1]))
        self.add_grammar("detour", inputs.detour_spec(net.vertices[0], net.vertices[1]))
        self.add_grammar("knows", inputs.knows_spec(net.vertices[0], net.vertices[1]), "triples")

    def pools(self) -> list:
        pools = [(name, "any", self.graph_inputs[name].vertices) for name in self.sparse]
        return pools + [("net", grammar_name, self.people) for grammar_name in ("detour", "knows")]

    def round_size(self) -> int:
        return len(self.pools()) * len(self.KINDS)

    def requests(self, state: State, reloaded):
        # aggregates on the plain graphs draw a fresh universe per request; on
        # the social network the universe stays fixed, so the enumerating
        # oracle sees the same few pairs again and again
        cases = [
            (g, gr, self.oracle(state, g, gr), [vertex(v) for v in names], g == "net")
            for g, gr, names in self.pools()
        ]
        rng = random.Random(f"{self.name}/requests/{self.seed}")
        for case, kind in _cycle(rng, [(case, kind) for case in cases for kind in self.KINDS]):
            graph_name, grammar_name, oracle, pool, fixed = case
            graph, grammar_obj = state.graphs[graph_name], state.grammars[grammar_name]
            if kind in (RAD, DIA, BTW) and not fixed:
                universe = rng.sample(pool, self.UNIVERSE)
            else:
                universe = pool
            source, target = rng.sample(universe, 2)
            yield _metric_request(kind, graph, grammar_obj, oracle, universe, source, target, graph_name)


def _metric_request(kind, graph, grammar_obj, oracle, universe, source, target, where):
    def call():
        return direct_metric(kind, graph, grammar_obj, universe, source, target)

    def check(result):
        return oracle_agrees(result, kind, oracle, universe, source, target)

    return Request(f"{kind.value}@{where}", call, pairs_answered(kind, len(universe)), check, kind is SP)


class AllPaths(Workload):
    """Few ALL_PATHS runs with large frontiers and long trails."""

    name = "all-paths"
    TRACED_REQUESTS = 30
    ROUND_S = 25.0
    # (vertices, edges, target simple_path_total): the median of each size
    # of degree-balanced graph
    DENSE = [
        (10, 20, 19072),
        (10, 21, 26386),
        (11, 22, 39620),
        (11, 23, 55002),
        (12, 23, 54336),
        (12, 24, 81492),
    ]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.dense = []
        for i, (n, m, target) in enumerate(self.DENSE):
            g = inputs.pinned(inputs.balanced_graph, self.rng, f"d{i}", n, m, inputs.simple_path_total, target, 0.03)
            self.graph_inputs[g.name] = g
            self.dense.append(g.name)
        net = inputs.social_network(self.rng, "net", 12, 60)
        self.graph_inputs["net"] = net
        first = self.graph_inputs["d0"].vertices
        self.add_grammar("any", inputs.unconstrained_spec(first[0], first[1]), "triples")
        self.add_grammar("detour", inputs.detour_spec(net.vertices[0], net.vertices[1]))

    def pools(self) -> list:
        pools = [(name, "any", self.graph_inputs[name].vertices) for name in self.dense]
        return pools + [("net", "detour", self.graph_inputs["net"].vertices)]

    def round_size(self) -> int:
        return sum(len(names) for _, _, names in self.pools())

    def requests(self, state: State, reloaded):
        # every vertex of every pool is the source once per round, so a run
        # covers each graph's spread of per-source costs evenly
        cases = [(g, gr, self.oracle(state, g, gr), [vertex(v) for v in names]) for g, gr, names in self.pools()]
        rng = random.Random(f"{self.name}/requests/{self.seed}")
        for (graph_name, grammar_name, oracle, pool), source in _cycle(rng, [(c, v) for c in cases for v in c[3]]):
            graph, grammar_obj = state.graphs[graph_name], state.grammars[grammar_name]
            target = rng.choice([v for v in pool if v != source])
            yield _paths_request(graph, grammar_obj, oracle, source, target, graph_name)


def _paths_request(graph, grammar_obj, oracle, source, target, where):
    def call():
        return engine.run(graph, grammar.rebind_endpoints(grammar_obj, source, target), RunMode.ALL_PATHS)

    return Request(
        f"all-paths@{where}", call, 1, lambda records: oracle.all_paths_agree(records, source, target), True
    )


class StoreRoundtrip(Workload):
    """Metrics answered from an encoded path store, each read checked against the engine."""

    name = "store-roundtrip"
    TRACED_REQUESTS = 16
    ROUND_S = 9.0
    STORE_GRAPHS = 2
    # as in pair-sweep, 75% single-pair reads keep the median off the gap
    KINDS = [SP] * 18 + [ECC, ECC, CLO, RAD, DIA, BTW]
    UNIVERSE = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        first = self.graph_inputs["store0"].vertices
        self.add_grammar("any", inputs.unconstrained_spec(first[0], first[1]))

    def pools(self) -> list:
        return [(name, "any", self.graph_inputs[name].vertices) for name in self.store_graphs]

    def round_size(self) -> int:
        return len(self.pools()) * len(self.KINDS)

    def requests(self, state: State, reloaded):
        # every read takes a fresh universe of stored endpoints; the direct
        # metric it is checked against is memoised per distinct read
        rng = random.Random(f"{self.name}/requests/{self.seed}")
        expected = {}
        grammar_obj = state.grammars["any"]
        for (graph_name, _, names), kind in _cycle(rng, [(p, k) for p in self.pools() for k in self.KINDS]):
            universe = [vertex(v) for v in rng.sample(names, self.UNIVERSE)]
            source, target = universe[:2]
            key = (graph_name, kind, tuple(universe))
            yield _store_request(kind, reloaded, state.graphs[graph_name], grammar_obj, universe, source, target, expected, key)


def _store_request(kind, reloaded, graph, grammar_obj, universe, source, target, expected, key):
    def call():
        return encoding.p_encoded_metric(kind, reloaded, GRAMMAR_ID, universe, source=source, target=target)

    def check(result):
        if key not in expected:
            expected[key] = direct_metric(kind, graph, grammar_obj, universe, source, target)
        return results_agree(result, expected[key])

    return Request(f"store-{kind.value}", call, pairs_answered(kind, len(universe)), check, kind is SP)


WORKLOADS = {w.name: w for w in (PairSweep, AllPaths, StoreRoundtrip)}
