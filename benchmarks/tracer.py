"""Span tracing from outside the program.

``Tracer.install`` replaces the program's public functions at the names
their callers look them up by (``geograms.metrics.run``,
``geograms.engine.expand``, ``Graph.match``, ...) with wrappers that
record one span per call: name, start, end and the span that caused it.
Spans stay in memory and are written out by ``write_spans``.  Counters
that do not depend on the machine are taken in the same wrappers, at the
boundary where the work happens.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import geograms.encoding as encoding
import geograms.engine as engine
import geograms.grammar as grammar
import geograms.metrics as metrics
import geograms.store as store
from geograms.grammar import Direction

METRIC_FUNCTIONS = ("shortest_path", "eccentricity", "radius", "diameter", "closeness", "betweenness")

# span name -> every (owner, attribute) a caller resolves it through
TARGETS = {
    "store.load_ntriples": [(store, "load_ntriples")],
    "store.Graph.__init__": [(store.Graph, "__init__")],
    "store.Graph.match": [(store.Graph, "match")],
    "store.Graph.to_ntriples": [(store.Graph, "to_ntriples")],
    "grammar.parse_grammar_dsl": [(grammar, "parse_grammar_dsl")],
    "grammar.load_grammar_from_triples": [(grammar, "load_grammar_from_triples")],
    "grammar.rebind_endpoints": [(grammar, "rebind_endpoints"), (metrics, "rebind_endpoints")],
    "engine.run": [(engine, "run"), (metrics, "run")],
    "engine.expand": [(engine, "expand")],
    "engine.legal_edges": [(engine, "legal_edges")],
    "encoding.encode_paths": [(encoding, "encode_paths")],
    "encoding.query_X": [(encoding, "query_X")],
    "encoding.query_Y": [(encoding, "query_Y")],
    "encoding.p_encoded_metric": [(encoding, "p_encoded_metric")],
    **{f"metrics.{name}": [(metrics, name)] for name in METRIC_FUNCTIONS},
}

COUNTERS = (
    "engine.candidates",
    "engine.transitions",
    "engine.walkers",
    "engine.peak_frontier",
    "engine.records",
    "store.triples_indexed",
    "encoding.triples_written",
    "encoding.match_in_query",
    "metrics.requests",
)


class Tracer:
    """Wraps the program's layer functions while installed.

    ``paused`` lets the benchmark call the program for its own checks
    without those calls being recorded.
    """

    def __init__(self, sample_every: int = 0):
        self.paused = False
        self.sample_every = sample_every
        self.samples = []  # (args, kwargs, counter deltas) of every n-th engine.run
        self._originals = {}
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_time = 0.0
        self._stack = []  # open spans: [id, name, child time]
        self._next_id = 0
        self._query_depth = 0
        self._runs_seen = 0
        self._run_mark = None

    # -- installation ----------------------------------------------------------

    def install(self):
        for name, sites in TARGETS.items():
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original)
            for owner, attr in sites:
                self._originals[(owner, attr)] = getattr(owner, attr)
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)
        self._originals.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name, fn):
        # counter hooks are methods named after the span, dots as underscores:
        # _before_engine_run(args, kwargs), _after_engine_run(args, kwargs, result, parent)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if parent is None:
                    self.root_time += duration
                else:
                    parent[2] += duration
                self.spans.append((span_id, name, start, end, parent[0] if parent else -1))
                if after is not None:
                    after(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the layer boundaries ----------------------------------

    def _before_engine_legal_edges(self, args, kwargs):
        graph, _grammar, walker, rule = args[:4]
        here = walker.vertex
        self.counters["engine.candidates"] += sum(
            len(graph.outgoing(here) if spec.direction is Direction.FORWARD else graph.incoming(here))
            for spec in rule.edges
        )

    def _after_engine_legal_edges(self, args, kwargs, result, parent):
        if result is not None:
            self.counters["engine.transitions"] += len(result)

    def _after_engine_expand(self, args, kwargs, result, parent):
        if result is not None:
            (frontier, _finished), _next_id = result
            self.counters["engine.walkers"] += len(frontier)
            self.counters["engine.peak_frontier"] = max(
                self.counters["engine.peak_frontier"], len(frontier)
            )

    def _before_engine_run(self, args, kwargs):
        self.counters["engine.walkers"] += 1  # the seed walker
        self._runs_seen += 1
        self._run_mark = None
        if self.sample_every and self._runs_seen % self.sample_every == 0:
            self._run_mark = (args, kwargs, self.engine_counts())

    def _after_engine_run(self, args, kwargs, result, parent):
        if result is not None:
            self.counters["engine.records"] += len(result)
        mark = self._run_mark
        if mark is not None and mark[0] is args:
            before = mark[2]
            now = self.engine_counts()
            self.samples.append((args, kwargs, tuple(b - a for a, b in zip(before, now))))
        self._run_mark = None

    def engine_counts(self) -> tuple:
        """(candidates, generations) counted so far, for the self-test."""
        return (self.counters["engine.candidates"], self.calls["engine.expand"])

    def _after_store_Graph___init__(self, args, kwargs, result, parent):
        self.counters["store.triples_indexed"] += len(args[0])

    def _before_encoding_query_X(self, args, kwargs):
        self._query_depth += 1

    def _after_encoding_query_X(self, args, kwargs, result, parent):
        self._query_depth -= 1

    _before_encoding_query_Y = _before_encoding_query_X
    _after_encoding_query_Y = _after_encoding_query_X

    def _before_store_Graph_match(self, args, kwargs):
        if self._query_depth:
            self.counters["encoding.match_in_query"] += 1

    def _after_encoding_encode_paths(self, args, kwargs, result, parent):
        if result is not None:
            self.counters["encoding.triples_written"] += len(result)

    def _metric_after(self, args, kwargs, result, parent):
        if parent is None or not parent[1].startswith("metrics."):
            self.counters["metrics.requests"] += 1

    # -- reports -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures from the spans and counters recorded so far."""
        c, calls, total, own = self.counters, self.calls, self.total, self.self_time
        metric_spans = [f"metrics.{name}" for name in METRIC_FUNCTIONS]
        query_calls = calls["encoding.query_X"] + calls["encoding.query_Y"]
        return {
            "engine.legal_edges_calls": (calls["engine.legal_edges"], "count"),
            "engine.legal_edges_s": (total["engine.legal_edges"], "s"),
            "engine.candidates": (c["engine.candidates"], "count"),
            "engine.transitions": (c["engine.transitions"], "count"),
            "engine.admit_ratio": (c["engine.transitions"] / max(c["engine.candidates"], 1), "ratio"),
            "engine.runs": (calls["engine.run"], "count"),
            "engine.generations": (calls["engine.expand"], "count"),
            "engine.run_s": (total["engine.run"], "s"),
            "engine.walkers": (c["engine.walkers"], "count"),
            "engine.peak_frontier": (c["engine.peak_frontier"], "count"),
            "engine.expand_s": (own["engine.expand"], "s"),
            "engine.records": (c["engine.records"], "count"),
            "grammar.rebind_calls": (calls["grammar.rebind_endpoints"], "count"),
            "grammar.rebind_s": (total["grammar.rebind_endpoints"], "s"),
            "grammar.load_s": (
                total["grammar.parse_grammar_dsl"] + total["grammar.load_grammar_from_triples"], "s"
            ),
            "metrics.requests": (c["metrics.requests"], "count"),
            "metrics.fold_s": (sum(own[name] for name in metric_spans), "s"),
            "store.parse_s": (own["store.load_ntriples"], "s"),
            "store.index_s": (total["store.Graph.__init__"], "s"),
            "store.serialize_s": (total["store.Graph.to_ntriples"], "s"),
            "store.triples_indexed": (c["store.triples_indexed"], "count"),
            "store.match_calls": (calls["store.Graph.match"], "count"),
            "store.match_s": (total["store.Graph.match"], "s"),
            "encoding.query_x_calls": (calls["encoding.query_X"], "count"),
            "encoding.query_x_s": (total["encoding.query_X"], "s"),
            "encoding.query_y_calls": (calls["encoding.query_Y"], "count"),
            "encoding.query_y_s": (total["encoding.query_Y"], "s"),
            "encoding.match_per_query": (c["encoding.match_in_query"] / max(query_calls, 1), "count"),
            "encoding.encode_s": (own["encoding.encode_paths"], "s"),
            "encoding.triples_written": (c["encoding.triples_written"], "count"),
        }

    def write_spans(self, path):
        """Write the spans as gzip'd tab-separated lines: id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\n")
            for span in sorted(self.spans):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\n" % span)


for _name in METRIC_FUNCTIONS:
    setattr(Tracer, f"_after_metrics_{_name}", Tracer._metric_after)
