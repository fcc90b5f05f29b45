"""Command-line surface: load graphs and grammars, run metrics, encode paths.

Subcommands
-----------
paths             print every (or the shortest) grammar-constrained path
metric            compute one geodesic metric and print a result record
encode            run the grammar and write the encoded paths as triples
oracle-check      compare unconstrained-grammar distances against plain BFS
validate-grammar  print rule violations of a grammar definition

Exit codes: 0 success, 1 usage error, 2 data or grammar error (also a
``--vertex`` or ``--vertices`` name the graph lacks), 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import encoding, metrics
from .engine import DEFAULT_MAX_STEPS, PathRecord, RunMode, run
from .errors import GeogramsError, ValidationError
from .grammar import (
    RWR_NS,
    Grammar,
    load_grammar_from_triples,
    parse_grammar_dsl,
    rebind_endpoints,
    unconstrained_grammar,
    validate_grammar,
)
from .store import (
    BLANK_NODE,
    MAX_DIGITS,
    RDF_NS,
    RDFS_NS,
    RDFS_RESOURCE,
    RESULT_NS,
    XSD_NS,
    Blank,
    Graph,
    Iri,
    Resource,
    SubsumptionMode,
    expand_name,
    load_ntriples,
    resource_key,
)

ENV_MAX_STEPS = "GEOGRAMS_MAX_STEPS"
DEFAULT_GRAMMAR_ID = "rwrx:grammar_0"

BUILTIN_PREFIXES = {
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "rwr": RWR_NS,
    "rwrx": RESULT_NS,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(raw: str) -> int:
    digits = raw.strip()
    if len(digits) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be an integer of at most {MAX_DIGITS} digits, got {len(digits)} characters")
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(digits)


def _default_max_steps() -> int:
    raw = os.environ.get(ENV_MAX_STEPS, str(DEFAULT_MAX_STEPS))
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{ENV_MAX_STEPS} {exc}") from None


# each flag once; a command takes only the flags it reads
_FLAGS = {
    "--graph": dict(action="append", required=True, metavar="FILE",
                    help="triple file to load; repeatable, files are merged"),
    "--grammar": dict(required=True, metavar="FILE"),
    "--grammar-format": dict(choices=["dsl", "triples"],
                             help="defaults by extension: .nt loads as triples, anything else as DSL"),
    "--max-steps": dict(type=_positive_int, metavar="N"),
    "--subsumption": dict(choices=sorted(m.value for m in SubsumptionMode), default=SubsumptionMode.CLOSURE.value),
    "--threads": dict(type=_positive_int, default=1, metavar="N",
                      help="accepted for compatibility; runs are single-threaded"),
    "--mode": dict(choices=sorted(m.value for m in RunMode), default=RunMode.ALL_PATHS.value),
    "--encode-out": dict(metavar="FILE"),
    "--out": dict(required=True, metavar="FILE"),
    "--grammar-id": dict(metavar="RESOURCE", help=f"grammar the encoded paths name; default {DEFAULT_GRAMMAR_ID}"),
    "--metric": dict(required=True, choices=[k.value for k in metrics.MetricKind]),
    "--vertex": dict(metavar="RESOURCE"),
    "--vertices": dict(action="append", metavar="RESOURCE",
                       help="vertex universe; repeatable; defaults to the vertices typed like the grammar's entry, "
                       "or for oracle-check to every vertex of the unlabeled projection"),
    "--all-pairs": dict(action="store_true", help="encode runs for every ordered pair of the vertex universe"),
    "--output": dict(choices=["json", "text"], default="text"),
}
_GRAMMAR = ("--grammar", "--grammar-format")
_RUN = ("--graph", *_GRAMMAR, "--max-steps", "--subsumption", "--output", "--threads")


def build_parser() -> _Parser:
    parser = _Parser(prog="geograms", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, flags in (
        ("paths", _cmd_paths, "print grammar-constrained paths", (*_RUN, "--mode", "--encode-out", "--grammar-id")),
        ("metric", _cmd_metric, "compute one geodesic metric", (*_RUN, "--metric", "--vertex", "--vertices")),
        ("encode", _cmd_encode, "write encoded walker paths",
         (*_RUN, "--out", "--grammar-id", "--all-pairs", "--vertices")),
        # the projection holds no schema triples, so --subsumption would change nothing
        ("oracle-check", _cmd_oracle_check, "compare unconstrained-grammar distances to the projection BFS",
         ("--graph", "--max-steps", "--output", "--threads", "--vertices")),
        ("validate-grammar", _cmd_validate_grammar, "print grammar violations", (*_GRAMMAR, "--output")),
    ):
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


# -- loading helpers -----------------------------------------------------------


def _load_graph(args) -> Graph:
    graph = None
    for path in args.graph:
        with open(path, encoding="utf-8") as handle:
            loaded = load_ntriples(handle.read(), getattr(args, "subsumption", SubsumptionMode.CLOSURE))
        graph = loaded if graph is None else graph.merge(loaded)
    return graph


def _load_grammar(args, validate: bool = True) -> Grammar:
    fmt = args.grammar_format or ("triples" if args.grammar.endswith(".nt") else "dsl")
    with open(args.grammar, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "triples":
        return load_grammar_from_triples(load_ntriples(text), validate=validate)
    return parse_grammar_dsl(text, validate=validate)


def _resolve_token(token: str, graph: Graph) -> Resource:
    # expand_name reads the name, a prefix the graph declares winning over a
    # built-in one; _:id names a blank node, written as the graph files write
    # one, and a bare name with :// is kept
    if token.startswith("_:"):
        if not BLANK_NODE.fullmatch(token):
            raise _UsageError(f"cannot resolve resource {token!r}: malformed blank node")
        return Blank(token[2:])
    bracketed = token.startswith("<") and token.endswith(">")
    name = token[1:-1] if bracketed else token
    iri = expand_name(name, {**BUILTIN_PREFIXES, **graph.prefix_map}, bracketed or "://" in name)
    if not iri:
        why = "unknown prefix" if iri is None else "empty name"
        raise _UsageError(f"cannot resolve resource {token!r}: {why}")
    return Iri(iri)


def _vertex(token: str, graph: Graph) -> Resource:
    """The resource ``token`` names, which must be a vertex of ``graph``."""
    vertex = _resolve_token(token, graph)
    if vertex not in graph.vertices():
        raise ValidationError(f"vertex {token!r} does not occur in the graph")
    return vertex


def _universe(args, graph: Graph, default) -> list:
    """The ``--vertices`` resources, else those ``default()`` gives, in key order."""
    if args.vertices:
        return sorted({_vertex(tok, graph) for tok in args.vertices}, key=resource_key)
    return sorted(default(), key=resource_key)


def _grammar_id(args, graph: Graph) -> Resource:
    return _resolve_token(DEFAULT_GRAMMAR_ID if args.grammar_id is None else args.grammar_id, graph)


def _timed(call):
    """``call()``'s result and the whole milliseconds it took."""
    started = time.perf_counter()
    result = call()
    return result, int(round((time.perf_counter() - started) * 1000))


def _write_store(path: str, records, grammar_id: Resource) -> Graph:
    """Encode ``records`` under walker ids 0, 1, ... and write the store to ``path``."""
    store = encoding.encode_paths(records, grammar_id, list(range(len(records))))
    text = store.to_ntriples()  # before the file opens, so a refused store leaves no file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return store


# -- subcommands: each returns (exit code, JSON payload, text lines) ---------------


def _cmd_paths(args) -> tuple:
    if args.grammar_id is not None and not args.encode_out:
        raise _UsageError("--grammar-id is read only with --encode-out")
    graph = _load_graph(args)
    grammar = _load_grammar(args)
    grammar_id = _grammar_id(args, graph) if args.encode_out else None
    records, elapsed_ms = _timed(lambda: run(graph, grammar, RunMode(args.mode), args.max_steps))
    ordered = sorted(records, key=PathRecord.key)
    rendered = [r.to_text(graph.compact) for r in ordered]
    if args.encode_out:
        _write_store(args.encode_out, ordered, grammar_id)
    payload = {
        "count": len(ordered),
        "paths": rendered,
        "edge_lengths": [r.edge_length for r in ordered],
        "wall_time_ms": elapsed_ms,
    }
    return 0, payload, rendered + [f"count: {len(ordered)}"]


def _cmd_metric(args) -> tuple:
    kind = metrics.MetricKind(args.metric)
    if kind in metrics.VERTEX_KINDS and not args.vertex:
        raise _UsageError(f"--metric {kind.value} requires --vertex")
    if kind is metrics.MetricKind.SHORTEST_PATH and (args.vertex or args.vertices):
        flag = "--vertex" if args.vertex else "--vertices"
        raise _UsageError(f"--metric shortest-path does not read {flag}; the grammar's entry and exit are the pair")
    if kind not in metrics.VERTEX_KINDS and args.vertex:
        raise _UsageError(f"--metric {kind.value} does not read --vertex; it ranges over the --vertices universe")
    graph = _load_graph(args)
    grammar = _load_grammar(args)
    vertex = _vertex(args.vertex, graph) if kind in metrics.VERTEX_KINDS else None
    universe = ()
    if kind is not metrics.MetricKind.SHORTEST_PATH:
        universe = _universe(args, graph, lambda: metrics.default_universe(graph, grammar))
    result, elapsed_ms = _timed(
        lambda: metrics.fold(kind, metrics.WalkerPaths(graph, grammar, args.max_steps), universe, vertex)
    )
    payload = {
        "kind": result.kind.value,
        "value": result.value,
        "defined": result.defined,
        "witness_paths": [r.to_text(graph.compact) for r in result.witness_paths],
        "skipped_targets": result.skipped_targets,
        "wall_time_ms": elapsed_ms,
    }
    lines = [f"{result.kind.value} = {result.value if result.defined else 'undefined'}"]
    lines += [f"witness: {text}" for text in payload["witness_paths"]]
    if result.skipped_targets:
        lines.append(f"skipped targets: {result.skipped_targets}")
    return 0, payload, lines


def _cmd_encode(args) -> tuple:
    if args.vertices and not args.all_pairs:
        raise _UsageError("--vertices is read only with --all-pairs")
    graph = _load_graph(args)
    grammar = _load_grammar(args)
    grammar_id = _grammar_id(args, graph)

    if args.all_pairs:
        universe = _universe(args, graph, lambda: metrics.default_universe(graph, grammar))
        records = set()
        for source, target in metrics.ordered_pairs(universe):
            bound = rebind_endpoints(grammar, source, target)
            records.update(run(graph, bound, RunMode.ALL_PATHS, args.max_steps))
    else:
        records = run(graph, grammar, RunMode.ALL_PATHS, args.max_steps)

    store = _write_store(args.out, records, grammar_id)
    payload = {"records": len(records), "triples": len(store), "out": args.out}
    return 0, payload, [f"encoded {len(records)} paths as {len(store)} triples -> {args.out}"]


def _cmd_oracle_check(args) -> tuple:
    graph = _load_graph(args)
    projection = metrics.project_to_unlabeled(graph)
    universe = _universe(args, graph, projection.vertices)

    # one grammar, rebound to each pair as every metric does
    paths = metrics.WalkerPaths(projection, unconstrained_grammar(RDFS_RESOURCE, RDFS_RESOURCE), args.max_steps)
    pairs = metrics.ordered_pairs(universe)
    mismatches = []
    for source, target in pairs:
        expected = metrics.unlabeled_oracle_geodesics(graph, source, target)
        # a vertex only schema triples mention is in the graph but not the projection
        actual = paths.distance(source, target) if source in projection.vertices() else None
        if actual != expected:
            mismatches.append(
                {
                    "source": graph.compact(source),
                    "target": graph.compact(target),
                    "grammar": actual,
                    "oracle": expected,
                }
            )
    payload = {"pairs": len(pairs), "mismatches": mismatches}
    lines = [f"pairs checked: {len(pairs)}", f"mismatches: {len(mismatches)}"]
    lines += [
        f"  {m['source']} -> {m['target']}: grammar={m['grammar']} oracle={m['oracle']}"
        for m in mismatches
    ]
    return 3 if mismatches else 0, payload, lines


def _cmd_validate_grammar(args) -> tuple:
    grammar = _load_grammar(args, validate=False)
    violations = validate_grammar(grammar)
    payload = {
        "violations": [
            {"severity": v.severity, "context": v.context_id, "message": v.message}
            for v in violations
        ]
    }
    lines = [f"{v.severity} {v.context_id}: {v.message}" for v in violations] or ["ok"]
    return 2 if any(v.severity == "error" for v in violations) else 0, payload, lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as done:  # --help prints and exits through argparse
            return done.code
        if "max_steps" in args and args.max_steps is None:
            args.max_steps = _default_max_steps()
        code, payload, lines = args.func(args)
        print(json.dumps(payload, indent=2) if args.output == "json" else "\n".join(lines))
        return code
    except (OSError, UnicodeDecodeError, GeogramsError) as exc:
        # an unreadable file is bad data; UnicodeDecodeError is also a
        # ValueError, so it is caught before the usage errors are
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
