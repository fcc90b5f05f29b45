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
    RDF_NS,
    RDFS_NS,
    RDFS_RESOURCE,
    RESULT_NS,
    XSD_NS,
    Blank,
    Graph,
    Iri,
    Resource,
    expand_name,
    load_ntriples,
    resource_key,
)

ENV_MAX_STEPS = "GEOGRAMS_MAX_STEPS"

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
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(digits)


def _default_max_steps() -> int:
    raw = os.environ.get(ENV_MAX_STEPS, str(DEFAULT_MAX_STEPS))
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{ENV_MAX_STEPS} {exc}") from None


def _add_common(parser, with_grammar=True):
    parser.add_argument(
        "--graph", action="append", required=True, metavar="FILE",
        help="triple file to load; repeatable, files are merged",
    )
    if with_grammar:
        parser.add_argument("--grammar", required=True, metavar="FILE")
        parser.add_argument(
            "--grammar-format", choices=["dsl", "triples"], default=None,
            help="defaults by extension: .nt loads as triples, anything else as DSL",
        )
    parser.add_argument("--max-steps", type=_positive_int, default=None, metavar="N")
    parser.add_argument(
        "--subsumption", choices=["closure", "single-hop"], default="closure"
    )
    parser.add_argument("--output", choices=["json", "text"], default="text")
    parser.add_argument(
        "--threads", type=_positive_int, default=1, metavar="N",
        help="accepted for compatibility; runs are single-threaded",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="geograms", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser("paths", help="print grammar-constrained paths")
    _add_common(p_paths)
    p_paths.add_argument("--mode", choices=["all", "shortest"], default="all")
    p_paths.add_argument("--encode-out", metavar="FILE", default=None)
    p_paths.add_argument("--grammar-id", default="rwrx:grammar_0", metavar="RESOURCE")

    p_metric = sub.add_parser("metric", help="compute one geodesic metric")
    _add_common(p_metric)
    p_metric.add_argument(
        "--metric", required=True,
        choices=[k.value for k in metrics.MetricKind],
    )
    p_metric.add_argument("--vertex", default=None, metavar="RESOURCE")
    p_metric.add_argument(
        "--vertices", action="append", default=None, metavar="RESOURCE",
        help="vertex universe; repeatable; defaults to vertices typed like the entry",
    )

    p_encode = sub.add_parser("encode", help="write encoded walker paths")
    _add_common(p_encode)
    p_encode.add_argument("--out", required=True, metavar="FILE")
    p_encode.add_argument("--grammar-id", default="rwrx:grammar_0", metavar="RESOURCE")
    p_encode.add_argument(
        "--all-pairs", action="store_true",
        help="encode runs for every ordered pair of the vertex universe",
    )
    p_encode.add_argument("--vertices", action="append", default=None, metavar="RESOURCE")

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare unconstrained-grammar distances to the projection BFS",
    )
    _add_common(p_oracle, with_grammar=False)
    p_oracle.add_argument("--vertices", action="append", default=None, metavar="RESOURCE")

    p_validate = sub.add_parser("validate-grammar", help="print grammar violations")
    p_validate.add_argument("--grammar", required=True, metavar="FILE")
    p_validate.add_argument(
        "--grammar-format", choices=["dsl", "triples"], default=None
    )
    p_validate.add_argument("--output", choices=["json", "text"], default="text")
    return parser


# -- loading helpers -----------------------------------------------------------


def _load_graph(args) -> Graph:
    graph = None
    for path in args.graph:
        with open(path, encoding="utf-8") as handle:
            loaded = load_ntriples(handle.read(), subsumption=args.subsumption)
        graph = loaded if graph is None else graph.merge(loaded)
    return graph


def _load_grammar(path: str, fmt: str | None, validate: bool = True) -> Grammar:
    if fmt is None:
        fmt = "triples" if path.endswith(".nt") else "dsl"
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "triples":
        return load_grammar_from_triples(load_ntriples(text), validate=validate)
    return parse_grammar_dsl(text, validate=validate)


def _resolve_token(token: str, graph: Graph) -> Resource:
    # expand_name reads the name, a prefix the graph declares winning over a
    # built-in one; _:id names a blank node, and a bare name with :// is kept
    if token.startswith("_:"):
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


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _write_store(path: str, records: list, grammar_id: Resource) -> Graph:
    """Encode ``records`` under walker ids 0, 1, ... and write the store to ``path``."""
    store = encoding.encode_paths(records, grammar_id, list(range(len(records))))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(store.to_ntriples())
    return store


# -- subcommands ----------------------------------------------------------------


def _cmd_paths(args) -> int:
    graph = _load_graph(args)
    grammar = _load_grammar(args.grammar, args.grammar_format)
    mode = RunMode.ALL_PATHS if args.mode == "all" else RunMode.SHORTEST_ONLY
    started = time.perf_counter()
    records = run(graph, grammar, mode, args.max_steps)
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    ordered = sorted(records, key=PathRecord.key)
    rendered = [r.to_text(graph.compact) for r in ordered]
    if args.encode_out:
        _write_store(args.encode_out, ordered, _resolve_token(args.grammar_id, graph))
    payload = {
        "count": len(ordered),
        "paths": rendered,
        "edge_lengths": [r.edge_length for r in ordered],
        "wall_time_ms": elapsed_ms,
    }
    _emit(args, payload, rendered + [f"count: {len(ordered)}"])
    return 0


def _cmd_metric(args) -> int:
    graph = _load_graph(args)
    grammar = _load_grammar(args.grammar, args.grammar_format)
    kind = metrics.MetricKind(args.metric)
    if kind in metrics.VERTEX_KINDS and not args.vertex:
        raise _UsageError(f"--metric {kind.value} requires --vertex")
    if kind is metrics.MetricKind.SHORTEST_PATH and (args.vertex or args.vertices):
        flag = "--vertex" if args.vertex else "--vertices"
        raise _UsageError(f"--metric shortest-path does not read {flag}; the grammar's entry and exit are the pair")
    if kind not in metrics.VERTEX_KINDS and args.vertex:
        raise _UsageError(f"--metric {kind.value} does not read --vertex; it ranges over the --vertices universe")
    vertex = _vertex(args.vertex, graph) if kind in metrics.VERTEX_KINDS else None
    universe = ()
    if kind is not metrics.MetricKind.SHORTEST_PATH:
        universe = _universe(args, graph, lambda: metrics.default_universe(graph, grammar))

    started = time.perf_counter()
    paths = metrics.WalkerPaths(graph, grammar, args.max_steps)
    result = metrics.fold(kind, paths, universe, vertex)
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))

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
    _emit(args, payload, lines)
    return 0


def _cmd_encode(args) -> int:
    graph = _load_graph(args)
    grammar = _load_grammar(args.grammar, args.grammar_format)
    grammar_id = _resolve_token(args.grammar_id, graph)
    if args.vertices and not args.all_pairs:
        raise _UsageError("--vertices is read only with --all-pairs")

    records = []
    if args.all_pairs:
        universe = _universe(args, graph, lambda: metrics.default_universe(graph, grammar))
        for source in universe:
            for target in universe:
                if source != target:
                    bound = rebind_endpoints(grammar, source, target)
                    records.extend(run(graph, bound, RunMode.ALL_PATHS, args.max_steps))
    else:
        records.extend(run(graph, grammar, RunMode.ALL_PATHS, args.max_steps))

    unique = sorted(set(records), key=PathRecord.key)
    store = _write_store(args.out, unique, grammar_id)
    payload = {"records": len(unique), "triples": len(store), "out": args.out}
    _emit(args, payload, [f"encoded {len(unique)} paths as {len(store)} triples -> {args.out}"])
    return 0


def _cmd_oracle_check(args) -> int:
    graph = _load_graph(args)
    projection = metrics.project_to_unlabeled(graph)
    universe = _universe(args, graph, projection.vertices)

    # one grammar, rebound to each pair as every metric does
    paths = metrics.WalkerPaths(projection, unconstrained_grammar(RDFS_RESOURCE, RDFS_RESOURCE), args.max_steps)
    mismatches = []
    checked = 0
    for source in universe:
        for target in universe:
            if source == target:
                continue
            checked += 1
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
    payload = {"pairs": checked, "mismatches": mismatches}
    lines = [f"pairs checked: {checked}", f"mismatches: {len(mismatches)}"]
    lines += [
        f"  {m['source']} -> {m['target']}: grammar={m['grammar']} oracle={m['oracle']}"
        for m in mismatches
    ]
    _emit(args, payload, lines)
    return 3 if mismatches else 0


def _cmd_validate_grammar(args) -> int:
    grammar = _load_grammar(args.grammar, args.grammar_format, validate=False)
    violations = validate_grammar(grammar)
    payload = {
        "violations": [
            {"severity": v.severity, "context": v.context_id, "message": v.message}
            for v in violations
        ]
    }
    lines = [f"{v.severity} {v.context_id}: {v.message}" for v in violations] or ["ok"]
    _emit(args, payload, lines)
    return 2 if any(v.severity == "error" for v in violations) else 0


_COMMANDS = {
    "paths": _cmd_paths,
    "metric": _cmd_metric,
    "encode": _cmd_encode,
    "oracle-check": _cmd_oracle_check,
    "validate-grammar": _cmd_validate_grammar,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "max_steps" in args and args.max_steps is None:
            args.max_steps = _default_max_steps()
        return _COMMANDS[args.command](args)
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
