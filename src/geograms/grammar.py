"""Path grammars: contexts, rules, attributes, loaders, and validation.

A grammar is a small network of *contexts*, each an abstract step a walker
may take.  Contexts carry ordered rules (``pathcount`` records a path
segment, ``traverse`` moves the walker) and unordered attributes
(``notever`` forbids all previously seen vertices, ``is n``/``not n`` pin
or forbid the vertex seen ``n`` steps before the one being resolved).

Grammars load from a compact textual DSL or from their triple encoding,
and can be rebound to new endpoint vertices without other changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

from .errors import GrammarLoadError, GrammarRuntimeError, ParseError, ValidationError
from .store import (
    MAX_DIGITS,
    RDFS_RESOURCE,
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Resource,
    expand_name,
    prefix_declaration,
    resource_key,
    split_lines,
)

# Vocabulary for the triple encoding of grammars.  The namespace is a
# package constant; only the term names below are load-bearing.
RWR_NS = "http://www.lanl.gov/rwr#"

RWR_CONTEXT = Iri(RWR_NS + "Context")
RWR_ENTRY_CONTEXT = Iri(RWR_NS + "EntryContext")
RWR_EXIT_CONTEXT = Iri(RWR_NS + "ExitContext")
RWR_FOR_RESOURCE = Iri(RWR_NS + "forResource")
RWR_HAS_RULES = Iri(RWR_NS + "hasRules")
RWR_HAS_ATTRIBUTES = Iri(RWR_NS + "hasAttributes")
RWR_HAS_ATTRIBUTE = Iri(RWR_NS + "hasAttribute")
RWR_PATH_COUNT = Iri(RWR_NS + "PathCount")
RWR_TRAVERSE = Iri(RWR_NS + "Traverse")
RWR_NOT_EVER = Iri(RWR_NS + "NotEver")
RWR_IS = Iri(RWR_NS + "Is")
RWR_NOT = Iri(RWR_NS + "Not")
RWR_STEP = Iri(RWR_NS + "step")
RWR_HAS_EDGE = Iri(RWR_NS + "hasEdge")
RWR_OUT_EDGE = Iri(RWR_NS + "OutEdge")
RWR_IN_EDGE = Iri(RWR_NS + "InEdge")
RWR_HAS_PREDICATE = Iri(RWR_NS + "hasPredicate")
RWR_HAS_OBJECT = Iri(RWR_NS + "hasObject")
RWR_HAS_SUBJECT = Iri(RWR_NS + "hasSubject")


class ContextKind(Enum):
    ENTRY = "entry"
    INTERMEDIATE = "intermediate"
    EXIT = "exit"


class Direction(Enum):
    """Traversal orientation: forward follows a triple, backward opposes it."""

    FORWARD = "+"
    BACKWARD = "-"


@dataclass(frozen=True, slots=True)
class EdgeSpec:
    """One legal hop of a traverse rule, landing in ``far_context``."""

    direction: Direction
    predicate: Iri
    far_context: str


@dataclass(frozen=True, slots=True)
class PathCount:
    """Record the path segment ``step`` time-steps behind the current one."""

    step: int


@dataclass(frozen=True, slots=True)
class Traverse:
    edges: tuple[EdgeSpec, ...]


Rule = PathCount | Traverse


@dataclass(frozen=True, slots=True)
class NotEver:
    pass


@dataclass(frozen=True, slots=True)
class Is:
    step: int


@dataclass(frozen=True, slots=True)
class Not:
    step: int


Attribute = NotEver | Is | Not

# the DSL word of each attribute and of the stepped rule, attributes in the
# order the DSL writer lists them; the validator and the triple loader name
# them by it too
_WORDS = {NotEver: "notever", Is: "is", Not: "not", PathCount: "pathcount"}

# the least step of each stepped rule that names a trail position: is/not
# resolve the vertex not yet reached, pathcount the one the walker stands
# on; the validator and ``_reach_back``, the one runtime check, read it
_LEAST_STEPS = {Is: 1, Not: 1, PathCount: 0}


def _reach_back(length: int, step: int, rule: type, context_id: str) -> int:
    """The trail position ``step`` before position ``length``, the one ``rule`` resolves."""
    if not _LEAST_STEPS[rule] <= step <= length:
        where = "before the start of the path" if step > length else "off the trail"
        raise GrammarRuntimeError(f"{_WORDS[rule]} step {step} reaches {where} at position {length}", context_id)
    return length - step


@dataclass(frozen=True, slots=True)
class GrammarContext:
    id: str
    kind: ContextKind
    for_resource: Resource
    rules: tuple[Rule, ...]
    attributes: frozenset

    @property
    def has_not_ever(self) -> bool:
        return any(isinstance(a, NotEver) for a in self.attributes)

    @property
    def traverse_rule(self) -> Traverse | None:
        for rule in self.rules:
            if isinstance(rule, Traverse):
                return rule
        return None


@dataclass(frozen=True, eq=True)
class Grammar:
    contexts: dict
    entry: str
    exit: str

    @property
    def entry_context(self) -> GrammarContext:
        return self.contexts[self.entry]

    @property
    def exit_context(self) -> GrammarContext:
        return self.contexts[self.exit]


@dataclass(frozen=True, slots=True)
class Violation:
    severity: str  # "error" | "warning"
    context_id: str
    message: str


def rebind_endpoints(grammar: Grammar, source: Resource, sink: Resource) -> Grammar:
    """Copy of ``grammar`` with its entry/exit bound to new vertices."""
    contexts = dict(grammar.contexts)
    contexts[grammar.entry] = replace(contexts[grammar.entry], for_resource=source)
    contexts[grammar.exit] = replace(contexts[grammar.exit], for_resource=sink)
    return Grammar(contexts, grammar.entry, grammar.exit)


# -- validation ---------------------------------------------------------------


def validate_grammar(grammar: Grammar) -> list[Violation]:
    """Every rule violation in ``grammar``; warnings do not block execution."""
    violations = []
    for ctx in grammar.contexts.values():
        is_entry, is_exit = ctx.kind is ContextKind.ENTRY, ctx.kind is ContextKind.EXIT
        traverses = [r for r in ctx.rules if isinstance(r, Traverse)]
        pathcounts = [r for r in ctx.rules if isinstance(r, PathCount)]
        # one row (broken, severity, message) per rule, in report order
        rows = [
            (is_entry and ctx.attributes, "error", "entry context must not carry attributes"),
            (is_entry and not pathcounts, "error", "entry context must carry a pathcount rule"),
            (is_exit and traverses, "error", "exit context must not carry a traverse rule"),
            # a record ends at the trail position the exit's last pathcount
            # names, and a run keeps only the records that end at the sink
            (is_exit and [r.step for r in pathcounts][-1:] != [0], "warning",
             "exit context does not end with pathcount 0, so a record may not end at the sink"),
            (len(traverses) > 1, "error", "context carries more than one traverse rule"),
            (len(traverses) == 1 and not isinstance(ctx.rules[-1], Traverse), "error",
             "traverse must be the last rule of a context"),
        ]
        rows += [
            (edge.far_context not in grammar.contexts, "error",
             f"traverse edge targets undeclared context {edge.far_context!r}")
            for rule in traverses
            for edge in rule.edges
        ]
        stepped = [(item, _LEAST_STEPS[type(item)])
                   for item in (*ctx.attributes, *pathcounts) if type(item) in _LEAST_STEPS]
        rows += [
            (item.step < least, "error", f"{_WORDS[type(item)]} step must be >= {least}, got {item.step}")
            for item, least in stepped
        ]
        violations += [Violation(severity, ctx.id, message) for broken, severity, message in rows if broken]

    violations.extend(_termination_hazards(grammar))
    return violations


def _termination_hazards(grammar: Grammar) -> list[Violation]:
    """One warning, naming the context returned to, per edge back onto the current
    depth-first path through notever-free contexts, searched from each in id order."""
    unguarded = {cid for cid, ctx in grammar.contexts.items() if not ctx.has_not_ever}
    # the far contexts of each first traverse rule, once each, in edge order
    edges = {
        cid: dict.fromkeys(e.far_context for e in (ctx.traverse_rule or Traverse(())).edges if e.far_context in unguarded)
        for cid, ctx in grammar.contexts.items()
        if cid in unguarded
    }
    hazards = []
    on_path, done = set(), set()
    for root in sorted(unguarded):
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, iter(edges[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                on_path.remove(node)
                done.add(node)
            elif nxt in on_path:
                hazards.append(Violation("warning", nxt, "context cycle without a notever attribute may not terminate"))
            elif nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(edges[nxt])))
    return hazards


def _assemble(contexts: list[GrammarContext], validate: bool = True) -> Grammar:
    """Build and (optionally) validate a Grammar from parsed contexts."""
    by_id: dict = {}
    for ctx in contexts:
        if ctx.id in by_id:
            raise GrammarLoadError(f"duplicate context id {ctx.id!r}")
        by_id[ctx.id] = ctx
    ends = {kind: [c.id for c in contexts if c.kind is kind] for kind in (ContextKind.ENTRY, ContextKind.EXIT)}
    for kind, ids in ends.items():
        if len(ids) != 1:
            raise GrammarLoadError(f"grammar must declare exactly one {kind.value} context, found {len(ids)}")
    grammar = Grammar(by_id, ends[ContextKind.ENTRY][0], ends[ContextKind.EXIT][0])
    if validate:
        errors = [v for v in validate_grammar(grammar) if v.severity == "error"]
        if errors:
            detail = "; ".join(f"{v.context_id}: {v.message}" for v in errors)
            raise GrammarLoadError(f"invalid grammar: {detail}", violations=errors)
    return grammar


# -- textual DSL --------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
# a local name written after ``prefix:``; anything else ('#', ',', braces)
# would be cut by the comment, edge or header syntax, so is written as <iri>
_LOCAL_NAME = re.compile(r"[\w.-]*$")


def _strip_comment(line: str) -> str:
    """Drop a trailing line comment; '#' inside <...> is part of the IRI."""
    in_iri = False
    for idx, ch in enumerate(line):
        if ch == "<":
            in_iri = True
        elif ch == ">":
            in_iri = False
        elif ch == "#" and not in_iri:
            return line[:idx]
    return line


_HEADER = re.compile(r"context\s+(\S+)\s+(?:(entry|exit)\s+)?for\s+(\S+)\s*\{\s*$")
_EDGE = re.compile(r"\s*(out|in)\s+(\S+)\s*->\s*(\S+)\s*$")
_NATURAL = re.compile(r"[0-9]+$")
_CLASSES = {word: cls for cls, word in _WORDS.items()}
_DIRECTIONS = {"out": Direction.FORWARD, "in": Direction.BACKWARD}
_DIRECTION_WORDS = {direction: word for word, direction in _DIRECTIONS.items()}


def _dsl_iri(token: str, prefix_map: dict, line_no: int) -> Iri:
    """The IRI a DSL resource token, ``prefix:local`` or ``<iri>``, names."""
    bracketed = token.startswith("<") and token.endswith(">")
    iri = expand_name(token[1:-1] if bracketed else token, prefix_map, bracketed)
    if not iri:
        why = "unknown prefix" if iri is None else "empty name"
        raise ParseError(f"cannot resolve resource {token!r} ({why})", line=line_no)
    return Iri(iri)


def parse_grammar_dsl(text: str, validate: bool = True) -> Grammar:
    """Parse the textual grammar DSL; rule order in the text is execution order.

    One pass reads the numbered lines, so an error names the line being
    read; a context still open at the end names the line after the last.
    """
    lines = split_lines(text)
    prefix_map: dict = {}
    contexts = []
    open_ctx = None  # (id, kind, resource) of the context whose body is being read
    for line_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if open_ctx is None:
            if line.startswith("@prefix"):
                name, namespace = prefix_declaration(line, line_no)
                prefix_map[name] = namespace
                continue
            if not line.startswith("context"):
                raise ParseError(f"expected 'context' or '@prefix', got {line.split()[0]!r}", line=line_no)
            header = _HEADER.match(line)
            if not header:
                raise ParseError(
                    "malformed context header (expected 'context ID [entry|exit] for RESOURCE {')", line=line_no
                )
            ctx_id, kind, resource_tok = header.groups()
            if not _IDENT.match(ctx_id):
                raise ParseError(f"invalid context id {ctx_id!r}", line=line_no)
            # a header names its kind by the kind's value, an intermediate context by none
            open_ctx = (ctx_id, ContextKind(kind or ContextKind.INTERMEDIATE), _dsl_iri(resource_tok, prefix_map, line_no))
            rules: list[Rule] = []
            attributes: set = set()
            continue
        word = line.split(maxsplit=1)[0]
        rest = line[len(word):].strip()
        cls = _CLASSES.get(word)
        if line == "}":
            contexts.append(GrammarContext(*open_ctx, tuple(rules), frozenset(attributes)))
            open_ctx = None
        elif word == "traverse":
            edges = []
            for part in rest.split(","):
                edge = _EDGE.match(part)
                if not edge:
                    raise ParseError(f"malformed traverse edge {part.strip()!r}", line=line_no)
                edges.append(EdgeSpec(_DIRECTIONS[edge[1]], _dsl_iri(edge[2], prefix_map, line_no), edge[3]))
            rules.append(Traverse(tuple(edges)))
        elif cls is None:
            raise ParseError(f"unknown rule or attribute {word!r}", line=line_no)
        elif cls is NotEver:
            if rest:
                raise ParseError("notever takes no argument", line=line_no)
            attributes.add(NotEver())
        elif not _NATURAL.match(rest):
            raise ParseError(f"expected a natural number, got {rest!r}", line=line_no)
        elif len(rest) > MAX_DIGITS:
            raise ParseError(f"{word} step has more than {MAX_DIGITS} digits", line=line_no)
        elif cls is PathCount:
            rules.append(PathCount(int(rest)))
        else:
            attributes.add(cls(int(rest)))
    if open_ctx is not None:
        raise ParseError(f"context {open_ctx[0]!r} is missing its closing brace", line=len(lines) + 1)
    return _assemble(contexts, validate=validate)


def serialize_grammar_dsl(grammar: Grammar, prefix_map: dict | None = None) -> str:
    """Render a grammar as the DSL text ``parse_grammar_dsl`` reads back as it; raise if none."""
    prefix_map = prefix_map or {}

    def res(resource: Resource) -> str:
        if isinstance(resource, Iri):
            # the longest namespace whose local name the parser reads back whole
            for name, ns in sorted(prefix_map.items(), key=lambda item: (-len(item[1]), item[0])):
                local = resource.value[len(ns):]
                if resource.value.startswith(ns) and _LOCAL_NAME.match(local):
                    return f"{name}:{local}"
            return f"<{resource.value}>"
        raise GrammarLoadError(f"cannot serialize non-IRI grammar resource {resource!r}")

    lines = [f"@prefix {name}: <{ns}>" for name, ns in sorted(prefix_map.items())]
    order = [grammar.entry]
    order += sorted(c for c in grammar.contexts if c not in (grammar.entry, grammar.exit))
    order.append(grammar.exit)
    for cid in order:
        ctx = grammar.contexts[cid]
        kind = "" if ctx.kind is ContextKind.INTERMEDIATE else f"{ctx.kind.value} "
        lines.append(f"context {ctx.id} {kind}for {res(ctx.for_resource)} {{")
        # by the table's order of kinds, then by step
        for attr in sorted(ctx.attributes, key=lambda a: (list(_WORDS).index(type(a)), getattr(a, "step", 0))):
            word = _WORDS[type(attr)]
            lines.append(f"  {word}" if isinstance(attr, NotEver) else f"  {word} {attr.step}")
        for rule in ctx.rules:
            if isinstance(rule, PathCount):
                lines.append(f"  {_WORDS[PathCount]} {rule.step}")
            else:
                edges = ", ".join(
                    f"{_DIRECTION_WORDS[e.direction]} {res(e.predicate)} -> {e.far_context}" for e in rule.edges
                )
                lines.append(f"  traverse {edges}")
        lines.append("}")
    # the DSL has no escapes, so an IRI the reader would cut or expand makes
    # text that reads back differently; the reader is the one judge of that
    text = "\n".join(lines) + "\n"
    try:
        same = parse_grammar_dsl(text, validate=False) == grammar
    except ParseError as exc:
        raise GrammarLoadError(f"cannot write the grammar as DSL text, which would not parse: {exc}") from None
    if not same:
        raise GrammarLoadError("cannot write the grammar as DSL text, which would read back as another grammar")
    return text


# -- triple encoding ----------------------------------------------------------


def _local_name(resource: Resource) -> str:
    """A context node's id; the node is a triple subject, so an IRI or a blank node."""
    if isinstance(resource, Iri):
        value = resource.value
        for sep in ("#", "/"):
            if sep in value:
                return value.rsplit(sep, 1)[1]
        return value
    return resource.local_id


def _single_object(graph: Graph, subject: Resource, predicate: Iri, what: str) -> Resource:
    found = graph.match((subject, predicate, None))
    if len(found) != 1:
        raise GrammarLoadError(
            f"{what}: expected exactly one {predicate.value!r} on {subject!r}, found {len(found)}"
        )
    return next(iter(found)).object


# the lexical form of xsd:integer: an optional sign, then ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _step_of(graph: Graph, node: Resource, what: str) -> int:
    value = _single_object(graph, node, RWR_STEP, what)
    if not isinstance(value, Literal):
        raise GrammarLoadError(f"{what}: step of {node!r} must be a literal")
    if not _INTEGER.fullmatch(value.lexical):
        raise GrammarLoadError(f"{what}: step {value.lexical!r} is not an integer")
    if len(value.lexical.lstrip("+-")) > MAX_DIGITS:
        raise GrammarLoadError(f"{what}: step of {node!r} has more than {MAX_DIGITS} digits")
    return int(value.lexical)


# what each rwr: type names: a context's kind, a rule's or an attribute's
# class, an edge's (direction, far-context property); a node carrying two
# of a table's types reads as the first
_CONTEXT_TYPES = {RWR_ENTRY_CONTEXT: ContextKind.ENTRY, RWR_EXIT_CONTEXT: ContextKind.EXIT, RWR_CONTEXT: ContextKind.INTERMEDIATE}
_RULE_TYPES = {RWR_PATH_COUNT: PathCount, RWR_TRAVERSE: Traverse}
_ATTRIBUTE_TYPES = {RWR_NOT_EVER: NotEver, RWR_IS: Is, RWR_NOT: Not}
_EDGE_TYPES = {RWR_OUT_EDGE: (Direction.FORWARD, RWR_HAS_OBJECT), RWR_IN_EDGE: (Direction.BACKWARD, RWR_HAS_SUBJECT)}


def _typed(graph: Graph, node: Resource, table: dict, untyped: str):
    """The value of the first ``table`` key among ``node``'s ``rdf:type``s; ``GrammarLoadError(untyped)`` if none."""
    types = {t.object for t in graph.match((node, RDF_TYPE, None))}
    for type_iri, value in table.items():
        if type_iri in types:
            return value
    raise GrammarLoadError(untyped)


def load_grammar_from_triples(graph: Graph, validate: bool = True) -> Grammar:
    """Assemble a grammar from its triple encoding.

    Rule order comes from a context's one rule sequence, read by
    ``Graph.sequence``: its ``rdf:_k`` indexes must run 1..n, each once.
    A traverse rule's edges are put in edge-node IRI order, which breaks
    the specificity ties of ``legal_edges``.
    """
    nodes: dict = {}
    for type_iri, kind in _CONTEXT_TYPES.items():
        for t in graph.match((None, RDF_TYPE, type_iri)):
            nodes.setdefault(t.subject, kind)
    if not nodes:
        raise GrammarLoadError("no context resources found in grammar graph")

    node_ids = {node: _local_name(node) for node in nodes}
    contexts = []
    for node in sorted(nodes, key=resource_key):
        kind = nodes[node]
        ctx_id = node_ids[node]
        for_resource = _single_object(graph, node, RWR_FOR_RESOURCE, f"context {ctx_id}")

        sequences = graph.match((node, RWR_HAS_RULES, None))
        if len(sequences) > 1:
            raise GrammarLoadError(f"context {ctx_id} has {len(sequences)} rule sequences, at most one allowed")
        rules: list[Rule] = []
        for seq_triple in sequences:
            try:
                rule_nodes = graph.sequence(seq_triple.object)
            except ValidationError as exc:
                raise GrammarLoadError(f"rules of context {ctx_id}: {exc}") from None
            rules.extend(_load_rule(graph, rule_node, node_ids, ctx_id) for rule_node in rule_nodes)

        attributes = set()
        # bags and their attributes in resource order, so the first fault named does not follow the hash seed
        for bag in sorted((t.object for t in graph.match((node, RWR_HAS_ATTRIBUTES, None))), key=resource_key):
            for attribute in sorted((t.object for t in graph.match((bag, RWR_HAS_ATTRIBUTE, None))), key=resource_key):
                attributes.add(_load_attribute(graph, attribute, ctx_id))

        contexts.append(
            GrammarContext(ctx_id, kind, for_resource, tuple(rules), frozenset(attributes))
        )
    return _assemble(contexts, validate=validate)


def _load_rule(graph: Graph, node: Resource, node_ids: dict, ctx_id: str) -> Rule:
    if _typed(graph, node, _RULE_TYPES, f"rule {node!r} of {ctx_id} has no recognized type") is PathCount:
        return PathCount(_step_of(graph, node, f"{_WORDS[PathCount]} rule of {ctx_id}"))
    edges = []
    for edge_node in sorted((t.object for t in graph.match((node, RWR_HAS_EDGE, None))), key=resource_key):
        direction, far_prop = _typed(graph, edge_node, _EDGE_TYPES, f"edge {edge_node!r} of {ctx_id} has no in/out typing")
        predicate = _single_object(graph, edge_node, RWR_HAS_PREDICATE, f"edge of {ctx_id}")
        if not isinstance(predicate, Iri):
            raise GrammarLoadError(f"edge predicate of {ctx_id} must be an IRI")
        far_node = _single_object(graph, edge_node, far_prop, f"edge of {ctx_id}")
        if far_node not in node_ids:
            raise GrammarLoadError(
                f"edge of {ctx_id} targets {far_node!r}, which is not a declared context"
            )
        edges.append(EdgeSpec(direction, predicate, node_ids[far_node]))
    if not edges:
        raise GrammarLoadError(f"traverse rule of {ctx_id} carries no edges")
    return Traverse(tuple(edges))


def _load_attribute(graph: Graph, node: Resource, ctx_id: str) -> Attribute:
    cls = _typed(graph, node, _ATTRIBUTE_TYPES, f"attribute {node!r} of {ctx_id} has no recognized type")
    if cls is NotEver:
        return NotEver()
    return cls(_step_of(graph, node, f"{_WORDS[cls]} attribute of {ctx_id}"))


# -- ready-made shapes ---------------------------------------------------------


def unconstrained_grammar(source: Resource, sink: Resource) -> Grammar:
    """Grammar that simulates geodesics on the undirected, unlabeled view.

    Every context resolves to any vertex (``rdfs:Resource``), every edge
    label matches, and both edge directions are open; non-recurrence comes
    from the hub context's notever attribute.  The view is exact only when
    no vertex is typed by the sink: the sink context also admits its
    instances, so a walker stepping onto one retires there without a record.
    """
    def both_ways(targets):
        return tuple(
            EdgeSpec(direction, RDFS_RESOURCE, target)
            for target in targets
            for direction in (Direction.FORWARD, Direction.BACKWARD)
        )

    hub_edges = both_ways(["hop", "sink"])
    contexts = [
        GrammarContext(
            "source",
            ContextKind.ENTRY,
            source,
            (PathCount(0), Traverse(hub_edges)),
            frozenset(),
        ),
        GrammarContext(
            "hop",
            ContextKind.INTERMEDIATE,
            RDFS_RESOURCE,
            (PathCount(0), Traverse(hub_edges)),
            frozenset({NotEver()}),
        ),
        GrammarContext("sink", ContextKind.EXIT, sink, (PathCount(0),), frozenset()),
    ]
    return _assemble(contexts)
