"""In-memory semantic network: triples, pattern matching, subsumption.

The store keeps a directed, edge-labeled multigraph as a set of
``<subject, predicate, object>`` triples with two lookup indexes, by
subject and by object.  A graph's triples and indexes never change after
construction.  Anything else computed from them is kept in one memo,
``Graph.derived``: each entry is built on first use, and threads that
race on an entry all get the first one stored, so any number of threads
may share a graph.

``Graph.sequence`` is the only reader of ordered members, a node's
``rdf:_1`` ... ``rdf:_n`` triples; RDF puts no condition on their indexes,
so it checks that they run 1..n, each once.  ``membership`` writes each
``rdf:_k`` and ``membership_index`` reads k back.  ``expand_name`` is the
one rule for written names, in graph files, DSL text and CLI arguments.

Subsumption checks run either against the transitive closure of
``rdfs:subClassOf`` / ``rdfs:subPropertyOf`` (the default), built into
the memo by the first such check, or against single direct triples,
selectable via ``SubsumptionMode`` so both readings of the traversal
rules are testable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional

from .errors import ParseError, ValidationError

# Namespaces the package needs to know about.
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
# Namespace for resources this package mints (projection edges, stored paths).
RESULT_NS = "http://www.lanl.gov/rwrx#"

XSD_STRING = XSD_NS + "string"

# k in ASCII digits only, as counts and steps are read
_MEMBERSHIP = re.compile(re.escape(RDF_NS) + r"_([0-9]+)")
# the most digits a count, a step or an rdf:_k index may have: int() refuses
# more by default from Python 3.11 on, so the readers refuse them on every version
MAX_DIGITS = 4300


@dataclass(frozen=True, slots=True)
class Iri:
    """A fully expanded IRI; prefix resolution happens at parse time."""

    value: str

    def __init__(self, value: str):
        if not value:
            raise ValidationError("IRI value must be non-empty")
        _set_iri_value(self, value)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"<{self.value}>"


# A frozen dataclass's generated ``__init__`` sets each field through
# ``object.__setattr__``; the hand-written ones below store through the slot
# descriptors, which is cheaper per term and per triple, the unit of every
# graph load and store write.
_set_iri_value = Iri.__dict__["value"].__set__


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal value: lexical form plus a datatype IRI tag."""

    lexical: str
    datatype: str = XSD_STRING

    def __repr__(self):
        return f'"{self.lexical}"^^<{self.datatype}>'


@dataclass(frozen=True, slots=True)
class Blank:
    """A blank node; an opaque identifier with graph-local scope."""

    local_id: str

    def __repr__(self):
        return f"_:{self.local_id}"


Resource = Iri | Literal | Blank

RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = Iri(RDFS_NS + "subPropertyOf")
# Base type of every resource: matches any vertex as a type and any edge
# label as a predicate, which is what makes unconstrained grammars possible.
RDFS_RESOURCE = Iri(RDFS_NS + "Resource")

# a blank node as graph text writes it, the one form the readers take
BLANK_NODE = re.compile(r"_:[\w-]+")

_EMPTY: frozenset = frozenset()
_first = itemgetter(0)
# predicates whose triples feed the subsumption closures
_SCHEMA_PREDICATES = frozenset(p.value for p in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF))


def resource_key(resource: Resource) -> tuple:
    """Total ordering over resources, used wherever determinism matters."""
    if isinstance(resource, Iri):
        return (0, resource.value, "")
    if isinstance(resource, Blank):
        return (1, resource.local_id, "")
    return (2, resource.lexical, resource.datatype)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Resource
    predicate: Resource
    object: Resource
    # computed once: every index of a graph hashes each triple again
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, subject: Resource, predicate: Resource, object: Resource):
        if isinstance(subject, Literal):
            raise ValidationError("literal in subject position")
        if not isinstance(predicate, Iri):
            raise ValidationError("predicate must be an IRI")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        _set_hash(self, hash((subject, predicate, object)))

    def __hash__(self):
        return self._hash


_set_subject, _set_predicate, _set_object, _set_hash = (
    Triple.__dict__[name].__set__ for name in ("subject", "predicate", "object", "_hash")
)


def membership(index: int) -> Iri:
    """The ``rdf:_k`` container membership property for k = ``index``."""
    return Iri(f"{RDF_NS}_{index}")


def membership_index(predicate: Iri) -> int | None:
    """The k of an ``rdf:_k`` container membership property, else None; ``ValidationError`` past ``MAX_DIGITS``."""
    m = _MEMBERSHIP.fullmatch(predicate.value)
    if m and len(m.group(1)) > MAX_DIGITS:
        raise ValidationError(f"rdf:_k index has more than {MAX_DIGITS} digits")
    return int(m.group(1)) if m else None


def triple_key(triple: Triple) -> tuple:
    return (
        resource_key(triple.subject),
        resource_key(triple.predicate),
        resource_key(triple.object),
    )


class SubsumptionMode(str, Enum):
    """How subClassOf/subPropertyOf are honored by the subsumption checks."""

    CLOSURE = "closure"
    SINGLE_HOP = "single-hop"


def _reachability(direct: dict) -> dict:
    """Per-node set of nodes reachable through one or more direct edges."""
    closure = {}
    for start in direct:
        seen = set()
        stack = list(direct[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(direct.get(node, ()))
        closure[start] = frozenset(seen)
    return closure


def _closures(graph: "Graph") -> tuple:
    """(subproperty closure, type closure) of the graph's schema triples.

    Per resource, every property it is below, and every type it has
    directly or through a chain of ``rdfs:subClassOf``.
    """
    schema = [t for t in graph.triples if t.predicate.value in _SCHEMA_PREDICATES]
    subprop: dict = {}
    subclass: dict = {}
    for t in schema:
        if t.predicate == RDFS_SUBPROPERTYOF and isinstance(t.object, Iri):
            subprop.setdefault(t.subject, set()).add(t.object)
        elif t.predicate == RDFS_SUBCLASSOF:
            subclass.setdefault(t.subject, set()).add(t.object)
    subclass_closure = _reachability(subclass)
    type_closure: dict = {}
    for t in schema:
        if t.predicate == RDF_TYPE:
            types = type_closure.setdefault(t.subject, set())
            types.add(t.object)
            types.update(subclass_closure.get(t.object, _EMPTY))
    return _reachability(subprop), {k: frozenset(v) for k, v in type_closure.items()}


class Graph:
    """An indexed triple set whose triples never change.

    Duplicate triples collapse (set semantics).  Both lookup indexes are
    built once in the constructor and no mutating methods exist; whatever
    else is computed from the triples goes through ``derived``, so
    instances stay safe to share between threads.
    """

    __slots__ = ("_triples", "prefix_map", "subsumption", "_by_subject", "_by_object", "_vertices", "_derived")

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        prefix_map: Optional[Mapping[str, str]] = None,
        subsumption: SubsumptionMode | str = SubsumptionMode.CLOSURE,
    ):
        self._triples = frozenset(triples)
        self.prefix_map = dict(prefix_map or {})
        self.subsumption = SubsumptionMode(subsumption)

        # a list per key, opened by the key's first triple: the triples are
        # distinct, and a list takes a triple without hashing it
        by_subject: dict = {}
        by_object: dict = {}
        for t in self._triples:
            bucket = by_subject.get(t.subject)
            if bucket is None:
                by_subject[t.subject] = [t]
            else:
                bucket.append(t)
            bucket = by_object.get(t.object)
            if bucket is None:
                by_object[t.object] = [t]
            else:
                bucket.append(t)
        for index in (by_subject, by_object):
            for key, bucket in index.items():
                index[key] = frozenset(bucket)
        self._by_subject = by_subject
        self._by_object = by_object
        # sets built from dicts reuse the hashes the dicts stored
        vertices = set(by_subject)
        vertices.update(by_object)
        self._vertices = frozenset(vertices)
        self._derived = {}

    def derived(self, key, build: Callable[["Graph"], object]):
        """What ``build(self)`` returns, built on the first call for ``key`` and kept.

        ``key`` names what is derived, and must say everything ``build``
        depends on besides the graph.  Threads that race on a key may each
        build it, but all of them get the first value stored.
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, build(self))

    # -- basic access -------------------------------------------------------

    @property
    def triples(self) -> frozenset:
        return self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self):
        return hash(self._triples)

    def vertices(self) -> frozenset:
        """Every resource occurring in subject or object position."""
        return self._vertices

    def outgoing(self, vertex: Resource) -> frozenset:
        return self._by_subject.get(vertex, _EMPTY)

    def incoming(self, vertex: Resource) -> frozenset:
        return self._by_object.get(vertex, _EMPTY)

    def match(self, pattern: tuple) -> frozenset:
        """All triples agreeing with ``pattern`` on every bound position.

        ``pattern`` is a ``(subject, predicate, object)`` tuple where ``None``
        marks an unbound position.  A bound subject is answered from the
        subject index, else a bound object from the object index, filtered
        by whatever else is bound; a predicate bound alone falls back to a
        scan.
        """
        s, p, o = pattern
        if s is not None:
            base = self._by_subject.get(s, _EMPTY)
        elif o is not None:
            base = self._by_object.get(o, _EMPTY)
        else:
            base = self._triples
        if p is None and (s is None or o is None):
            return base
        return frozenset(
            t for t in base if (p is None or t.predicate == p) and (o is None or t.object == o)
        )

    def sequence(self, node: Resource) -> list:
        """The objects of ``node``'s ``rdf:_1`` ... ``rdf:_n`` triples, in index order.

        Raises ``ValidationError`` unless the indexes are exactly 1..n, each
        once, whatever order the triples are stored in.
        """
        members = [(membership_index(t.predicate), t.object) for t in self.outgoing(node)]
        members = sorted((m for m in members if m[0] is not None), key=lambda m: m[0])
        indexes = [index for index, _ in members]
        if indexes != list(range(1, len(indexes) + 1)):
            raise ValidationError(
                f"sequence {node!r} must hold rdf:_1 ... rdf:_n once each, holds rdf:_k for k in {indexes}"
            )
        return [member for _, member in members]

    # -- subsumption --------------------------------------------------------

    def is_subproperty_or_equal(self, predicate: Iri, wanted: Iri) -> bool:
        """True when ``predicate`` equals ``wanted`` or is subsumed by it."""
        if predicate == wanted or wanted == RDFS_RESOURCE:
            return True
        if self.subsumption is SubsumptionMode.CLOSURE:
            return wanted in self.derived(_closures, _closures)[0].get(predicate, _EMPTY)
        return Triple(predicate, RDFS_SUBPROPERTYOF, wanted) in self._triples

    def has_type_or_equal(self, resource: Resource, wanted: Resource) -> bool:
        """True when ``resource`` is ``wanted`` itself or typed by it."""
        if resource == wanted or wanted == RDFS_RESOURCE:
            return True
        if self.subsumption is SubsumptionMode.CLOSURE:
            return wanted in self.derived(_closures, _closures)[1].get(resource, _EMPTY)
        if isinstance(resource, Literal):
            return False
        return Triple(resource, RDF_TYPE, wanted) in self._triples

    # -- construction helpers ------------------------------------------------

    def merge(self, other: "Graph") -> "Graph":
        """Union of two graphs; prefixes from ``other`` win on collision."""
        prefixes = dict(self.prefix_map)
        prefixes.update(other.prefix_map)
        return Graph(self._triples | other._triples, prefixes, self.subsumption)

    def to_ntriples(self) -> str:
        """Serialize back to the line format accepted by ``load_ntriples``.

        Raises ``ValidationError`` for a prefix map entry or a term whose
        written text would not read back as it.
        """
        prefix_map = self.prefix_map
        lines = [_prefix_line(name, ns) for name, ns in sorted(prefix_map.items())]
        # each distinct term's resource_key and text, computed once per call
        # (a piece is a non-empty tuple, never falsy); a line sorts on its
        # terms' keys laid end to end, which is the order of triple_key
        pieces: dict = {}
        rows = []
        try:
            for t in self._triples:
                s, p, o = t.subject, t.predicate, t.object
                ks, ts = pieces.get(s) or pieces.setdefault(s, (resource_key(s), _term_text(s, prefix_map)))
                kp, tp = pieces.get(p) or pieces.setdefault(p, (resource_key(p), _term_text(p, prefix_map)))
                ko, to = pieces.get(o) or pieces.setdefault(o, (resource_key(o), _term_text(o, prefix_map)))
                rows.append((ks + kp + ko, f"{ts} {tp} {to} ."))
        except ValidationError:
            # the set order varies with the hash seed: name the least refused
            # term in triple_key order, so one graph gives one message
            for t in sorted(self._triples, key=triple_key):
                for term in (t.subject, t.predicate, t.object):
                    _term_text(term, prefix_map)
            raise
        rows.sort(key=_first)
        lines.extend(line for _, line in rows)
        return "\n".join(lines) + ("\n" if lines else "")

    def compact(self, resource: Resource) -> str:
        """Human-readable form of a resource, shortened via known prefixes."""
        if isinstance(resource, Iri):
            best = None
            for name, ns in self.prefix_map.items():
                if resource.value.startswith(ns) and (best is None or len(ns) > len(best[1])):
                    best = (name, ns)
            if best is not None:
                return f"{best[0]}:{resource.value[len(best[1]):]}"
            return resource.value
        if isinstance(resource, Blank):
            return f"_:{resource.local_id}"
        return f'"{resource.lexical}"'


# -- serialization helpers ---------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in text)


def _prefix_line(name: str, namespace: str) -> str:
    """The ``@prefix`` line of a prefix map entry; ``ValidationError`` unless it reads back as the entry."""
    line = f"@prefix {name}: <{namespace}> ."
    try:
        same = "\n" not in line and "\r" not in line and prefix_declaration(line, 1) == (name, namespace)
    except ParseError:
        same = False
    if not same:
        raise ValidationError(f"cannot write prefix {name!r} for {namespace!r}: its @prefix line does not read back")
    return line


def _term_text(resource: Resource, prefix_map: Optional[Mapping[str, str]] = None) -> str:
    """The term as ``to_ntriples`` writes it after the prefixes of ``prefix_map``.

    ``ValidationError`` for a term that would not read back.  The reader
    has no IRI escape, so it cannot read back an IRI, datatype included,
    that is empty or holds '>' or a line end, or that starts with a name
    ``prefix_map`` declares, which it expands even inside brackets; nor a
    blank label outside ``[\\w-]+``.
    """
    if isinstance(resource, Iri):
        return f"<{_iri_text(resource.value, resource, prefix_map)}>"
    if isinstance(resource, Blank):
        text = f"_:{resource.local_id}"
        if not BLANK_NODE.fullmatch(text):
            raise ValidationError(f"cannot write term {text!r}: a blank label reads back only as [\\w-]+")
        return text
    if resource.datatype == XSD_STRING:
        return f'"{_escape(resource.lexical)}"'
    return f'"{_escape(resource.lexical)}"^^<{_iri_text(resource.datatype, resource, prefix_map)}>'


def _iri_text(value: str, term: Resource, prefix_map: Optional[Mapping[str, str]]) -> str:
    """``value``, the text of an IRI of ``term``, unless no reader gives it back."""
    if not value or ">" in value or "\n" in value or "\r" in value:
        raise ValidationError(
            f"cannot write term {repr(term)!r}: an IRI that is empty or holds '>' or a line end does not read back"
        )
    expanded = expand_name(value, prefix_map, True) if prefix_map else value
    if expanded != value:
        raise ValidationError(f"cannot write term {repr(term)!r}: a declared prefix reads it back as <{expanded}>")
    return value


# -- parsing -----------------------------------------------------------------


# The four kinds of term token.  A word is everything up to the next space
# or tab, dots included.
_IRI = r"<[^>]*>"
_BLANK = BLANK_NODE.pattern
_LITERAL_BODY = r'(?:[^"\\]|\\[\\"nrt])*'
_LITERAL = rf'"{_LITERAL_BODY}"'
_WORD = r'(?!_:)[^ \t<".][^ \t]*'
# One token after spaces and tabs; ``typed`` marks a literal's ``^^``,
# whose datatype is the token after it.  A position where no token
# matches holds a malformed IRI, blank node or literal, which
# ``_token_error`` names.
_TOKEN = re.compile(
    rf"[ \t]*(?:(?P<iri>{_IRI})|(?P<blank>{_BLANK})|(?P<literal>{_LITERAL})(?P<typed>\^\^)?"
    rf"|(?P<dot>\.)|(?P<word>{_WORD}))"
)
# The common statement line, read by one match: three terms apart from
# each other, the object an IRI, blank node, word or plain literal with no
# escape, then '.'.  The lookahead ends a word only at a space or tab, so the
# match cannot cut ``ex:c.`` into a word and the final '.'.  Any other line
# (glued terms, typed or escaped literals, every malformed line) goes to
# ``_tokenized_statement``; where this pattern matches, the tokens it reads
# are exactly the ones ``_token`` reads.
_TERM = rf"{_IRI}|{_BLANK}|{_WORD}(?![^ \t])"
_STATEMENT = re.compile(rf'({_TERM})[ \t]+({_TERM})[ \t]+({_TERM}|"[^"\\]*")[ \t]*\.')
_SPACE = re.compile(r"[ \t]*")
_ESCAPE = re.compile(r"\\(.)")
_LITERAL_PREFIX = re.compile(_LITERAL_BODY)


def _token(text: str, pos: int, line_no: int) -> tuple:
    """The token at ``pos``: (kind, value, end), kind in iri|blank|literal|word|dot.

    A literal's value is (lexical form, datatype token or None), the
    datatype token being (kind, value).
    """
    m = _TOKEN.match(text, pos)
    if m is None:
        raise _token_error(text, pos, line_no)
    kind = m.lastgroup
    token = m.group(kind)
    if kind == "iri":
        return kind, token[1:-1], m.end()
    if kind == "blank":
        return kind, token[2:], m.end()
    if kind == "literal" or kind == "typed":
        lexical = m.group("literal")[1:-1]
        if "\\" in lexical:
            lexical = _ESCAPE.sub(lambda e: _UNESCAPES[e.group(1)], lexical)
        end = m.end()
        datatype = None
        if kind == "typed":
            dkind, dvalue, end = _token(text, end, line_no)
            if dkind not in ("iri", "word"):
                raise ParseError("expected datatype IRI after ^^", line=line_no, column=end + 1)
            datatype = (dkind, dvalue)
        return "literal", (lexical, datatype), end
    return kind, token, m.end()


def _token_error(text: str, pos: int, line_no: int) -> ParseError:
    """Why no token starts at ``pos``."""
    pos = _SPACE.match(text, pos).end()
    message = "unexpected end of line"
    if pos < len(text):
        c = text[pos]
        if c == "<":
            message = "unterminated IRI"
        elif c == "_":
            message = "empty blank node label"
        else:  # a literal whose body stops short of its closing quote
            end = _LITERAL_PREFIX.match(text, pos + 1).end()
            if end >= len(text):
                message = "unterminated literal"
            elif end + 1 >= len(text):
                message = "dangling escape in literal"
            else:
                message = f"unknown escape \\{text[end + 1]}"
    return ParseError(message, line=line_no, column=pos + 1)


def expand_name(raw: str, prefix_map: Mapping[str, str], bracketed: bool) -> str | None:
    """The IRI the name ``raw``, written with angle brackets if ``bracketed``, stands for.

    A declared prefix expands, even inside brackets; any other bracketed
    name is taken as written, and a bare one gives None.
    """
    head, sep, local = raw.partition(":")
    if sep and head in prefix_map:
        return prefix_map[head] + local
    return raw if bracketed else None


def _term(kind: str, value, prefix_map: dict, line_no: int, end: int) -> Resource:
    """The term of a token read up to column ``end``."""
    if kind == "blank":
        return Blank(value)
    lexical = None
    if kind == "literal":
        lexical, datatype = value
        if datatype is None:
            return Literal(lexical)
        kind, value = datatype
    iri = expand_name(value, prefix_map, kind == "iri")
    if iri is None:
        head = value.partition(":")[0]
        raise ParseError(f"unknown prefix {head!r} in {value!r}", line=line_no, column=end + 1)
    if not iri:
        raise ParseError("empty name", line=line_no, column=end + 1)
    return Iri(iri) if lexical is None else Literal(lexical, iri)


def prefix_declaration(line: str, line_no: int) -> tuple:
    """(name, namespace) of a ``@prefix name: <ns> .`` line, in graph files and DSL text alike."""
    kind, name, end = _token(line, len("@prefix"), line_no)
    if kind != "word" or not name.endswith(":"):
        raise ParseError("@prefix expects a name ending in ':'", line=line_no, column=end + 1)
    kind, namespace, end = _token(line, end, line_no)
    if kind != "iri":
        raise ParseError("@prefix expects a <namespace>", line=line_no, column=end + 1)
    rest = _SPACE.match(line, end).end()
    if rest < len(line):
        kind, _, end = _token(line, end, line_no)
        if kind != "dot":
            raise ParseError("unexpected text after @prefix declaration", line=line_no, column=end + 1)
        rest = _SPACE.match(line, end).end()
        if rest < len(line):
            raise ParseError("unexpected text after @prefix declaration", line=line_no, column=rest + 1)
    return name[:-1], namespace


def _matched_term(statement: re.Match, group: int, prefix_map: dict, terms: dict, line_no: int) -> Resource:
    """The term of token ``group`` of a ``_STATEMENT`` match, stored in ``terms``.

    The four kinds of token start with different characters, and a matched
    literal holds no escape and no datatype, so the token's first characters
    say what ``_token`` would read.
    """
    token = statement.group(group)
    if token[0] == "<":
        kind, value = "iri", token[1:-1]
    elif token[0] == '"':
        kind, value = "literal", (token[1:-1], None)
    elif token.startswith("_:"):
        kind, value = "blank", token[2:]
    else:
        kind, value = "word", token
    term = terms[token] = _term(kind, value, prefix_map, line_no, statement.end(group))
    return term


def _tokenized_statement(line: str, line_no: int, prefix_map: dict, terms: dict) -> list:
    """The three terms of a statement line, read token by token; the only reader of malformed lines.

    Each term is made as soon as its token is read, so the first fault
    from the left is the one raised.  ``terms`` maps token text to term.
    """
    parsed = []
    pos = 0
    for position in ("subject", "predicate", "object"):
        kind, value, end = _token(line, pos, line_no)
        if kind == "dot":
            raise ParseError(f"unexpected '.' while reading {position}", line=line_no, column=end + 1)
        token = line[pos:end].lstrip(" \t")
        term = terms.get(token)
        if term is None:
            term = terms[token] = _term(kind, value, prefix_map, line_no, end)
        parsed.append(term)
        pos = end
    kind, _, end = _token(line, pos, line_no)
    if kind != "dot":
        raise ParseError("statement must end with '.'", line=line_no, column=end + 1)
    rest = _SPACE.match(line, end).end()
    if rest < len(line):
        raise ParseError("unexpected text after '.'", line=line_no, column=rest + 1)
    return parsed


def split_lines(text: str) -> list:
    """The lines of ``text``, as ``str.splitlines`` gives them but ended only by LF, CRLF or CR.

    The other characters ``splitlines`` breaks at (``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``) may stand raw in a
    literal, which ``to_ntriples`` writes as it is.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # a final line end opens no line, and empty text has none
        lines.pop()
    return lines


def load_ntriples(
    text: str,
    subsumption: SubsumptionMode | str = SubsumptionMode.CLOSURE,
) -> Graph:
    """Parse the N-Triples-like line format into a Graph.

    Each non-empty, non-comment line is either a ``@prefix name: <ns> .``
    declaration or a ``subject predicate object .`` statement.  Terms are
    ``<iri>``, ``_:id``, ``"literal"`` (optionally ``^^<datatype>``), or a
    prefixed name using a previously declared prefix.  Prefixed names inside
    angle brackets are expanded too, so ``<lanl:johan>`` works after a
    ``@prefix lanl:`` declaration.

    A statement line of three terms apart, whose object is no typed or
    escaped literal, is read by one match of ``_STATEMENT``; every other
    line by ``_tokenized_statement``.  Both accept the same lines, give the
    same terms and raise the same errors.  A term's text is parsed once:
    later occurrences reuse the same term object until the next ``@prefix``
    line, which may redeclare a prefix.
    """
    prefix_map: dict = {}
    terms: dict = {}  # token text -> term
    triples = []
    for line_no, raw_line in enumerate(split_lines(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@prefix"):
            name, namespace = prefix_declaration(line, line_no)
            prefix_map[name] = namespace
            terms.clear()
            continue

        statement = _STATEMENT.fullmatch(line)
        if statement is None:
            subject, predicate, obj = _tokenized_statement(line, line_no, prefix_map, terms)
        else:
            # a term is never falsy, so ``or`` reads a token only on its first occurrence
            s, p, o = statement.groups()
            subject = terms.get(s) or _matched_term(statement, 1, prefix_map, terms, line_no)
            predicate = terms.get(p) or _matched_term(statement, 2, prefix_map, terms, line_no)
            obj = terms.get(o) or _matched_term(statement, 3, prefix_map, terms, line_no)

        try:
            triples.append(Triple(subject, predicate, obj))
        except ValidationError as exc:
            raise ValidationError(str(exc), line=line_no) from None

    return Graph(triples, prefix_map, subsumption)
