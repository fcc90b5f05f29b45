"""Equivalence table for the triple-format parser.

Each case is a document and what ``load_ntriples`` makes of it: either
the triples it yields, or the error it raises, pinned by class, line,
column and message.  The table covers the corners of the tokenizer
(glued terms, words ending in '.', blank labels, escapes, datatypes,
prefix declarations) so that a change of tokenizer keeps every accepted
line's terms and every rejected line's error.  A differential test then
mutates the table's documents and checks that the one-match reading of
statement lines changes nothing against the tokenizer alone.
"""

import random
import re

import pytest

from geograms import store
from geograms.errors import ParseError, ValidationError
from geograms.store import Blank, Iri, Literal, Triple, load_ntriples

I, B, L = Iri, Blank, Literal

# (id, text, expected): expected is the list of (subject, predicate, object)
# the text yields, or (error class, line, column, message)
CASES = [
    ('iris_without_spaces', '<a><b><c>.', [(I('a'), I('b'), I('c'))]),
    ('iris_spaced', '<a> <b> <c> .', [(I('a'), I('b'), I('c'))]),
    ('prefixed_in_brackets', '@prefix ex: <http://e.org/> .\n<ex:a> <ex:b> <ex:c> .', [(I('http://e.org/a'), I('http://e.org/b'), I('http://e.org/c'))]),
    ('unknown_prefix_in_brackets', '<zz:a> <b> <c> .', [(I('zz:a'), I('b'), I('c'))]),
    ('bare_prefixed', '@prefix ex: <http://e.org/> .\nex:a ex:b ex:c .', [(I('http://e.org/a'), I('http://e.org/b'), I('http://e.org/c'))]),
    ('word_ending_in_dot', '@prefix ex: <http://e.org/> .\nex:a ex:b ex:c.', (ParseError, 2, 16, 'unexpected end of line (line 2, column 16)')),
    ('datatype_word_ending_in_dot', '@prefix ex: <http://e.org/> .\nex:a ex:b "5"^^ex:int.', (ParseError, 2, 23, 'unexpected end of line (line 2, column 23)')),
    ('word_glued_to_iri', '@prefix ex: <http://e.org/> .\nex:a<ex:b> ex:c ex:d .', [(I('http://e.org/a<ex:b>'), I('http://e.org/c'), I('http://e.org/d'))]),
    ('default_prefix', '@prefix : <http://d.org/> .\n:a :b :c .', [(I('http://d.org/a'), I('http://d.org/b'), I('http://d.org/c'))]),
    ('word_without_colon', 'abc <b> <c> .', (ParseError, 1, 4, "unknown prefix 'abc' in 'abc' (line 1, column 4)")),
    ('unknown_bare_prefix', 'zz:a <b> <c> .', (ParseError, 1, 5, "unknown prefix 'zz' in 'zz:a' (line 1, column 5)")),
    ('underscore_word', '_x <b> <c> .', (ParseError, 1, 3, "unknown prefix '_x' in '_x' (line 1, column 3)")),
    ('blank_labels', '_:a_b-c <p> _:x-1 .', [(B('a_b-c'), I('p'), B('x-1'))]),
    ('blank_unicode_label', '_:été <p> _:n² .', [(B('été'), I('p'), B('n²'))]),
    ('blank_empty_label', '_: <p> <o> .', (ParseError, 1, 1, 'empty blank node label (line 1, column 1)')),
    ('blank_then_dot', '_:s <p> _:a.b', (ParseError, 1, 13, "unexpected text after '.' (line 1, column 13)")),
    ('blank_glued_dot', '_:s <p> _:o.', [(B('s'), I('p'), B('o'))]),
    ('escaped_literal', '<s> <p> "a\\"b\\\\c\\nd\\te\\rf" .', [(I('s'), I('p'), L('a"b\\c\nd\te\rf'))]),
    ('literal_with_spaces_and_hash', '<s> <p> "x # y . z" .', [(I('s'), I('p'), L('x # y . z'))]),
    ('literal_glued_dot', '<s> <p> "x".', [(I('s'), I('p'), L('x'))]),
    ('typed_literal_iri', '<s> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .', [(I('s'), I('p'), L('5', 'http://www.w3.org/2001/XMLSchema#integer'))]),
    ('typed_literal_prefixed', '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n<s> <p> "5"^^xsd:int .', [(I('s'), I('p'), L('5', 'http://www.w3.org/2001/XMLSchema#int'))]),
    ('typed_literal_space_after_carets', '<s> <p> "5"^^ <dt> .', [(I('s'), I('p'), L('5', 'dt'))]),
    ('typed_literal_bracketed_prefix', '@prefix xsd: <http://x/> .\n<s> <p> "5"^^<xsd:int> .', [(I('s'), I('p'), L('5', 'http://x/int'))]),
    ('typed_literal_unknown_prefix', '<s> <p> "5"^^zz:int .', (ParseError, 1, 20, "unknown prefix 'zz' in 'zz:int' (line 1, column 20)")),
    ('typed_literal_bad_datatype', '<s> <p> "5"^^"x" .', (ParseError, 1, 17, 'expected datatype IRI after ^^ (line 1, column 17)')),
    ('typed_literal_blank_datatype', '<s> <p> "5"^^_:b .', (ParseError, 1, 17, 'expected datatype IRI after ^^ (line 1, column 17)')),
    ('typed_literal_missing_datatype', '<s> <p> "5"^^', (ParseError, 1, 14, 'unexpected end of line (line 1, column 14)')),
    ('caret_word_after_literal', '<s> <p> "5" ^^<dt> .', (ParseError, 1, 19, "statement must end with '.' (line 1, column 19)")),
    ('literal_then_word', '<s> <p> "x"abc .', (ParseError, 1, 15, "statement must end with '.' (line 1, column 15)")),
    ('unknown_escape', '<s> <p> "a\\qb" .', (ParseError, 1, 9, 'unknown escape \\q (line 1, column 9)')),
    ('dangling_escape', '<s> <p> "ab\\', (ParseError, 1, 9, 'dangling escape in literal (line 1, column 9)')),
    ('unterminated_literal', '<s> <p> "abc .', (ParseError, 1, 9, 'unterminated literal (line 1, column 9)')),
    ('unterminated_iri', '<s> <p> <o .', (ParseError, 1, 9, 'unterminated IRI (line 1, column 9)')),
    ('iri_swallowing_space', '<s <p> <o> .', (ParseError, 1, 13, "unexpected '.' while reading object (line 1, column 13)")),
    ('empty_iri', '<> <p> <o> .', (ParseError, 1, 3, 'empty name (line 1, column 3)')),
    ('empty_datatype', '<s> <p> "x"^^<> .', (ParseError, 1, 16, 'empty name (line 1, column 16)')),
    ('empty_namespace', '@prefix e: <> .\n<s> <p> e: .', (ParseError, 2, 11, 'empty name (line 2, column 11)')),
    ('prefix_redeclared', '@prefix ex: <http://a.org/> .\nex:x ex:p ex:y .\n@prefix ex: <http://b.org/> .\nex:x ex:p ex:y .', [(I('http://a.org/x'), I('http://a.org/p'), I('http://a.org/y')), (I('http://b.org/x'), I('http://b.org/p'), I('http://b.org/y'))]),
    ('prefix_without_dot', '@prefix ex: <http://a.org/>\nex:x ex:p ex:y .', [(I('http://a.org/x'), I('http://a.org/p'), I('http://a.org/y'))]),
    ('prefix_glued_dot', '@prefix ex: <http://a.org/>.\nex:x ex:p ex:y .', [(I('http://a.org/x'), I('http://a.org/p'), I('http://a.org/y'))]),
    ('prefix_missing_colon', '@prefix ex <http://a.org/> .', (ParseError, 1, 11, "@prefix expects a name ending in ':' (line 1, column 11)")),
    ('prefix_bare_namespace', '@prefix ex: http://a.org/ .', (ParseError, 1, 26, '@prefix expects a <namespace> (line 1, column 26)')),
    ('prefix_trailing_text', '@prefix ex: <http://a.org/> . junk', (ParseError, 1, 31, 'unexpected text after @prefix declaration (line 1, column 31)')),
    ('prefix_two_dots', '@prefix ex: <http://a.org/> . .', (ParseError, 1, 31, 'unexpected text after @prefix declaration (line 1, column 31)')),
    ('prefix_word_after', '@prefix ex: <http://a.org/> junk', (ParseError, 1, 33, 'unexpected text after @prefix declaration (line 1, column 33)')),
    ('prefix_empty', '@prefix', (ParseError, 1, 8, 'unexpected end of line (line 1, column 8)')),
    ('prefix_glued_name', '@prefixex: <http://a.org/> .\nex:x ex:p ex:y .', [(I('http://a.org/x'), I('http://a.org/p'), I('http://a.org/y'))]),
    ('literal_subject', '"x" <p> <o> .', (ValidationError, 1, None, 'literal in subject position (line 1)')),
    ('literal_predicate', '<s> "x" <o> .', (ValidationError, 1, None, 'predicate must be an IRI (line 1)')),
    ('blank_predicate', '<s> _:b <o> .', (ValidationError, 1, None, 'predicate must be an IRI (line 1)')),
    ('missing_final_dot', '<s> <p> <o>', (ParseError, 1, 12, 'unexpected end of line (line 1, column 12)')),
    ('trailing_text', '<s> <p> <o> . extra', (ParseError, 1, 15, "unexpected text after '.' (line 1, column 15)")),
    ('trailing_comment', '<s> <p> <o> . # note', (ParseError, 1, 15, "unexpected text after '.' (line 1, column 15)")),
    ('fourth_term', '<s> <p> <o> <x> .', (ParseError, 1, 16, "statement must end with '.' (line 1, column 16)")),
    ('leading_dot', '. <p> <o> .', (ParseError, 1, 2, "unexpected '.' while reading subject (line 1, column 2)")),
    ('dot_as_object', '<s> <p> . .', (ParseError, 1, 10, "unexpected '.' while reading object (line 1, column 10)")),
    ('comments_and_blank_lines', '# a comment\n\n   # indented comment\n<s> <p> <o> .\n', [(I('s'), I('p'), I('o'))]),
    ('tabs_and_padding', '\t <s>\t<p>  <o>\t.  ', [(I('s'), I('p'), I('o'))]),
    ('padding_then_error', '   <s> <p> <o> . x', (ParseError, 1, 15, "unexpected text after '.' (line 1, column 15)")),
    ('crlf_lines', '<s> <p> <o> .\r\n<s> <p> <o2> .\r\n', [(I('s'), I('p'), I('o')), (I('s'), I('p'), I('o2'))]),
    ('shared_terms', '@prefix ex: <http://e.org/> .\nex:a ex:p ex:b .\n<ex:b> <ex:p> <ex:a> .\nex:a ex:p "ex:b" .', [(I('http://e.org/a'), I('http://e.org/p'), I('http://e.org/b')), (I('http://e.org/a'), I('http://e.org/p'), L('ex:b')), (I('http://e.org/b'), I('http://e.org/p'), I('http://e.org/a'))]),
    ('literal_forms_distinct', '<s> <p> "5" .\n<s> <p> "5"^^<dt> .\n<s> <p> "5"^^<dt2> .\n<s> <p> "5"^^<http://www.w3.org/2001/XMLSchema#string> .', [(I('s'), I('p'), L('5', 'dt')), (I('s'), I('p'), L('5', 'dt2')), (I('s'), I('p'), L('5'))]),
    ('prefix_after_use', 'ex:a <p> <o> .\n@prefix ex: <http://e.org/> .', (ParseError, 1, 5, "unknown prefix 'ex' in 'ex:a' (line 1, column 5)")),
    ('blank_glued_iri', '_:a<p> <o> .', [(B('a'), I('p'), I('o'))]),
    ('literal_with_raw_tab', '<s> <p> "a\tb" .', [(I('s'), I('p'), L('a\tb'))]),
    ('nbsp_between_terms', '<s>\xa0<p> <o> .', (ParseError, 1, 8, "unknown prefix '\\xa0<p>' in '\\xa0<p>' (line 1, column 8)")),
    ('second_line_error', '<s> <p> <o> .\n<s> <p> <o>', (ParseError, 2, 12, 'unexpected end of line (line 2, column 12)')),
    ('blank_label_then_dot', '_:a-b.c <p> <o> .', (ParseError, 1, 7, "unexpected '.' while reading predicate (line 1, column 7)")),
    ('plain_literal_object', '@prefix ex: <http://e.org/> .\nex:a ex:b "v" .', [(I('http://e.org/a'), I('http://e.org/b'), L('v'))]),
    ('empty_literal_object', '<s> <p> "" .', [(I('s'), I('p'), L(''))]),
    ('literal_holding_brackets', '<s> <p> "<o> _:b" .', [(I('s'), I('p'), L('<o> _:b'))]),
    ('literal_glued_to_predicate', '<s> <p>"x" .', [(I('s'), I('p'), L('x'))]),
    ('word_object_dot_then_dot', '@prefix ex: <http://e.org/> .\nex:a ex:b ex:c. .', [(I('http://e.org/a'), I('http://e.org/b'), I('http://e.org/c.'))]),
    ('tab_before_dot', '@prefix ex: <http://e.org/> .\nex:a\tex:b\tex:c\t.', [(I('http://e.org/a'), I('http://e.org/b'), I('http://e.org/c'))]),
    ('iri_with_space', '<a b> <p> <o> .', [(I('a b'), I('p'), I('o'))]),
    ('unknown_prefix_in_predicate', '<s> zz:p <o> .', (ParseError, 1, 9, "unknown prefix 'zz' in 'zz:p' (line 1, column 9)")),
    ('unknown_prefix_in_object', '<s> <p> zz:o .', (ParseError, 1, 13, "unknown prefix 'zz' in 'zz:o' (line 1, column 13)")),
    ('empty_iri_object', '<s> <p> <> .', (ParseError, 1, 11, 'empty name (line 1, column 11)')),
    ('two_faults_first_wins', 'zz:a <p> <o', (ParseError, 1, 5, "unknown prefix 'zz' in 'zz:a' (line 1, column 5)")),
    ('blank_object_then_text', '<s> <p> _:o.x', (ParseError, 1, 13, "unexpected text after '.' (line 1, column 13)")),
    ('literal_then_two_dots', '<s> <p> "x" . .', (ParseError, 1, 15, "unexpected text after '.' (line 1, column 15)")),
]


@pytest.mark.parametrize("text, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_parser_equivalence(text, expected):
    if isinstance(expected, list):
        graph = load_ntriples(text)
        assert graph.triples == {Triple(*terms) for terms in expected}
        return
    error_class, line, column, message = expected
    with pytest.raises((ParseError, ValidationError)) as info:
        load_ntriples(text)
    error = info.value
    assert type(error) is error_class
    assert (error.line, getattr(error, "column", None), str(error)) == (line, column, message)


def _outcome(text):
    """What ``load_ntriples`` makes of ``text``: (triples, prefix map), or (error class, message)."""
    try:
        graph = load_ntriples(text)
    except (ParseError, ValidationError) as error:
        return type(error), str(error)
    return graph.triples, graph.prefix_map


# characters that start, end or separate terms, and a few plain ones
_MUTATION_CHARS = '<>"\\._: \t^#@-ax\n\xa0é'


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        choice = rng.random()
        if choice < 0.4:
            text = text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos:]
        elif choice < 0.7:
            text = text[:pos] + text[pos + 1:]
        elif choice < 0.9:
            text = text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos + 1:]
        else:  # a statement of another document
            text += "\n" + rng.choice(CASES)[1].splitlines()[-1]
    return text


def test_statement_match_agrees_with_the_tokenizer(monkeypatch):
    rng = random.Random(31)
    documents = [_mutate(rng, rng.choice(CASES)[1]) for _ in range(4000)]
    matched = sum(
        any(store._STATEMENT.fullmatch(line.strip()) for line in text.splitlines()) for text in documents
    )
    read = [_outcome(text) for text in documents]
    monkeypatch.setattr(store, "_STATEMENT", re.compile(r"(?!)"))
    tokenized = [_outcome(text) for text in documents]

    differ = [text for text, a, b in zip(documents, read, tokenized) if a != b]
    assert differ == []
    # both readers saw a good share of the documents
    assert 1000 < matched < 3000


def test_every_loaded_document_writes_text_that_reads_back_or_is_refused():
    # the reader has no IRI escape: a loaded IRI holding '>' (say from
    # ``ex:a<ex:b>``) would be written as text that no longer loads
    rng = random.Random(31)
    documents = [c[1] for c in CASES] + [_mutate(rng, rng.choice(CASES)[1]) for _ in range(4000)]
    refused = 0
    for text in documents:
        try:
            graph = load_ntriples(text)
        except (ParseError, ValidationError):
            continue
        try:
            written = graph.to_ntriples()
        except ValidationError as error:
            assert "holds '>'" in str(error), text
            refused += 1
            continue
        again = load_ntriples(written)
        assert (again.triples, again.prefix_map) == (graph.triples, graph.prefix_map), text
    assert refused > 0
